"""Executable checks for the structure at the top of the root poset and on
the extended Dynkin graph, tying the largest highest-root coefficient to
the second smallest exponent.

Two chains are built per system: the mark chain (shortest extended-Dynkin
path from the affine vertex to a simple root of maximal coefficient) and
the top chain (the roots living above height m_{l-1}, one per height,
together with their consecutive differences, each a simple root).  The top
chain carries its case: case 1 when some root of it pairs to 3 against its
step, which forces c_max = m2 - 2; case 2 otherwise, which forces
c_max = m2 - 1.  The main relation also states, on each system, the
root-length condition and the corollary that c_max = m2 - 2 characterises
G2, and no check consults a label.

Every check returns a CheckResult instead of raising, so a batch run over
many systems always completes and reports failures as data.  The chain
constructors do raise when a structural invariant that no valid system can
break turns out broken.

The ledger builds each structure the checks share once per system: the
Coxeter and dual exponents, the top chain with its case, the mark chain
and the Weyl orbits, read off the dominant chamber (Humphreys, Reflection
Groups and Coxeter Groups, 1.12) as ``WeylOrbits`` says.  The ledger's
checks come from one ordered registry of (name, needs, fn) rows, where
needs names the structures fn takes, in order.  Each row can fail with
counterexamples of its own; a condition that the structure builders or
another row already enforce is not given a row.  A check that raises is
reported as an error.  A structure whose builder raised is reported as an
error by the first check that needs it.  Every other check that needs a
missing structure is reported as blocked, naming that structure if its
builder raised, else the missing input that kept it from being built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import mul
from typing import Iterable

from .errors import InternalInconsistencyError, InvalidArgumentError
from .exponents import ExponentReport, coxeter_exponents, dual_partition
from .roots import Root, RootSystem

COUNTEREXAMPLE_CAP = 8


# ---------------------------------------------------------------------------
# chain structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkChain:
    """Shortest path in the extended Dynkin graph from the affine vertex to
    a simple root whose highest-root coefficient is maximal.  The marks
    along it are 1, 2, ..., c_max."""

    simple_indices: tuple[int, ...]
    marks: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return (0,) + self.simple_indices


def mark_chain(rs: RootSystem) -> MarkChain:
    """Build and verify the mark chain.

    Raises InternalInconsistencyError when any of its defining properties
    fails: the affine vertex must attach at exactly one vertex, marks must
    read 1..q+1 (the last is c[goal] = c_max, so the chain has c_max
    vertices), all but the last vertex must form a single-edge chain
    attached only at the second-to-last one, and the final step must
    either be a multiple edge or land on a ramification point.

    Once the affine vertex has one neighbour, the extended graph is the
    Dynkin tree plus a leaf, so one breadth-first walk from it gives each
    vertex's distance and the parent through which the unique path to it
    runs.
    """
    c = rs.highest_root().coeffs
    cmax = max(c)
    if cmax == 1:
        return MarkChain((), (1,))

    ext = rs.extended_graph
    if ext.degree(0) != 1:
        raise InternalInconsistencyError(
            "affine vertex must attach at exactly one vertex when c_max >= 2"
        )
    dist, parent = {0: 0}, {}
    frontier = [0]
    for v in frontier:  # grows as the walk goes
        for w in ext.neighbors(v):
            if w not in dist:
                dist[w], parent[w] = dist[v] + 1, v
                frontier.append(w)
    targets = [i for i in range(1, rs.rank + 1) if c[i - 1] == cmax]
    goal = min(targets, key=lambda i: (dist[i], i))
    path = [goal]
    while path[-1]:
        path.append(parent[path[-1]])
    path.reverse()
    indices = tuple(path[1:])
    marks = (1,) + tuple(c[i - 1] for i in indices)

    if marks != tuple(range(1, len(marks) + 1)):
        raise InternalInconsistencyError(f"mark chain coefficients {marks} are not 1..q+1")
    if not ext.is_simple_chain(path[:-1]):
        raise InternalInconsistencyError(
            f"prefix {path[:-1]} of the mark chain is not a simple chain"
        )
    if len(indices) == 1:
        end_pairing = -rs.signed.pairings[-1][indices[0] - 1]  # theta's, numbered last
    else:
        s, t = indices[-2], indices[-1]
        end_pairing = rs.cartan.a(t, s)
    if end_pairing not in (-2, -3) and ext.degree(indices[-1]) < 3:
        raise InternalInconsistencyError(
            f"mark chain ends with pairing {end_pairing} at a non-ramification point"
        )
    return MarkChain(indices, marks)


@dataclass(frozen=True)
class TopChain:
    """Roots of height above m_{l-1}, descending, with their numbers in
    ``RootSystem.signed``; the simple index of each consecutive difference;
    and the case: 1 when theta_t pairs to 3 against step t at the witness
    t = m - 2, else 2 with no witness."""

    roots: tuple[Root, ...]
    numbers: tuple[int, ...]
    step_indices: tuple[int, ...]
    case: int
    witness: int | None

    @property
    def m(self) -> int:
        return len(self.roots)

    def step(self, t: int) -> int:
        """1-based: the simple index of the t-th difference."""
        return self.step_indices[t - 1]


def top_chain(rs: RootSystem, rep: ExponentReport) -> TopChain:
    """Collect the unique root of each height in (m_{l-1}, m_l] and split
    the cases on it.  The root of height h is number sum(layer_sizes[:h])
    in ``rs.signed``, which numbers the positive roots layer by layer; its
    coefficients and pairings are read there.

    Raises InternalInconsistencyError when a difference is not a simple
    root, or when a pairing-3 witness is not unique or does not sit at
    position m - 2.
    """
    if rs.rank < 2:
        raise InvalidArgumentError(
            "rank >= 2 required: the second smallest exponent is undefined at rank 1"
        )
    ms = rep.exponents
    m_l, m_l1, m2 = ms[-1], ms[-2], ms[1]
    if m_l != rs.max_height:
        raise InternalInconsistencyError(
            f"largest exponent {m_l} does not match the top height {rs.max_height}"
        )
    sizes = rs.layer_sizes
    numbers: list[int] = []
    for h in range(m_l, m_l1, -1):
        if sizes[h] != 1:
            raise InternalInconsistencyError(
                f"height {h} holds {sizes[h]} roots; expected exactly one"
            )
        numbers.append(sum(sizes[:h]))
    m = len(numbers)  # m_l - m_(l-1): one root per height
    if m != m2 - 1:
        raise InternalInconsistencyError(
            f"|top chain| = m_l - m_(l-1) = {m}, expected m2 - 1 = {m2 - 1}"
        )
    roots = [Root(rs.signed.coeffs(k)) for k in numbers]
    pairings = rs.signed.pairings
    steps: list[int] = []
    witnesses: list[int] = []
    for t in range(1, m):
        diff = tuple(a - b for a, b in zip(roots[t - 1].coeffs, roots[t].coeffs))
        # the heights differ by one, so diff is simple iff no entry is negative
        if min(diff) < 0:
            raise InternalInconsistencyError(
                f"top-chain step {t} is {diff}, not a simple root"
            )
        steps.append(diff.index(1) + 1)
        if pairings[numbers[t - 1]][steps[-1] - 1] == 3:
            witnesses.append(t)
    if len(witnesses) > 1:
        raise InternalInconsistencyError(f"multiple pairing-3 witnesses: {witnesses}")
    if witnesses and witnesses[0] != m - 2:
        raise InternalInconsistencyError(
            f"pairing-3 witness at t = {witnesses[0]}, expected m - 2 = {m - 2}"
        )
    witness = witnesses[0] if witnesses else None
    case = 2 if witness is None else 1
    return TopChain(tuple(roots), tuple(numbers), tuple(steps), case, witness)


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    passed: bool
    counterexamples: list = field(default_factory=list)
    note: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"pass": self.passed, "counterexamples": self.counterexamples}
        if self.note:
            out["note"] = self.note
        return out


def _vacuous(why: str) -> CheckResult:
    return CheckResult(True, [], f"vacuous: {why}")


# ---------------------------------------------------------------------------
# chain and relation checks
# ---------------------------------------------------------------------------

def check_mark_chain(rs: RootSystem, chain: MarkChain) -> CheckResult:
    """Mark-chain shape (mark_chain verifies it while building); for
    c_max = 1 additionally the chain form of the whole graph with the
    affine vertex on its terminals.  A graph of rank >= 2 whose terminal
    count is not 2 is not a chain, so that count needs no test of its own."""
    cx: list = []
    if rs.c_max() == 1 and rs.rank >= 2:
        g = rs.graph
        ext = rs.extended_graph
        if not g.is_chain_graph():
            cx.append({"reason": "coefficient 1 everywhere but the graph is not a chain"})
        terminals = g.terminal_vertices()
        if set(ext.neighbors(0)) != terminals:
            cx.append(
                {
                    "reason": "affine vertex must attach exactly at the terminals",
                    "affine_neighbors": sorted(ext.neighbors(0)),
                    "terminals": sorted(terminals),
                }
            )
    return CheckResult(not cx, cx, f"vertices {chain.vertices}, marks {chain.marks}")


def check_main_relation(rs: RootSystem, top: TopChain, rep: ExponentReport) -> CheckResult:
    """c_max = m2 - 2 in case 1 and m2 - 1 in case 2, and case 1 holds iff
    the long/short squared-length ratio is 3, iff the Dynkin graph has a
    triple edge (some a_ij * a_ji = 3), which is what type G2 means.  The
    ratio is max(d), since min(d) = 1; all of it comes from the system,
    never from its label."""
    cmax = rs.c_max()
    m2 = rep.exponents[1]
    ratio = max(rs.form.d)
    rows = rs.cartan.rows
    triple = any(a * b == 3 for row, col in zip(rows, zip(*rows)) for a, b in zip(row, col))
    expected = m2 - 2 if top.case == 1 else m2 - 1
    ok = cmax == expected and (top.case == 1) == (ratio == 3) == triple
    cx = [] if ok else [
        {"c_max": cmax, "m2": m2, "case": top.case, "ratio": ratio, "triple_edge": triple}
    ]
    note = f"case {top.case}: c_max = {cmax}, m2 = {m2}, long/short ratio {ratio}"
    return CheckResult(ok, cx, note)


def check_chains_coincide(chain: MarkChain, top: TopChain) -> CheckResult:
    """The step set of the top chain equals the vertex set of the mark
    chain, and the mark chain's vertices are the top chain's first steps,
    in order: peeling them off the highest root walks down through
    uniquely-occupied height layers.

    top_chain files one root per height above m_(l-1), each the one before
    minus its step.  Every lower layer holds at least two roots: its size
    counts the exponents at least its height, m_(l-1) and m_l among them.
    So the walk is the prefix comparison, and a mark chain with m or more
    vertices, which would walk into such a layer, matches no slice of the
    m - 1 steps."""
    cx: list = []
    steps, path = top.step_indices, chain.simple_indices
    if set(steps) != set(path):
        cx.append({"step_set": sorted(set(steps)), "mark_set": sorted(set(path))})
    if steps[: len(path)] != path:
        cx.append({"steps": list(steps), "marks": list(path)})
    return CheckResult(not cx, cx, f"common set size {len(set(path)) + 1}")


def check_step_multiset(rs: RootSystem, top: TopChain) -> CheckResult:
    """Multiset shape of the steps: in case 1 the last two coincide and the
    rest are distinct, with a single-edge prefix and a -3 pairing at the
    turn; in case 2 all steps are distinct, with the prefix chain when the
    first pairing is 1.  In case 1 the base set (the distinct steps and
    -theta) then has m - 1 members, so its size needs no test of its own."""
    m = top.m
    if m < 2:
        return _vacuous("no steps when m = 1")
    cx: list = []
    note = ""
    steps = top.step_indices
    ext = rs.extended_graph
    if top.case == 1:
        if m < 4:
            cx.append({"reason": "a pairing-3 witness forces m >= 4", "m": m})
        else:
            if top.step(m - 1) != top.step(m - 2):
                cx.append(
                    {"reason": "last two steps must coincide", "steps": list(steps)}
                )
            head = steps[: m - 2]
            if len(set(head)) != len(head):
                cx.append({"reason": "head steps must be distinct", "steps": list(steps)})
            path = [0] + list(steps[: m - 3])
            if not ext.is_simple_chain(path):
                cx.append({"reason": "head prefix is not a simple chain", "path": path})
            turn = rs.cartan.a(top.step(m - 2), top.step(m - 3))
            if turn != -3:
                cx.append({"reason": "turn pairing must be -3", "pairing": turn})
    else:
        if len(set(steps)) != len(steps):
            cx.append({"reason": "steps must be distinct", "steps": list(steps)})
        first = rs.signed.pairings[top.numbers[0]][top.step(1) - 1]
        if first == 2:
            if m != 2:
                cx.append({"reason": "first pairing 2 forces m = 2", "m": m})
            note = (
                "first pairing is 2; the negated highest root stays in the "
                "step multiset by convention"
            )
        elif first == 1 and m >= 3:
            path = [0] + list(steps[: m - 2])
            if not ext.is_simple_chain(path):
                cx.append({"reason": "prefix is not a simple chain", "path": path})
    return CheckResult(not cx, cx, note)


def check_step_nonramification(rs: RootSystem, top: TopChain) -> CheckResult:
    """Every step before the last, together with the affine vertex, avoids
    ramification points of the extended graph."""
    m = top.m
    if m < 2:
        return _vacuous("m < 2")
    ext = rs.extended_graph
    vertices = [0] + list(top.step_indices[: m - 2])
    cx = [
        {"vertex": v, "degree": ext.degree(v)} for v in vertices if ext.degree(v) > 2
    ]
    return CheckResult(not cx, cx, f"vertices {vertices}")


def check_differences(rs: RootSystem, top: TopChain) -> CheckResult:
    """Pairwise differences along the top chain are positive roots, except
    the (m-2, m) pair in case 1, which must be twice a simple root.

    theta_i - theta_j is looked up by its key, the difference of the two
    roots' keys, in ``rs.signed``.  Its coordinates lie in [-c, c], c the
    largest coefficient, so they differ from a signed root's by at most
    2c, which the keys' field width covers: a key found is that very
    root's.  It is a positive root's, since theta_i - theta_j has height
    j - i > 0."""
    m = top.m
    if m < 2:
        return _vacuous("m < 2")
    keys, number = rs.signed.keys, rs.signed.number
    cx: list = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            diff = tuple(
                a - b for a, b in zip(top.roots[i - 1].coeffs, top.roots[j - 1].coeffs)
            )
            if top.case == 1 and {i, j} == {m - 2, m}:
                ok = sorted(diff) == [0] * (len(diff) - 1) + [2]
            else:
                ok = keys[top.numbers[i - 1]] - keys[top.numbers[j - 1]] in number
            if not ok:
                cx.append({"i": i, "j": j, "difference": list(diff)})
    return CheckResult(not cx, cx)


def check_lengths(rs: RootSystem, top: TopChain) -> CheckResult:
    """Length equalities along the top chain: through theta_{m-2} and the
    steps before the turn in case 1, one farther in case 2.  A simple root
    alpha_i has squared length d_i <alpha_i, alpha_i> = 2 d_i."""
    m = top.m
    if m < 3:
        return _vacuous("m < 3")
    cx: list = []
    hi = m - 2 if top.case == 1 else m - 1
    d = rs.form.d
    values = [rs.signed.norm_sq(k, d) for k in top.numbers[:hi]]
    values += [2 * d[top.step(t) - 1] for t in range(1, hi)]
    if len(set(values)) > 1:
        cx.append({"norms": values})
    return CheckResult(not cx, cx, f"{len(values)} norms compared")


# ---------------------------------------------------------------------------
# exhaustive root-poset scans
# ---------------------------------------------------------------------------

def check_string_descent(rs: RootSystem) -> CheckResult:
    """Whenever a positive root pairs to k in {2, 3} against a simple root
    other than itself, some other simple root can be subtracted after
    stepping down k - 1 times.

    beta - (k-1)*alpha_i - alpha_j is looked up by its packed key,
    key(beta) - (k-1)*unit[i] - unit[j], in ``rs.signed``.  That cannot hit
    a wrong root: its coordinates lie in [-2, c], c the largest
    coefficient, so they differ from a signed root's by at most 2c + 2 <=
    4c, which the keys' field width covers.  Nor a negative root -gamma:
    beta has height at least 2, so that needs height 2, k = 3 and gamma a
    simple root alpha_m, making beta = 2*alpha_i + alpha_j - alpha_m either
    alpha_i + alpha_j, which pairs to 2 + a_ij <= 2 against alpha_i, or
    2*alpha_i, which pairs to 4."""
    number, unit = rs.signed.number, rs.signed.unit
    cx: list = []
    checked = 0
    for b, pv in enumerate(rs.signed.pairings):
        # beta == alpha_i is the only height-1 hit, and layer 1 comes first
        if b < rs.layer_sizes[1] or max(pv) < 2:
            continue
        for i, k in enumerate(pv):
            if k not in (2, 3):
                continue
            checked += 1
            ui = unit[i]
            base = rs.signed.keys[b] - (k - 1) * ui
            if not any(base - u in number for u in unit if u != ui):
                cx.append({"beta": list(rs.signed.coeffs(b)), "alpha": i + 1, "k": k})
    return CheckResult(not cx, cx, f"{checked} applicable pairs")


def check_no_detour(rs: RootSystem) -> CheckResult:
    """When a root pairs to 3 against the only simple root it can step down
    by, there is no second simple root to step down through.

    beta - alpha_j and beta - alpha_i - alpha_j are looked up by packed key
    in ``rs.signed``.  Their coordinates lie in [-2, c], so, as in
    ``check_string_descent``, a key found is that very root's.  Neither is
    a negative root: beta - alpha_j has height at least 0, and
    beta - alpha_i - alpha_j is looked up only when <beta, alpha_i> = 3,
    which no simple root has, so beta has height at least 2."""
    keys, number, unit = rs.signed.keys, rs.signed.number, rs.signed.unit
    cx: list = []
    checked = 0
    for b, pv in enumerate(rs.signed.pairings):
        if 3 not in pv:
            continue
        kb = keys[b]
        droppable = [j for j, u in enumerate(unit) if kb - u in number]
        for i, p in enumerate(pv):
            if p != 3 or droppable != [i]:
                continue
            checked += 1
            ki = kb - unit[i]
            for j, u in enumerate(unit):
                if j != i and ki - u in number:
                    cx.append({"beta": list(rs.signed.coeffs(b)), "alpha": i + 1, "detour": j + 1})
    return CheckResult(not cx, cx, f"{checked} applicable pairs")


@dataclass(frozen=True)
class WeylOrbits:
    """The W-orbits of the signed roots, by their numbers in
    ``RootSystem.signed``.

    ``escapes`` lists every (root, i, p), with p = <root, alpha_(i+1)>,
    whose image under s_(i+1) is not a signed root; i is 0-based, as in the
    moves.  When it is empty the set is Weyl-stable, and each
    W-orbit meets the dominant chamber exactly once (Humphreys, 1.12), so
    ``representatives`` are the dominant roots lambda, with every pairing
    <lambda, alpha_i> >= 0, and ``stabilizer_orbits`` holds, per
    representative, the orbits of all signed roots under its stabilizer
    W_J, J = {i : <lambda, alpha_i> = 0}, as (least number, size) pairs in
    increasing order.  With escapes both are empty.
    """

    representatives: tuple[int, ...]
    escapes: tuple[tuple[int, int, int], ...]
    stabilizer_orbits: tuple[tuple[tuple[int, int], ...], ...] = ()


def _close(moves: list, gens: set[int]) -> list[tuple[int, int]]:
    """Close the N positive roots of a Weyl-stable set under the simple
    reflections s_i with 0-based i in gens.  moves[k] lists (i, p, j) for
    each i with p = <v, alpha_i> nonzero, v root k, and j the number of
    s_i(v) = v - p alpha_i, or -1 for none: seen unless j < N.  Returns
    each orbit's positive part as (first root met, size)."""
    seen = [False] * len(moves) + [True] * (len(moves) + 1)
    orbits = []
    for start in range(len(moves)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        size = 0
        while stack:
            k = stack.pop()
            size += 1
            for i, _, j in moves[k]:
                if i in gens and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        orbits.append((start, size))
    return orbits


def weyl_orbits(rs: RootSystem) -> WeylOrbits:
    """Read the W-orbits of the signed roots off the dominant chamber,
    moving among the positive roots alone.

    The escapes are the moves whose image is not a signed root; as
    s_i(-v) = -s_i(v), root k + N escapes where root k does, with -p.
    Without them the set is Weyl-stable, and the representatives are the
    positive roots with no negative pairing: a negative dominant v would
    have (v, v) = sum_i v_i d_i <v, alpha_i> <= 0.  Each is closed once
    under its stabilizer W_J, which keeps the coordinates outside J, so an
    orbit whose support leaves J is positive, and its negation is another.
    Reflecting a positive member at a negative pairing climbs through
    positive members to the orbit's unique J-dominant member (Humphreys,
    1.12), so its positive part is connected and met first at its least
    number.  An orbit inside span(Delta_J) holds -v with v: reflections in
    J from that member down to its negative w0 image flip sign at some
    step u -> s_i(u), which forces u = c*alpha_i and s_i(u) = -u.

    s_i(v) = v - p*alpha_i is looked up by its key, key(v) - p*unit[i],
    in ``rs.signed``, whose field width covers every such image."""
    n = rs.rank
    signed = rs.signed
    keys, number, unit, positive = signed.keys, signed.number, signed.unit, signed.pairings
    half = len(positive)
    moves = [
        [(i, pv[i], number.get(keys[k] - pv[i] * unit[i], -1)) for i in compress(range(n), pv)]
        for k, pv in enumerate(positive)
    ]
    escapes = [(k, i, p) for k, m in enumerate(moves) for i, p, j in m if j < 0]
    if escapes:
        return WeylOrbits((), tuple(escapes + [(k + half, i, -p) for k, i, p in escapes]))
    reps = tuple(k for k, pv in enumerate(positive) if min(pv) >= 0)
    ones = (1 << signed.width) - 1
    orbits = []
    for k in reps:
        J = {i for i, p in enumerate(positive[k]) if not p}
        outside = sum(ones * u for i, u in enumerate(unit) if i not in J)
        pos, neg = [], []
        for b, size in _close(moves, J):
            if keys[b] & outside:
                pos.append((b, size))
                neg.append((b + half, size))
            else:
                pos.append((b, 2 * size))
        orbits.append(tuple(pos + neg))
    return WeylOrbits(reps, (), tuple(orbits))


def _not_weyl_stable(rs: RootSystem, orbits: WeylOrbits) -> CheckResult:
    """A scan's failure on a set with escapes, decoding only those reported."""
    cx = []
    for k, i, p in orbits.escapes[:COUNTEREXAMPLE_CAP]:
        v = rs.signed.coeffs(k)
        image = [c - p * (j == i) for j, c in enumerate(v)]
        cx.append({"root": list(v), "reflection": i + 1, "image": image})
    return CheckResult(
        False, cx, f"not Weyl-stable: {len(orbits.escapes)} reflected roots escape"
    )


def _orbit_count(count: int, kind: str) -> str:
    return f"{count} {kind}Weyl orbit{'' if count == 1 else 's'}"


def check_long_pair_positive(rs: RootSystem, orbits: WeylOrbits) -> CheckResult:
    """Signed root pairs whose difference is a root and which contain a long
    root have strictly positive inner product.

    Both conditions are Weyl-invariant, so the long root is fixed to each
    long representative lambda, and its partner to one member of each
    W_J-orbit, counted with its size: O(orbits * stabilizer orbits) pairs
    instead of O(N^2).  The inner product is (lambda, b) = sum_i lambda_i
    d_i <b, alpha_i>, negated for a negative b, and lambda - b is looked up
    by its packed key in ``rs.signed``, whose field width covers sums of
    two signed roots.
    """
    if orbits.escapes:
        return _not_weyl_stable(rs, orbits)
    signed = rs.signed
    keys, number, pvs = signed.keys, signed.number, signed.pairings
    scaled = {r: list(map(mul, signed.coeffs(r), rs.form.d)) for r in orbits.representatives}
    norm = {r: sum(map(mul, rd, pvs[r])) for r, rd in scaled.items()}
    top = max(norm.values())  # every root lies in some orbit
    long_reps = 0
    cx: list = []
    checked = 0
    for r, partners in zip(orbits.representatives, orbits.stabilizer_orbits):
        if norm[r] != top:
            continue
        long_reps += 1
        rd, kr = scaled[r], keys[r]
        for b, size in partners:
            if kr - keys[b] not in number:
                continue
            checked += size
            product = sum(map(mul, rd, pvs[b % len(pvs)]))
            if (-product if b >= len(pvs) else product) <= 0 and len(cx) < COUNTEREXAMPLE_CAP:
                cx.append({"beta1": list(signed.coeffs(r)), "beta2": list(signed.coeffs(b))})
    note = (
        f"exhaustive over {_orbit_count(long_reps, 'long ')}: "
        f"{len(keys)} signed roots, {checked} qualifying pairs"
    )
    return CheckResult(not cx, cx, note)


def check_two_of_three_sums(rs: RootSystem, orbits: WeylOrbits) -> CheckResult:
    """For signed root triples with nonzero pairwise sums whose total is a
    root, at least two of the pairwise sums are roots.

    Both conditions are Weyl-invariant, so the first root is fixed to each
    representative lambda, and the second to one member of each W_J-orbit,
    counted with its size, while the third runs over every signed root, in
    C-level passes: O(orbits * stabilizer orbits * N) instead of O(N^3).
    The ordered pairs (b, c) so counted, plus the diagonal ones (b, b), make
    twice the number of pairs b <= c.  Roots are the packed keys of
    ``rs.signed``, linear in the coefficients, so vector sums become integer
    sums; the keys' field width covers sums of up to three signed roots, so
    those never collide.
    """
    if orbits.escapes:
        return _not_weyl_stable(rs, orbits)
    keys, member = rs.signed.keys, rs.signed.number
    has = member.__contains__
    checked = 0
    cx: list = []
    for r, partners in zip(orbits.representatives, orbits.stabilizer_orbits):
        kr = keys[r]
        ordered = diagonal = 0
        for b, size in partners:
            kb = keys[b]
            rb = kr + kb
            if not rb:
                continue
            rb_root = rb in member
            diagonal += size * (rb + kb in member)
            hits = 0
            for kc in compress(keys, map(has, map(rb.__add__, keys))):
                rc, bc = kr + kc, kb + kc
                if not rc or not bc:
                    continue
                hits += 1
                roots = rb_root + (rc in member) + (bc in member)
                if roots < 2 and len(cx) < COUNTEREXAMPLE_CAP:
                    beta = [list(rs.signed.coeffs(k)) for k in (r, b, member[kc])]
                    cx.append(dict(zip(("beta1", "beta2", "beta3"), beta)))
            ordered += size * hits
        checked += (ordered + diagonal) // 2
    note = (
        f"exhaustive over {_orbit_count(len(orbits.representatives), '')}: "
        f"{len(keys)} signed roots, {checked} qualifying triples"
    )
    return CheckResult(not cx, cx, note)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def check_exponents_agree(rep_a: ExponentReport, rep_b: ExponentReport) -> CheckResult:
    ok = (rep_a.exponents, rep_a.coxeter_number) == (rep_b.exponents, rep_b.coxeter_number)
    cx = [] if ok else [{r.method: list(r.exponents) for r in (rep_a, rep_b)}]
    return CheckResult(ok, cx, f"h = {rep_a.coxeter_number}")


@dataclass
class VerificationLedger:
    """Per-system record: headline numbers plus one result per check."""

    label: str
    c_max: int
    m2: int | None
    case: int | None
    witness_t: int | None
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "type": self.label,
            "c_max": self.c_max,
            "m2": self.m2,
            "case": self.case,
            "witness_t": self.witness_t,
            "checks": {name: c.to_json_dict() for name, c in self.checks.items()},
        }


def _shared_structures(rs: RootSystem) -> tuple[dict, dict, dict]:
    """Build each structure the checks share, once, by name.

    Returns the built structures, the exception of each builder that
    raised, and for each missing structure the name of what it lacks:
    itself if its builder raised, else the first of its inputs missing.
    """
    have: dict = {"system": rs, "Cartan matrix": rs.cartan}
    raised: dict[str, Exception] = {}
    lacks: dict[str, str] = {}
    for name, inputs, build in (
        ("coxeter exponents", ("Cartan matrix",), coxeter_exponents),
        ("dual exponents", ("system",), dual_partition),
        ("top chain", ("system", "dual exponents"), top_chain),
        ("mark chain", ("system",), mark_chain),
        ("Weyl orbits", ("system",), weyl_orbits),
    ):
        gone = next((n for n in inputs if n not in have), None)
        if gone is not None:
            lacks[name] = gone
            continue
        try:
            have[name] = build(*(have[n] for n in inputs))
        except Exception as exc:  # findings, not crashes
            raised[name] = exc
            lacks[name] = name
    return have, raised, lacks


def build_ledger(rs: RootSystem) -> VerificationLedger:
    """Run every check on one system, converting raised inconsistencies into
    failed results so batch runs always complete.

    The headline m2 comes from the Coxeter route, which needs only the
    Cartan matrix; it is None when that route raised a documented
    NumericInconsistencyError, which the ledger reports as a failed row.
    """
    if rs.rank < 2:
        raise InvalidArgumentError("rank >= 2 required; m2 is undefined at rank 1")
    have, raised, lacks = _shared_structures(rs)
    checks: dict[str, CheckResult] = {}
    for name, needs, check in (
        ("exponents_agree", ("dual exponents", "coxeter exponents"), check_exponents_agree),
        ("main_relation", ("system", "top chain", "dual exponents"), check_main_relation),
        ("mark_chain", ("system", "mark chain"), check_mark_chain),
        ("chains_coincide", ("mark chain", "top chain"), check_chains_coincide),
        ("step_multiset", ("system", "top chain"), check_step_multiset),
        ("step_nonramification", ("system", "top chain"), check_step_nonramification),
        ("differences", ("system", "top chain"), check_differences),
        ("lengths", ("system", "top chain"), check_lengths),
        ("string_descent", ("system",), check_string_descent),
        ("two_of_three_sums", ("system", "Weyl orbits"), check_two_of_three_sums),
        ("long_pair_positive", ("system", "Weyl orbits"), check_long_pair_positive),
        ("no_detour", ("system",), check_no_detour),
    ):
        gone = next((n for n in needs if n not in have), None)
        if gone in raised:
            note = f"error: {raised.pop(gone)}"
        elif gone is not None:
            note = f"blocked: {lacks[gone]} unavailable"
        else:
            try:
                checks[name] = check(*(have[n] for n in needs))
                continue
            except Exception as exc:  # findings, not crashes
                note = f"error: {exc}"
        checks[name] = CheckResult(False, [], note)

    top = have.get("top chain")
    rep_c = have.get("coxeter exponents")
    return VerificationLedger(
        label=rs.label or "custom",
        c_max=rs.c_max(),
        m2=rep_c.exponents[1] if rep_c else None,
        case=top.case if top else None,
        witness_t=top.witness if top else None,
        checks=checks,
    )


def g2_criterion_report(ledgers: Iterable[VerificationLedger]) -> dict:
    """The corollary over a sweep: the types in case 1 and the types with
    c_max = m2 - 2 must be the same.  Each ledger's main_relation already
    ties case 1 to a triple edge of that system's own Dynkin graph."""
    ledgers = list(ledgers)
    case1 = sorted(l.label for l in ledgers if l.case == 1)
    rel = sorted(l.label for l in ledgers if l.c_max + 2 == l.m2)
    return {"pass": case1 == rel, "case1_types": case1, "m2_minus_2_types": rel}
