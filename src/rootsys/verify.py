"""Executable checks for the structure at the top of the root poset and on
the extended Dynkin graph, tying the largest highest-root coefficient to
the second smallest exponent.

Two chains are built per system: the mark chain (shortest extended-Dynkin
path from the affine vertex to a simple root of maximal coefficient) and
the top chain (the roots living above height m_{l-1}, one per height,
together with their consecutive differences).  The case split asks whether
some root of the top chain pairs to 3 against its step; case 1 forces
c_max = m2 - 2, case 2 forces c_max = m2 - 1, and case 1 happens only
for G2.

Every check returns a CheckResult instead of raising, so a batch run over
many systems always completes and reports failures as data.  The chain
constructors do raise when a structural invariant that no valid system can
break turns out broken; the ledger builder converts that into a failed
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import InternalInconsistencyError, InvalidArgumentError
from .exponents import (
    ExponentReport,
    check_duality,
    coxeter_exponents,
    dual_partition,
    height_distribution,
)
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
    neg_highest: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return (0,) + self.simple_indices

    @property
    def size(self) -> int:
        return len(self.marks)


def mark_chain(rs: RootSystem) -> MarkChain:
    """Build and verify the mark chain.

    Raises InternalInconsistencyError when any of its defining properties
    fails: marks must read 1..c_max, the chain must have c_max vertices,
    all but the last vertex must form a single-edge chain attached only at
    the second-to-last one, and the final step must either be a multiple
    edge or land on a ramification point.
    """
    theta = rs.highest_root()
    c = theta.coeffs
    cmax = max(c)
    neg = tuple(-x for x in c)
    if cmax == 1:
        return MarkChain((), (1,), neg)

    ext = rs.extended_graph
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in ext.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    targets = [i for i in range(1, rs.rank + 1) if c[i - 1] == cmax]
    goal = min(targets, key=lambda i: (dist[i], i))

    back = {goal: 0}
    frontier = [goal]
    while frontier:
        nxt = []
        for v in frontier:
            for w in ext.neighbors(v):
                if w not in back:
                    back[w] = back[v] + 1
                    nxt.append(w)
        frontier = nxt

    path = [0]
    while path[-1] != goal:
        u = path[-1]
        path.append(
            min(
                w
                for w in ext.neighbors(u)
                if dist[w] == dist[u] + 1 and back[w] == back[u] - 1
            )
        )
    indices = tuple(path[1:])
    marks = (1,) + tuple(c[i - 1] for i in indices)

    if marks != tuple(range(1, len(marks) + 1)):
        raise InternalInconsistencyError(f"mark chain coefficients {marks} are not 1..q+1")
    if len(marks) != cmax:
        raise InternalInconsistencyError(
            f"mark chain has {len(marks)} vertices, expected c_max = {cmax}"
        )
    if ext.degree(0) != 1:
        raise InternalInconsistencyError(
            "affine vertex must attach at exactly one vertex when c_max >= 2"
        )
    if not ext.is_simple_chain(path[:-1]):
        raise InternalInconsistencyError(
            f"prefix {path[:-1]} of the mark chain is not a simple chain"
        )
    if len(indices) == 1:
        end_pairing = -rs.pairing(theta, indices[0])
    else:
        s, t = indices[-2], indices[-1]
        end_pairing = rs.cartan.a(t, s)
    if end_pairing not in (-2, -3) and ext.degree(indices[-1]) < 3:
        raise InternalInconsistencyError(
            f"mark chain ends with pairing {end_pairing} at a non-ramification point"
        )
    return MarkChain(indices, marks, neg)


@dataclass(frozen=True)
class TopChain:
    """Roots of height above m_{l-1}, descending, with their consecutive
    differences (each difference should be a simple root)."""

    roots: tuple[Root, ...]
    step_indices: tuple[int, ...]
    neg_highest: tuple[int, ...]
    non_simple: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def m(self) -> int:
        return len(self.roots)

    def step(self, t: int) -> int:
        """1-based: the simple index of the t-th difference."""
        return self.step_indices[t - 1]


def top_chain(rs: RootSystem, rep: ExponentReport) -> TopChain:
    """Collect the unique root of each height in (m_{l-1}, m_l].

    A non-simple consecutive difference is recorded as a finding in
    ``non_simple`` rather than assumed away.
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
    roots: list[Root] = []
    for h in range(m_l, m_l1, -1):
        layer = rs.layer(h)
        if len(layer) != 1:
            raise InternalInconsistencyError(
                f"height {h} holds {len(layer)} roots; expected exactly one"
            )
        roots.append(layer[0])
    m = len(roots)
    if m != m_l - m_l1 or m != m2 - 1:
        raise InternalInconsistencyError(
            f"|top chain| = {m}, expected m_l - m_(l-1) = {m_l - m_l1} = m2 - 1 = {m2 - 1}"
        )
    steps: list[int] = []
    non_simple: list[tuple[int, tuple[int, ...]]] = []
    for t in range(m - 1):
        diff = tuple(a - b for a, b in zip(roots[t].coeffs, roots[t + 1].coeffs))
        if sum(diff) == 1 and all(x in (0, 1) for x in diff):
            steps.append(diff.index(1) + 1)
        else:
            non_simple.append((t + 1, diff))
    neg = tuple(-x for x in rs.highest_root().coeffs)
    return TopChain(tuple(roots), tuple(steps), neg, tuple(non_simple))


@dataclass(frozen=True)
class CaseSplit:
    case: int
    witness: int | None
    pairings: tuple[int, ...]


def classify_case(top: TopChain, rs: RootSystem) -> CaseSplit:
    """Case 1 iff some top-chain root pairs to 3 against its step.

    The witness, when present, must be unique and sit at position m - 2;
    anything else is raised as an internal inconsistency.
    """
    if top.non_simple:
        raise InternalInconsistencyError(
            f"top-chain differences are not all simple: {top.non_simple}"
        )
    pairings = tuple(
        rs.pairing(top.roots[t - 1], top.step(t)) for t in range(1, top.m)
    )
    witnesses = [t for t, p in enumerate(pairings, start=1) if p == 3]
    if len(witnesses) > 1:
        raise InternalInconsistencyError(f"multiple pairing-3 witnesses: {witnesses}")
    if witnesses:
        t = witnesses[0]
        if t != top.m - 2:
            raise InternalInconsistencyError(
                f"pairing-3 witness at t = {t}, expected m - 2 = {top.m - 2}"
            )
        return CaseSplit(1, t, pairings)
    return CaseSplit(2, None, pairings)


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexamples: list = field(default_factory=list)
    note: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"pass": self.passed, "counterexamples": self.counterexamples}
        if self.note:
            out["note"] = self.note
        return out


def _vacuous(name: str, why: str) -> CheckResult:
    return CheckResult(name, True, [], f"vacuous: {why}")


# ---------------------------------------------------------------------------
# chain and relation checks
# ---------------------------------------------------------------------------

def check_mark_chain(rs: RootSystem) -> CheckResult:
    """Mark-chain shape; for c_max = 1 additionally the chain form of the
    whole graph with the affine vertex on its terminals."""
    chain = mark_chain(rs)
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
        if len(terminals) != 2:
            cx.append({"reason": "expected exactly two terminal vertices"})
    return CheckResult(
        "mark_chain", not cx, cx, f"vertices {chain.vertices}, marks {chain.marks}"
    )


def check_main_relation(rs: RootSystem, rep: ExponentReport, split: CaseSplit) -> CheckResult:
    cmax = rs.c_max()
    m2 = rep.exponents[1]
    expected = m2 - 2 if split.case == 1 else m2 - 1
    ok = cmax == expected
    cx = [] if ok else [{"c_max": cmax, "m2": m2, "case": split.case}]
    return CheckResult(
        "main_relation", ok, cx, f"case {split.case}: c_max = {cmax}, m2 = {m2}"
    )


def check_chains_coincide(rs: RootSystem, rep: ExponentReport) -> CheckResult:
    """The step set of the top chain equals the vertex set of the mark
    chain, and peeling the mark chain off the highest root walks through
    uniquely-occupied height layers."""
    chain = mark_chain(rs)
    top = top_chain(rs, rep)
    cx: list = []
    if top.non_simple:
        cx.append({"non_simple_steps": [list(d) for _, d in top.non_simple]})
    if set(top.step_indices) != set(chain.simple_indices):
        cx.append(
            {
                "step_set": sorted(set(top.step_indices)),
                "mark_set": sorted(set(chain.simple_indices)),
            }
        )
    theta = rs.highest_root()
    eta = list(theta.coeffs)
    q = len(chain.simple_indices)
    for p in range(1, q + 2):
        h = theta.height - (p - 1)
        layer = rs.layer(h)
        if len(layer) != 1 or layer[0].coeffs != tuple(eta):
            cx.append(
                {
                    "descent_step": p,
                    "expected": list(eta),
                    "layer": [list(r.coeffs) for r in layer],
                }
            )
        if p <= q:
            eta[chain.simple_indices[p - 1] - 1] -= 1
    return CheckResult(
        "chains_coincide",
        not cx,
        cx,
        f"common set size {len(set(chain.simple_indices)) + 1}",
    )


def check_step_multiset(rs: RootSystem, top: TopChain, split: CaseSplit) -> CheckResult:
    """Multiset shape of the steps: in case 1 the last two coincide and the
    rest are distinct, with a single-edge prefix and a -3 pairing at the
    turn; in case 2 all steps are distinct, with the prefix chain when the
    first pairing is 1."""
    m = top.m
    if top.non_simple:
        return CheckResult(
            "step_multiset",
            False,
            [{"non_simple_steps": [list(d) for _, d in top.non_simple]}],
        )
    if m < 2:
        return _vacuous("step_multiset", "no steps when m = 1")
    cx: list = []
    note = ""
    steps = top.step_indices
    ext = rs.extended_graph
    if split.case == 1:
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
            base_size = len(set(steps)) + 1  # distinct steps plus -theta
            if base_size != m - 1:
                cx.append({"reason": "base set size must be m - 1", "size": base_size})
    else:
        if len(set(steps)) != len(steps):
            cx.append({"reason": "steps must be distinct", "steps": list(steps)})
        first = rs.pairing(top.roots[0], top.step(1))
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
    return CheckResult("step_multiset", not cx, cx, note)


def check_step_nonramification(rs: RootSystem, top: TopChain) -> CheckResult:
    """Every step before the last, together with the affine vertex, avoids
    ramification points of the extended graph."""
    m = top.m
    if m < 2:
        return _vacuous("step_nonramification", "m < 2")
    if top.non_simple:
        return CheckResult(
            "step_nonramification",
            False,
            [{"non_simple_steps": [list(d) for _, d in top.non_simple]}],
        )
    ext = rs.extended_graph
    vertices = [0] + list(top.step_indices[: m - 2])
    cx = [
        {"vertex": v, "degree": ext.degree(v)} for v in vertices if ext.degree(v) > 2
    ]
    return CheckResult("step_nonramification", not cx, cx, f"vertices {vertices}")


def check_differences(rs: RootSystem, top: TopChain, split: CaseSplit) -> CheckResult:
    """Pairwise differences along the top chain are positive roots, except
    the (m-2, m) pair in case 1, which must be twice a simple root."""
    m = top.m
    if m < 2:
        return _vacuous("differences", "m < 2")
    cx: list = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            diff = tuple(
                a - b for a, b in zip(top.roots[i - 1].coeffs, top.roots[j - 1].coeffs)
            )
            if split.case == 1 and {i, j} == {m - 2, m}:
                ok = sorted(diff) == [0] * (len(diff) - 1) + [2]
            else:
                ok = diff in rs
            if not ok:
                cx.append({"i": i, "j": j, "difference": list(diff)})
    return CheckResult("differences", not cx, cx)


def check_lengths(rs: RootSystem, top: TopChain, split: CaseSplit) -> CheckResult:
    """Length equalities along the top chain: through theta_{m-2} and the
    steps before the turn in case 1, one farther in case 2."""
    m = top.m
    if m < 3:
        return _vacuous("lengths", "m < 3")
    if top.non_simple:
        return CheckResult(
            "lengths",
            False,
            [{"non_simple_steps": [list(d) for _, d in top.non_simple]}],
        )
    cx: list = []
    if split.case == 1 and m < 4:
        cx.append({"reason": "case 1 forces m >= 4", "m": m})
        return CheckResult("lengths", False, cx)
    hi = m - 2 if split.case == 1 else m - 1
    values = [rs.norm_sq(top.roots[t - 1]) for t in range(1, hi + 1)]
    values += [
        rs.norm_sq(rs.simple_root(top.step(t))) for t in range(1, hi)
    ]
    if len(set(values)) > 1:
        cx.append({"norms": [str(v) for v in values]})
    return CheckResult("lengths", not cx, cx, f"{len(values)} norms compared")


# ---------------------------------------------------------------------------
# exhaustive root-poset scans
# ---------------------------------------------------------------------------

def check_string_descent(rs: RootSystem) -> CheckResult:
    """Whenever a positive root pairs to k in {2, 3} against a simple root
    other than itself, some other simple root can be subtracted after
    stepping down k - 1 times."""
    n = rs.rank
    cx: list = []
    checked = 0
    for beta in rs.positive_roots():
        for i in range(1, n + 1):
            k = rs.pairing(beta, i)
            if k not in (2, 3):
                continue
            if beta.height == 1:  # beta == alpha_i is the only height-1 hit
                continue
            checked += 1
            base = list(beta.coeffs)
            base[i - 1] -= k - 1
            found = False
            for j in range(1, n + 1):
                if j == i:
                    continue
                cand = tuple(
                    b - (1 if idx == j - 1 else 0) for idx, b in enumerate(base)
                )
                if cand in rs:
                    found = True
                    break
            if not found:
                cx.append({"beta": list(beta.coeffs), "alpha": i, "k": k})
    return CheckResult("string_descent", not cx, cx, f"{checked} applicable pairs")


def check_no_detour(rs: RootSystem) -> CheckResult:
    """When a root pairs to 3 against the only simple root it can step down
    by, there is no second simple root to step down through."""
    n = rs.rank
    cx: list = []
    checked = 0
    for beta in rs.positive_roots():
        droppable = [
            j
            for j in range(1, n + 1)
            if tuple(
                b - (1 if idx == j - 1 else 0) for idx, b in enumerate(beta.coeffs)
            )
            in rs
        ]
        for i in range(1, n + 1):
            if rs.pairing(beta, i) != 3 or droppable != [i]:
                continue
            checked += 1
            for j in range(1, n + 1):
                if j == i:
                    continue
                down = tuple(
                    b - (1 if idx == i - 1 else 0) - (1 if idx == j - 1 else 0)
                    for idx, b in enumerate(beta.coeffs)
                )
                if down in rs or tuple(-x for x in down) in rs:
                    cx.append({"beta": list(beta.coeffs), "alpha": i, "detour": j})
    return CheckResult("no_detour", not cx, cx, f"{checked} applicable pairs")


@dataclass(frozen=True)
class WeylOrbits:
    """The signed roots split into orbits under the simple reflections.

    ``escapes`` lists every (root, i, image) whose image under s_i is not
    a signed root; when it is empty the set is Weyl-stable and each orbit
    is a W-orbit, since the simple reflections generate W.
    """

    signed: tuple[tuple[int, ...], ...]
    representatives: tuple[tuple[int, ...], ...]
    escapes: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]


def weyl_orbits(rs: RootSystem) -> WeylOrbits:
    """Close the signed roots under s_i(v) = v - <v, alpha_i> alpha_i,
    keeping the first root met in each orbit as its representative."""
    pos = [r.coeffs for r in rs.positive_roots()]
    signed = pos + [tuple(-c for c in v) for v in pos]
    member = set(signed)
    seen: set[tuple[int, ...]] = set()
    reps = []
    escapes = []
    for start in signed:
        if start in seen:
            continue
        reps.append(start)
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for i, row in enumerate(rs.cartan.rows):
                p = sum(a * x for a, x in zip(row, v))
                if not p:
                    continue
                w = v[:i] + (v[i] - p,) + v[i + 1 :]
                if w not in member:
                    escapes.append((v, i + 1, w))
                elif w not in seen:
                    seen.add(w)
                    stack.append(w)
    return WeylOrbits(tuple(signed), tuple(reps), tuple(escapes))


def _not_weyl_stable(name: str, orbits: WeylOrbits) -> CheckResult:
    cx = [
        {"root": list(v), "reflection": i, "image": list(w)}
        for v, i, w in orbits.escapes[:COUNTEREXAMPLE_CAP]
    ]
    return CheckResult(
        name, False, cx, f"not Weyl-stable: {len(orbits.escapes)} reflected roots escape"
    )


def _orbit_count(count: int, kind: str) -> str:
    return f"{count} {kind}Weyl orbit{'' if count == 1 else 's'}"


def check_long_pair_positive(rs: RootSystem) -> CheckResult:
    """Signed root pairs whose difference is a root and which contain a long
    root have strictly positive inner product.

    Both conditions are Weyl-invariant, so the long root is fixed to one
    representative of each long orbit and only its partner is scanned.
    """
    orbits = weyl_orbits(rs)
    if orbits.escapes:
        return _not_weyl_stable("long_pair_positive", orbits)
    member = set(orbits.signed)
    form = rs.form
    max_norm = max(form.inner_int(v, v) for v in orbits.signed)
    long_reps = [r for r in orbits.representatives if form.inner_int(r, r) == max_norm]
    cx: list = []
    checked = 0
    for r in long_reps:
        for b in orbits.signed:
            if tuple(x - y for x, y in zip(r, b)) not in member:
                continue
            checked += 1
            if form.inner_int(r, b) <= 0 and len(cx) < COUNTEREXAMPLE_CAP:
                cx.append({"beta1": list(r), "beta2": list(b)})
    note = (
        f"exhaustive over {_orbit_count(len(long_reps), 'long ')}: "
        f"{len(orbits.signed)} signed roots, {checked} qualifying pairs"
    )
    return CheckResult("long_pair_positive", not cx, cx, note)


def check_two_of_three_sums(rs: RootSystem) -> CheckResult:
    """For signed root triples with nonzero pairwise sums whose total is a
    root, at least two of the pairwise sums are roots.

    Both conditions are Weyl-invariant, so the first root is fixed to one
    representative per orbit and every pair b <= c is scanned: O(orbits * N^2)
    instead of O(N^3).  Roots are encoded as integers linear in their
    coefficients, with a base wide enough that sums of three roots never
    collide, so vector sums become integer sums.
    """
    orbits = weyl_orbits(rs)
    if orbits.escapes:
        return _not_weyl_stable("two_of_three_sums", orbits)
    vs = orbits.signed
    base = 6 * max(abs(c) for v in vs for c in v) + 1
    powers = [base**k for k in range(rs.rank)]

    def key(v: tuple[int, ...]) -> int:
        return sum(c * p for c, p in zip(v, powers))

    keys = [key(v) for v in vs]
    member = set(keys)
    n = len(vs)
    checked = 0
    cx: list = []
    for r in orbits.representatives:
        kr = key(r)
        with_r = [kr + k for k in keys]
        for b in range(n):
            rb = with_r[b]
            if not rb:
                continue
            kb = keys[b]
            rb_root = rb in member
            for c in range(b, n):
                kc = keys[c]
                rc = with_r[c]
                bc = kb + kc
                if not rc or not bc or rb + kc not in member:
                    continue
                checked += 1
                roots = rb_root + (rc in member) + (bc in member)
                if roots < 2 and len(cx) < COUNTEREXAMPLE_CAP:
                    cx.append(
                        {"beta1": list(r), "beta2": list(vs[b]), "beta3": list(vs[c])}
                    )
    note = (
        f"exhaustive over {_orbit_count(len(orbits.representatives), '')}: "
        f"{n} signed roots, {checked} qualifying triples"
    )
    return CheckResult("two_of_three_sums", not cx, cx, note)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def check_exponents_agree(rep_a: ExponentReport, rep_b: ExponentReport) -> CheckResult:
    ok = (
        rep_a.exponents == rep_b.exponents
        and rep_a.coxeter_number == rep_b.coxeter_number
    )
    cx = (
        []
        if ok
        else [
            {
                rep_a.method: list(rep_a.exponents),
                rep_b.method: list(rep_b.exponents),
            }
        ]
    )
    return CheckResult("exponents_agree", ok, cx, f"h = {rep_a.coxeter_number}")


def check_exponent_duality(rep: ExponentReport, rs: RootSystem) -> CheckResult:
    results = check_duality(rep, rs)
    cx = [{"identity": r.name, "detail": r.detail} for r in results if not r.passed]
    return CheckResult("exponent_duality", not cx, cx, f"{len(results)} identities")


def check_single_mark_iff_single_top(rs: RootSystem, top: TopChain) -> CheckResult:
    ok = (rs.c_max() == 1) == (top.m == 1)
    cx = [] if ok else [{"c_max": rs.c_max(), "m": top.m}]
    return CheckResult("mark_one_iff_top_one", ok, cx)


@dataclass
class VerificationLedger:
    """Per-system record: headline numbers plus one result per check."""

    label: str
    rank: int
    c_max: int
    m2: int
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


def build_ledger(rs: RootSystem) -> VerificationLedger:
    """Run every check on one system, converting raised inconsistencies into
    failed results so batch runs always complete.

    A check whose input (the dual exponents, the top chain) could not be
    built is reported as blocked.  The headline m2 comes from the Coxeter
    route, which needs only the Cartan matrix.
    """
    if rs.rank < 2:
        raise InvalidArgumentError("rank >= 2 required; m2 is undefined at rank 1")
    rep_c = coxeter_exponents(rs.cartan)

    checks: dict[str, CheckResult] = {}

    def run(name, fn, blocked_by: str | None = None) -> None:
        if blocked_by:
            note = f"blocked: {blocked_by} unavailable"
            checks[name] = CheckResult(name, False, [], note)
            return
        try:
            checks[name] = fn()
        except Exception as exc:  # findings, not crashes
            checks[name] = CheckResult(name, False, [], f"error: {exc}")

    rep_d: ExponentReport | None = None
    top: TopChain | None = None
    split: CaseSplit | None = None

    def _agree() -> CheckResult:
        nonlocal rep_d
        rep_d = dual_partition(height_distribution(rs))
        return check_exponents_agree(rep_d, rep_c)

    def _build_top() -> CheckResult:
        nonlocal top
        top = top_chain(rs, rep_d)
        note = f"m = {top.m}, steps {top.step_indices}"
        if top.non_simple:
            return CheckResult(
                "top_chain",
                False,
                [{"non_simple_steps": [list(d) for _, d in top.non_simple]}],
                note,
            )
        return CheckResult("top_chain", True, [], note)

    def _split() -> CheckResult:
        nonlocal split
        split = classify_case(top, rs)
        witness = "" if split.witness is None else f", witness t = {split.witness}"
        return CheckResult("case_witness", True, [], f"case {split.case}{witness}")

    run("exponents_agree", _agree)
    no_dual = "dual exponents" if rep_d is None else None
    run("exponent_duality", lambda: check_exponent_duality(rep_d, rs), no_dual)
    run("top_chain", _build_top, no_dual)
    run("case_witness", _split, "top chain" if top is None or top.non_simple else None)
    no_split = "top chain" if split is None else None
    run("main_relation", lambda: check_main_relation(rs, rep_d, split), no_split)
    run("mark_chain", lambda: check_mark_chain(rs))
    run("chains_coincide", lambda: check_chains_coincide(rs, rep_d), no_dual)
    run("step_multiset", lambda: check_step_multiset(rs, top, split), no_split)
    run("step_nonramification", lambda: check_step_nonramification(rs, top), no_split)
    run("differences", lambda: check_differences(rs, top, split), no_split)
    run("lengths", lambda: check_lengths(rs, top, split), no_split)
    run(
        "mark_one_iff_top_one",
        lambda: check_single_mark_iff_single_top(rs, top),
        no_split,
    )
    run("string_descent", lambda: check_string_descent(rs))
    run("two_of_three_sums", lambda: check_two_of_three_sums(rs))
    run("long_pair_positive", lambda: check_long_pair_positive(rs))
    run("no_detour", lambda: check_no_detour(rs))

    return VerificationLedger(
        label=rs.label or "custom",
        rank=rs.rank,
        c_max=rs.c_max(),
        m2=rep_c.exponents[1],
        case=split.case if split else None,
        witness_t=split.witness if split else None,
        checks=checks,
    )


def g2_graph_report(rs: RootSystem) -> dict:
    """The two graph forms characterising G2: a single triple edge, and the
    affine vertex hanging by a single edge off the long simple root."""
    triple = rs.rank == 2 and rs.graph.edge_multiplicity(1, 2) == 3
    ok = False
    if rs.rank == 2:
        ext = rs.extended_graph
        long_idx = 1 if rs.is_long(rs.simple_root(1)) else 2
        ok = ext.neighbors(0) == (long_idx,) and ext.edge_multiplicity(0, long_idx) == 1
    return {"dynkin_triple_edge": triple, "affine_single_edge_to_long_root": ok}


def g2_criterion_report(ledgers: Iterable[VerificationLedger]) -> dict:
    """c_max = m2 - 2 must hold for G2 and fail everywhere else; the G2
    graph forms are checked alongside."""
    ledgers = list(ledgers)
    case1 = sorted(l.label for l in ledgers if l.case == 1)
    rel = sorted(l.label for l in ledgers if l.c_max == l.m2 - 2)
    has_g2 = any(l.label == "G2" for l in ledgers)
    graph = None
    if has_g2:
        from .roots import build_system

        graph = g2_graph_report(build_system("G2"))
    ok = (
        has_g2
        and case1 == ["G2"]
        and rel == ["G2"]
        and graph is not None
        and all(graph.values())
    )
    return {
        "pass": bool(ok),
        "case1_types": case1,
        "m2_minus_2_types": rel,
        "g2_graph": graph,
    }
