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
and the Weyl orbits that ``scans`` reads off the dominant chamber; the
four scans of the whole signed-root table come from there.  The ledger's
checks come from one ordered registry, ``LEDGER_ROWS``, of (check_x,
needs) rows, where needs names the structures check_x takes, in order,
and x names the row; a ledger passes only when it holds every row and
each row passed.  Each row can fail with counterexamples of its own; a
condition that the structure builders or another row already enforce is
not given a row.  A check that raises is reported as an error.  A
structure whose builder raised is reported as an error by the first
check that needs it.  Every other check that needs a missing structure
is reported as blocked, naming that structure if its builder raised,
else the missing input that kept it from being built.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .cartan import symmetrizer
from .errors import InternalInconsistencyError, InvalidArgumentError
from .exponents import ExponentReport, coxeter_exponents, dual_partition
from .roots import RootSystem
from .scans import (
    CheckResult,
    check_long_pair_positive,
    check_no_detour,
    check_string_descent,
    check_two_of_three_sums,
    weyl_orbits,
)


# ---------------------------------------------------------------------------
# chain structures
# ---------------------------------------------------------------------------

def is_simple_chain(ext: tuple[dict[int, int], ...], path: Sequence[int]) -> bool:
    """Whether path is a single-edge chain of the extended graph ext, as
    ``RootSystem.extended_graph`` gives it, whose only attachment to the
    rest of the graph is at its last vertex: consecutive vertices are
    joined by single edges, non-consecutive ones are not adjacent, and
    every vertex but the last has all its neighbours inside the path."""
    pos = {v: k for k, v in enumerate(path)}
    if len(pos) != len(path) or any(ext[a].get(b) != 1 for a, b in zip(path, path[1:])):
        return False
    last = len(path) - 1
    return all(
        abs(pos[w] - k) == 1 if w in pos else k == last
        for k, v in enumerate(path)
        for w in ext[v]
    )


class MarkChain(NamedTuple):
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
    c = rs.highest_root()
    cmax = max(c)
    if cmax == 1:
        return MarkChain((), (1,))

    ext = rs.extended_graph
    if len(ext[0]) != 1:
        raise InternalInconsistencyError(
            "affine vertex must attach at exactly one vertex when c_max >= 2"
        )
    dist, parent = {0: 0}, {}
    frontier = [0]
    for v in frontier:  # grows as the walk goes
        for w in ext[v]:
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
    if not is_simple_chain(ext, path[:-1]):
        raise InternalInconsistencyError(
            f"prefix {path[:-1]} of the mark chain is not a simple chain"
        )
    if len(indices) == 1:
        end_pairing = -rs.signed.pairings[-1][indices[0] - 1]  # theta's, numbered last
    else:
        s, t = indices[-2], indices[-1]
        end_pairing = rs.cartan.a(t, s)
    if end_pairing not in (-2, -3) and len(ext[indices[-1]]) < 3:
        raise InternalInconsistencyError(
            f"mark chain ends with pairing {end_pairing} at a non-ramification point"
        )
    return MarkChain(indices, marks)


class TopChain(NamedTuple):
    """Roots of height above m_{l-1}, descending, as coefficient tuples,
    with their numbers in ``RootSystem.signed``; the simple index of each
    consecutive difference; and the case: 1 when theta_t pairs to 3
    against step t at the witness t = m - 2, else 2 with no witness."""

    roots: tuple[tuple[int, ...], ...]
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
    roots = tuple(map(rs.signed.coeffs, numbers))
    pairings = rs.signed.pairings
    steps: list[int] = []
    witnesses: list[int] = []
    for t in range(1, m):
        diff = tuple(a - b for a, b in zip(roots[t - 1], roots[t]))
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
    return TopChain(roots, tuple(numbers), tuple(steps), case, witness)


# ---------------------------------------------------------------------------
# chain and relation checks
# ---------------------------------------------------------------------------

def _vacuous(why: str) -> CheckResult:
    return CheckResult(True, [], f"vacuous: {why}")


def check_mark_chain(rs: RootSystem, chain: MarkChain) -> CheckResult:
    """Mark-chain shape (mark_chain verifies it while building); for
    c_max = 1 additionally the chain form of the whole graph with the
    affine vertex on its terminals.  A graph of rank >= 2 whose terminal
    count is not 2 is not a chain, so that count needs no test of its own."""
    cx: list = []
    if rs.c_max() == 1 and rs.rank >= 2:
        ext = rs.extended_graph
        # the Dynkin graph, ext without vertex 0, is a tree: so it is a chain
        # iff no vertex has more than two neighbours in it and every edge is
        # single, and its terminals are the vertices with at most one
        base = [{w: mult for w, mult in adjacent.items() if w} for adjacent in ext[1:]]
        if any(len(adjacent) > 2 or set(adjacent.values()) - {1} for adjacent in base):
            cx.append({"reason": "coefficient 1 everywhere but the graph is not a chain"})
        terminals = {v for v, adjacent in enumerate(base, 1) if len(adjacent) <= 1}
        if set(ext[0]) != terminals:
            cx.append(
                {
                    "reason": "affine vertex must attach exactly at the terminals",
                    "affine_neighbors": sorted(ext[0]),
                    "terminals": sorted(terminals),
                }
            )
    return CheckResult(not cx, cx, f"vertices {chain.vertices}, marks {chain.marks}")


def check_main_relation(rs: RootSystem, top: TopChain, rep: ExponentReport) -> CheckResult:
    """c_max = m2 - 2 in case 1 and m2 - 1 in case 2, and case 1 holds iff
    the long/short squared-length ratio is 3, iff the Dynkin graph has a
    triple edge (some a_ij * a_ji = 3), which is what type G2 means.  The
    ratio is max(d), since min(d) = 1, when d is the symmetrizer of the
    Cartan matrix, the one min-normalised d that makes diag(d) * A
    symmetric; a system carrying another d fails here.  All of it comes
    from the system, never from its label."""
    cmax = rs.c_max()
    m2 = rep.exponents[1]
    ratio = max(rs.form.d)
    symmetrizes = rs.form.d == symmetrizer(rs.cartan).d
    rows, nonzero = rs.cartan.rows, rs.cartan.nonzero
    triple = any(rows[i][j] * rows[j][i] == 3 for i, cols in enumerate(nonzero) for j in cols)
    expected = m2 - 2 if top.case == 1 else m2 - 1
    ok = symmetrizes and cmax == expected and (top.case == 1) == (ratio == 3) == triple
    cx = [] if ok else [{
        "c_max": cmax, "m2": m2, "case": top.case, "ratio": ratio, "triple_edge": triple,
        "d_is_symmetrizer": symmetrizes,
    }]
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
            if not is_simple_chain(ext, path):
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
            if not is_simple_chain(ext, path):
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
    cx = [{"vertex": v, "degree": len(ext[v])} for v in vertices if len(ext[v]) > 2]
    return CheckResult(not cx, cx, f"vertices {vertices}")


def check_differences(rs: RootSystem, top: TopChain) -> CheckResult:
    """Pairwise differences along the top chain are positive roots, except
    the (m-2, m) pair in case 1, which must be twice a simple root.

    theta_i - theta_j is looked up by its key, the difference of the two
    roots' keys, in ``rs.signed``.  Its coordinates lie in [-c, c], c the
    largest coefficient, so they differ from a signed root's by at most
    2c, inside the bound ``SignedRoots`` gives: a key found is that very
    root's.  It is a positive root's, since theta_i - theta_j has height
    j - i > 0."""
    m = top.m
    if m < 2:
        return _vacuous("m < 2")
    keys, number = rs.signed.keys, rs.signed.number
    cx: list = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            diff = tuple(a - b for a, b in zip(top.roots[i - 1], top.roots[j - 1]))
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
# ledger
# ---------------------------------------------------------------------------

def check_exponents_agree(rep_a: ExponentReport, rep_b: ExponentReport) -> CheckResult:
    ok = (rep_a.exponents, rep_a.coxeter_number) == (rep_b.exponents, rep_b.coxeter_number)
    cx = [] if ok else [{r.method: list(r.exponents) for r in (rep_a, rep_b)}]
    return CheckResult(ok, cx, f"h = {rep_a.coxeter_number}")


# The ledger's rows in order: (check_x, the structures it takes) for row x.
LEDGER_ROWS = (
    (check_exponents_agree, ("dual exponents", "coxeter exponents")),
    (check_main_relation, ("system", "top chain", "dual exponents")),
    (check_mark_chain, ("system", "mark chain")),
    (check_chains_coincide, ("mark chain", "top chain")),
    (check_step_multiset, ("system", "top chain")),
    (check_step_nonramification, ("system", "top chain")),
    (check_differences, ("system", "top chain")),
    (check_lengths, ("system", "top chain")),
    (check_string_descent, ("system",)),
    (check_two_of_three_sums, ("system", "Weyl orbits")),
    (check_long_pair_positive, ("system", "Weyl orbits")),
    (check_no_detour, ("system",)),
)
ROW_NAMES = frozenset(check.__name__.removeprefix("check_") for check, _ in LEDGER_ROWS)


class VerificationLedger(NamedTuple):
    """Per-system record: headline numbers plus one result per check."""

    label: str
    c_max: int
    m2: int | None
    case: int | None
    witness_t: int | None
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        """Whether the ledger holds exactly the rows of LEDGER_ROWS, each
        passed: an empty or partial ledger does not pass."""
        return self.checks.keys() == ROW_NAMES and all(c.passed for c in self.checks.values())

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
    for check, needs in LEDGER_ROWS:
        name = check.__name__.removeprefix("check_")
        gone = next((n for n in needs if n not in have), None)
        if gone in raised:
            note = f"error: {raised.pop(gone)}"
        elif gone is not None:
            note = f"blocked: {lacks[gone]} unavailable"
        else:
            try:
                # by name at call time, so a wrapper set on the module after
                # import (a profiler's, a tracer's) is the one called
                checks[name] = globals()[check.__name__](*(have[n] for n in needs))
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
