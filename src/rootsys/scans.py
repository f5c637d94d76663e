"""Exhaustive scans of the signed-root table for the paper's supporting
lemmas, and the CheckResult that every ledger check returns.

check_string_descent and check_no_detour walk the positive roots;
check_two_of_three_sums and check_long_pair_positive work on the Weyl
orbits of the signed roots, read off the dominant chamber (Humphreys,
Reflection Groups and Coxeter Groups, 1.12) as ``WeylOrbits`` says, and
report at most COUNTEREXAMPLE_CAP counterexamples.  Every scan looks roots
up by their packed keys in ``RootSystem.signed``.

The scans sit apart from the ledger in ``verify`` so that neither module
is large: an import without cached bytecode compiles the module, and the
memory the compiler takes, which the process keeps, grows with the size
of the module.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import mul
from typing import NamedTuple

from .roots import RootSystem

COUNTEREXAMPLE_CAP = 8


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    passed: bool
    counterexamples: list
    note: str = ""


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
    4c, inside the bound ``SignedRoots`` gives.  Nor a negative root -gamma:
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


class WeylOrbits(NamedTuple):
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
    in ``rs.signed``, whose 8-bit fields hold every such image, as
    ``SignedRoots`` says."""
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
    orbits = []
    for k in reps:
        J = {i for i, p in enumerate(positive[k]) if not p}
        outside = sum(0xFF * u for i, u in enumerate(unit) if i not in J)
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
    by its packed key in ``rs.signed``, whose 8-bit fields hold sums of two
    signed roots, as ``SignedRoots`` says.
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

    Both conditions are Weyl-invariant, so the first root r is fixed to
    each representative lambda, and the second, b, to one member of each
    W_J-orbit, counted with its size, while the third, c, runs over a
    height window of the signed roots, in C-level passes: O(orbits *
    stabilizer orbits * N) instead of O(N^3).  The ordered pairs (b, c) so
    counted, plus the diagonal ones (b, b), make twice the number of pairs
    b <= c.  Roots are the packed keys of ``rs.signed``, linear in the
    coefficients, so vector sums become integer sums; their 8-bit fields
    hold sums of up to three signed roots, as ``SignedRoots`` says, so
    those never collide.

    Height is linear too, and no member of any set, hand-built ones
    included, has |height| > H = ``rs.max_height``.  So with s = ht(r) +
    ht(b), r + b + c is a member only if |s + ht(c)| <= H: a positive c has
    height in [max(1, -H - s), min(H, H - s)], and a negative c has
    |height| in [max(1, s - H), min(H, H + s)].  ``rs.signed`` numbers the
    positive roots by height, then their negatives in the same order, so
    each range is one slice of the keys, found from the running sums of
    ``rs.layer_sizes``.  The positive slice comes first, so hits and
    counterexamples come in the order of a scan of every signed root.
    """
    if orbits.escapes:
        return _not_weyl_stable(rs, orbits)
    keys, member = rs.signed.keys, rs.signed.number
    has = member.__contains__
    ends = list(accumulate(rs.layer_sizes))  # ends[h]: the roots of height <= h
    H, half = rs.max_height, ends[-1]
    ht = [h for h, n in enumerate(rs.layer_sizes) for _ in range(n)]
    ht += [-h for h in ht]
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
            hits, s = 0, ht[r] + ht[b]
            # c > 0 of height lo..hi, then c < 0 of height -nlo..-nhi; an upper
            # end below 0 would index ends from the back and widen the slice
            lo, hi = max(1, -H - s), max(0, min(H, H - s))
            nlo, nhi = max(1, s - H), max(0, min(H, H + s))
            window = keys[ends[lo - 1] : ends[hi]] + keys[half + ends[nlo - 1] : half + ends[nhi]]
            for kc in compress(window, map(has, map(rb.__add__, window))):
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
