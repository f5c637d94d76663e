"""Independent oracles used only by the tests.

These deliberately avoid the package's packed enumeration and tabulated
matrices: roots are produced by reflection closure or by the successor
rule on plain tuples, small Cartan matrices are recomputed from exact
simple-root geometry, the gate's nonzero pattern and walk are read off
every entry, inner products come from a Gram matrix built here
rather than from the pairing table, the symmetrizer is found with
``Fraction`` ratios, the Coxeter element is a dense product of reflection
matrices, and the Weyl-orbit moves, the descent scans and the triple scan
look roots up by coefficient tuple or by an encoding as wide as the roots
at hand, never by the package's shared packed keys.

The corruption helpers at the end build hand-made systems that break one
property each: a root swapped for a non-root, dropped or added roots, a
truncation, the roots with their doubles, and a wrong symmetrizer; and
``corrupted_corpus`` draws a seeded corpus of them.
"""

from __future__ import annotations

import collections
import random
from fractions import Fraction
from itertools import compress, permutations
from math import isqrt
from operator import mul, or_

from rootsys import (
    CartanMatrix,
    CheckResult,
    InvalidArgumentError,
    InvalidCartanError,
    Root,
    RootSystem,
    SymmetrizedForm,
    build_system,
    enumerate_roots,
    symmetrizer,
    validate_cartan,
)
from rootsys.scans import COUNTEREXAMPLE_CAP, WeylOrbits, _not_weyl_stable


def gram(cartan: CartanMatrix, d) -> list[list[int]]:
    """Gram matrix of the simple roots, (alpha_i, alpha_j) = d_i * a[i][j]."""
    return [[di * a for a in row] for di, row in zip(d, cartan.rows)]


def inner(g, x, y) -> int:
    """(x, y) = sum_ij x_i g[i][j] y_j for coefficient vectors x, y."""
    return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, g) if xi)


def reflection_closure(cartan: CartanMatrix) -> frozenset[tuple[int, ...]]:
    """Close the signed simple roots under all root reflections; return the
    positive half as coefficient tuples."""
    B = gram(cartan, symmetrizer(cartan).d)
    n = cartan.rank

    entries: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()

    def add(v: tuple[int, ...]) -> None:
        if v in seen:
            return
        seen.add(v)
        bv = tuple(sum(B[i][j] * v[j] for j in range(n)) for i in range(n))
        norm = sum(x * y for x, y in zip(v, bv))
        entries.append((v, bv, norm))

    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        add(e)
        add(tuple(-c for c in e))

    i = 0
    while i < len(entries):
        v, bv, nv = entries[i]
        for j in range(i + 1):
            w, bw, nw = entries[j]
            k, r = divmod(2 * sum(x * y for x, y in zip(v, bw)), nw)
            assert r == 0, "pairing of roots must be integral"
            if k:
                add(tuple(a - k * b for a, b in zip(v, w)))
            k2, r2 = divmod(2 * sum(x * y for x, y in zip(w, bv)), nv)
            assert r2 == 0
            if k2:
                add(tuple(a - k2 * b for a, b in zip(w, v)))
        i += 1
    return frozenset(v for v, _, _ in entries if all(c >= 0 for c in v))


def tuple_scan_layers(cartan: CartanMatrix) -> list[list[tuple[int, ...]]]:
    """Positive roots by height, each layer sorted, from the successor rule
    on plain coefficient tuples: beta + alpha_i is a root exactly when the
    alpha_i-string below beta is longer than <beta, alpha_i>.  Layer 0 is
    empty."""
    n = cartan.rank
    columns = list(zip(*cartan.rows))
    layer = {tuple(int(k == i) for k in range(n)): columns[i] for i in range(n)}
    members = set(layer)
    layers = [[], sorted(layer)]
    while layer:
        assert len(layers) <= 10 * n, "height cap exceeded"
        nxt = {}
        for beta, pair in layer.items():
            for i, (b, pi) in enumerate(zip(beta, pair)):
                head, tail = beta[:i], beta[i + 1 :]
                p = 0
                while p < b and head + (b - p - 1,) + tail in members:
                    p += 1
                if p > pi:
                    nxt[head + (b + 1,) + tail] = tuple(
                        x + y for x, y in zip(pair, columns[i])
                    )
        members.update(nxt)
        layer = nxt
        if nxt:
            layers.append(sorted(nxt))
    return layers


def cartan_from_geometry(
    norm_sqs: list[int], cos_sq: dict[tuple[int, int], Fraction]
) -> list[list[int]]:
    """Cartan entries from squared lengths and squared cosines of the
    (obtuse) angles between adjacent simple roots; pairs not listed are
    orthogonal.  Entry rule: a[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i).
    """
    n = len(norm_sqs)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), c2 in cos_sq.items():
        prod_sq = Fraction(norm_sqs[i]) * norm_sqs[j] * c2
        assert prod_sq.denominator == 1, "geometry must give an integral product"
        root = isqrt(prod_sq.numerator)
        assert root * root == prod_sq.numerator, "product must be a perfect square"
        prod = -root
        for r, c in ((i, j), (j, i)):
            num = 2 * prod
            assert num % norm_sqs[r] == 0
            a[r][c] = num // norm_sqs[r]
    return a


def exact_det(m) -> Fraction:
    """Exact determinant by fraction arithmetic with partial pivoting."""
    n = len(m)
    mat = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            det = -det
        det *= mat[k][k]
        for r in range(k + 1, n):
            f = mat[r][k] / mat[k][k]
            for c in range(k, n):
                mat[r][c] -= f * mat[k][c]
    return det


def cartan_violations(m) -> tuple[str, ...]:
    """The invariants a square integer matrix breaks, named and ordered as
    InvalidCartanError names them, straight from the definitions:
    connectivity by closing the edge relation, and positive definiteness by
    Sylvester's criterion on the leading principal minors of A, whose signs
    are those of diag(d) A for any d > 0.  Only a sign-consistent connected
    matrix is tested for definiteness, and one with a cycle fails it."""
    n = len(m)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    sign_ok = all(m[i][j] <= 0 and (m[i][j] == 0) == (m[j][i] == 0) for i, j in off)
    reached = {0}
    while True:
        more = {j for i, j in off if i in reached and (m[i][j] or m[j][i])}
        if more <= reached:
            break
        reached |= more
    edges = sum(1 for i, j in off if i < j and m[i][j])
    definite = edges == n - 1 and all(
        exact_det([row[:k] for row in m[:k]]) > 0 for k in range(1, n + 1)
    )
    found = {
        "diagonal": any(m[i][i] != 2 for i in range(n)),
        "sign": not sign_ok,
        "product-bound": any(not 0 <= m[i][j] * m[j][i] <= 3 for i, j in off),
        "decomposable": len(reached) < n,
        "not-positive-definite": sign_ok and len(reached) == n and not definite,
    }
    return tuple(name for name, broken in found.items() if broken)


def dense_pattern(rows) -> tuple[tuple[int, ...], ...]:
    """Each row's nonzero columns, ascending, read entry by entry."""
    n = len(rows)
    return tuple(tuple(j for j in range(n) if rows[i][j]) for i in range(n))


def dense_walk(rows) -> tuple[list[int], list[int]]:
    """The gate's breadth-first walk read off all n^2 entries: from vertex
    0, taking an edge wherever an entry is nonzero in either direction,
    each vertex's neighbours in index order.  Returns the vertices reached,
    in walk order, and each vertex's parent (-1 for vertex 0 and unreached
    ones)."""
    n = len(rows)
    cols = list(zip(*rows))
    parent = [-1] * n
    order = [0]
    for v in order:  # order grows as the walk reaches new vertices
        for w in compress(range(n), map(or_, rows[v], cols[v])):
            if w and parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


_LEAF_EDGES = ((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1))


def fraction_symmetrizer(c: CartanMatrix) -> SymmetrizedForm:
    """``symmetrizer`` with Fraction ratios: d_v = d_parent * a_pv / a_vp
    along a breadth-first walk of the Dynkin tree from vertex 0, each
    vertex's neighbours taken in index order, then divided by the
    minimum."""
    rows = c.rows
    n = len(rows)
    ratios = {0: Fraction(1)}
    frontier = [0]
    for v in frontier:
        for w in range(n):
            if w not in ratios and rows[v][w]:
                ratios[w] = ratios[v] * Fraction(rows[v][w], rows[w][v])
                frontier.append(w)
    low = min(ratios.values())
    return SymmetrizedForm(d=tuple((ratios[v] / low).numerator for v in range(n)))


def tree_canon(rows) -> str:
    """Canonical string of a Cartan matrix whose graph is a tree: the
    Aho-Hopcroft-Ullman encoding of the tree hung from each vertex, every
    child prefixed by its edge (a_pc, a_cp), minimised over the root."""
    n = len(rows)

    def hung(v: int, parent: int) -> str:
        kids = sorted(
            f"{rows[v][w]},{rows[w][v]}{hung(w, v)}"
            for w in range(n)
            if w not in (v, parent) and rows[v][w]
        )
        return "(" + "".join(kids) + ")"

    return min(hung(root, -1) for root in range(n))


def finite_type_classes(max_rank: int) -> list[CartanMatrix]:
    """One Cartan matrix per isomorphism class of connected finite type, of
    rank 1 to max_rank, found without any table of types.  A finite-type
    graph is a tree and a principal submatrix of a positive definite matrix
    is positive definite, so every class of rank n arises from one of rank
    n - 1 by attaching a leaf to some vertex by one of the five edges in
    _LEAF_EDGES; validate_cartan filters, tree_canon dedupes."""
    level = {"()": CartanMatrix(((2,),))}
    out = list(level.values())
    for n in range(2, max_rank + 1):
        grown: dict[str, CartanMatrix] = {}
        for c in level.values():
            for v in range(n - 1):
                for a_vl, a_lv in _LEAF_EDGES:
                    m = [list(row) + [0] for row in c.rows] + [[0] * (n - 1) + [2]]
                    m[v][n - 1], m[n - 1][v] = a_vl, a_lv
                    try:
                        leafed = validate_cartan(m)
                    except InvalidCartanError:
                        continue
                    grown.setdefault(tree_canon(leafed.rows), leafed)
        level = grown
        out.extend(level.values())
    return out


def gen_payload(rs) -> dict:
    """What ``gen`` writes for rs, as plain dicts and lists: one
    {"coeffs", "height"} dict per positive root, sorted by height and then
    coefficients, the height summed here."""
    roots = sorted((r.coeffs for r in rs.positive_roots()), key=lambda c: (sum(c), c))
    theta = list(rs.highest_root().coeffs)
    return {
        "type": rs.label,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan.rows],
        "roots": [{"coeffs": list(c), "height": sum(c)} for c in roots],
        "highest_root": theta,
        "c_max": max(theta),
    }


def two_of_three_triples(rs) -> list[tuple[tuple, tuple, tuple, bool]]:
    """Every qualifying multiset {a, b, c} of signed roots (nonzero pairwise
    sums, total a root), by the plain O(N^3) scan, each with whether at
    least two of its pairwise sums are roots."""
    pos = [r.coeffs for r in rs.positive_roots()]
    vs = pos + [tuple(-x for x in v) for v in pos]
    member = set(vs)

    def add(x, y):
        return tuple(p + q for p, q in zip(x, y))

    out = []
    n = len(vs)
    for i in range(n):
        a = vs[i]
        for j in range(i, n):
            b = vs[j]
            ab = add(a, b)
            if not any(ab):
                continue
            for c in vs[j:]:
                if add(ab, c) not in member:
                    continue
                ac, bc = add(a, c), add(b, c)
                if not any(ac) or not any(bc):
                    continue
                roots = (ab in member) + (ac in member) + (bc in member)
                out.append((a, b, c, roots >= 2))
    return out


def _reflection_matrix(c: CartanMatrix, i: int) -> list[list[int]]:
    # s_i(alpha_j) = alpha_j - a[i][j] * alpha_i, so s_i is the identity
    # with row i of the Cartan matrix subtracted from row i.
    n = c.rank
    m = [[1 if r == k else 0 for k in range(n)] for r in range(n)]
    for j in range(n):
        m[i - 1][j] -= c.rows[i - 1][j]
    return m


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def coxeter_matrix(c: CartanMatrix, order=None) -> tuple[tuple[int, ...], ...]:
    """Dense matrix of the Coxeter element s_{o1} o s_{o2} o ... acting on
    the root space in simple-root coordinates; ``order`` defaults to the
    index-ascending product."""
    order = list(range(1, c.rank + 1) if order is None else order)
    m = _reflection_matrix(c, order[0])
    for i in order[1:]:
        m = _matmul(m, _reflection_matrix(c, i))
    return tuple(tuple(row) for row in m)


def coxeter_order(m, bound: int) -> int:
    """Multiplicative order of an integer matrix, by exact powering."""
    n = len(m)
    identity = [[1 if r == k else 0 for k in range(n)] for r in range(n)]
    p = [list(row) for row in m]
    for k in range(1, bound + 1):
        if p == identity:
            return k
        p = _matmul(p, [list(row) for row in m])
    raise AssertionError(f"matrix order not found within {bound}")


def pairing(rs, beta, gamma) -> int:
    """<beta, gamma> = 2(beta, gamma)/(gamma, gamma) for two roots, from the
    Gram matrix; it must be an integer."""
    g = gram(rs.cartan, rs.form.d)
    num = 2 * inner(g, beta.coeffs, gamma.coeffs)
    q, rem = divmod(num, inner(g, gamma.coeffs, gamma.coeffs))
    assert rem == 0, "pairing of roots must be integral"
    return q


def root_number(rs, coeffs) -> int:
    """The number of the positive root with these coefficients in the
    package's signed-root table: its place in positive_roots() order."""
    return [r.coeffs for r in rs.positive_roots()].index(tuple(coeffs))


def root_string(rs, beta, i: int) -> tuple[int, int]:
    """(p, q) with p = max k >= 0 such that beta - k*alpha_i is a root
    (negatives included) and q = max k >= 0 with beta + k*alpha_i a root."""
    if beta.coeffs not in rs:
        raise InvalidArgumentError(f"{beta.coeffs} is not a positive root here")
    idx = i - 1
    p = 0
    for k in range(1, beta.height + 2):
        down = tuple(c - k if j == idx else c for j, c in enumerate(beta.coeffs))
        if down in rs or tuple(-c for c in down) in rs:
            p = k
    q = 0
    for k in range(1, rs.max_height - beta.height + 1):
        up = tuple(c + k if j == idx else c for j, c in enumerate(beta.coeffs))
        if up in rs:
            q = k
    return p, q


def _form_pairing(g, v, i: int) -> int:
    """<v, alpha_i> = 2(v, alpha_i)/(alpha_i, alpha_i) from the integer Gram
    matrix, for a 0-based index i; it must be an integer."""
    q, rem = divmod(2 * sum(c * g[j][i] for j, c in enumerate(v)), g[i][i])
    assert rem == 0, "pairing against a simple root must be integral"
    return q


def form_pairings(rs, v) -> tuple[int, ...]:
    """(<v, alpha_1>, ..., <v, alpha_l>) from the Gram matrix, without the
    system's pairing table."""
    g = gram(rs.cartan, rs.form.d)
    return tuple(_form_pairing(g, v, i) for i in range(rs.rank))


def signed_roots(rs) -> list[tuple[int, ...]]:
    """The signed roots' coefficient tuples in the order the package numbers
    them: the positive roots in positive_roots() order, then their negatives."""
    pos = [r.coeffs for r in rs.positive_roots()]
    return pos + [tuple(-c for c in v) for v in pos]


def reflection_orbit(rs, v, gens) -> frozenset[tuple[int, ...]]:
    """The orbit of v under the simple reflections s_i, i in gens (1-based),
    by breadth-first search with reflections taken from the Gram matrix."""
    g = gram(rs.cartan, rs.form.d)
    seen = {tuple(v)}
    frontier = [tuple(v)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in gens:
                p = _form_pairing(g, w, i - 1)
                u = tuple(c - p if k == i - 1 else c for k, c in enumerate(w))
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def long_pairs(rs) -> list[tuple[tuple, tuple, bool]]:
    """Every ordered pair (a, b) of signed roots with a long and a - b a
    signed root, by the plain O(N^2) scan, each with whether (a, b) > 0."""
    pos = [r.coeffs for r in rs.positive_roots()]
    vs = pos + [tuple(-x for x in v) for v in pos]
    member = set(vs)
    g = gram(rs.cartan, rs.form.d)
    top = max(inner(g, v, v) for v in vs)
    return [
        (a, b, inner(g, a, b) > 0)
        for a in vs
        if inner(g, a, a) == top
        for b in vs
        if tuple(x - y for x, y in zip(a, b)) in member
    ]


def duality_identities(rep, rs) -> dict[str, bool]:
    """The five classical exponent identities for one system's report:
    opposite exponents sum to h, 1 = m_1 < m_2 <= ... < m_l, h = ht(theta)
    + 1, m_l = ht(theta), and the exponents sum to the number of positive
    roots."""
    ms, h = rep.exponents, rep.coxeter_number
    ht = rs.highest_root().height
    return {
        "pair-sums": all(a + b == h for a, b in zip(ms, reversed(ms))),
        "chain": ms == tuple(sorted(ms)) and ms[0] == 1 < ms[1] and ms[-2] < ms[-1],
        "coxeter-height": h == ht + 1,
        "top-exponent": ms[-1] == ht,
        "exponent-count": sum(ms) == rs.num_positive,
    }


def tuple_weyl_orbits(rs) -> WeylOrbits:
    """``verify.weyl_orbits`` with pairings from the Gram matrix, each
    reflected image looked up by its coefficient tuple: v[:i] + (v[i] - p,)
    + v[i + 1:], and each stabilizer's orbits closed over all 2N signed
    roots, negatives included, each as (least number, size)."""
    n = rs.rank
    vs = signed_roots(rs)
    pvs = [form_pairings(rs, v) for v in vs]
    number = {v: k for k, v in enumerate(vs)}
    moves = []
    for v, pv in zip(vs, pvs):
        row = []
        for i in compress(range(n), pv):
            p = pv[i]
            row.append((i, p, number.get(v[:i] + (v[i] - p,) + v[i + 1 :], -1)))
        moves.append(row)
    escapes = [(k, i, p) for k, m in enumerate(moves) for i, p, j in m if j < 0]
    if escapes:
        return WeylOrbits((), tuple(escapes))
    reps = tuple(k for k in range(len(vs) // 2) if min(pvs[k]) >= 0)
    stabilizer_orbits = []
    for r in reps:
        J = {i for i, p in enumerate(pvs[r]) if not p}
        seen = [False] * len(vs)
        orbits = []
        for start in range(len(vs)):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            size = 0
            while stack:
                k = stack.pop()
                size += 1
                for i, _, j in moves[k]:
                    if i in J and not seen[j]:
                        seen[j] = True
                        stack.append(j)
            orbits.append((start, size))
        stabilizer_orbits.append(tuple(orbits))
    return WeylOrbits(reps, (), tuple(stabilizer_orbits))


def _down(v: tuple[int, ...], i: int, k: int = 1) -> tuple[int, ...]:
    """v - k*alpha_i for a 1-based simple index i."""
    return v[: i - 1] + (v[i - 1] - k,) + v[i:]


def tuple_string_descent(rs) -> CheckResult:
    """``verify.check_string_descent`` with pairings from the Gram matrix
    and each root looked up by its coefficient tuple, built by slicing."""
    n = rs.rank
    cx: list = []
    checked = 0
    for beta in rs.positive_roots():
        if beta.height == 1:  # beta == alpha_i is the only height-1 hit
            continue
        for i, k in enumerate(form_pairings(rs, beta.coeffs), start=1):
            if k not in (2, 3):
                continue
            checked += 1
            base = _down(beta.coeffs, i, k - 1)
            if not any(_down(base, j) in rs for j in range(1, n + 1) if j != i):
                cx.append({"beta": list(beta.coeffs), "alpha": i, "k": k})
    return CheckResult(not cx, cx, f"{checked} applicable pairs")


def tuple_no_detour(rs) -> CheckResult:
    """``verify.check_no_detour`` with pairings from the Gram matrix and
    each root looked up by its coefficient tuple, built by slicing."""
    n = rs.rank
    cx: list = []
    checked = 0
    for beta in rs.positive_roots():
        c = beta.coeffs
        pv = form_pairings(rs, c)
        if 3 not in pv:
            continue
        droppable = [j for j in range(1, n + 1) if _down(c, j) in rs]
        for i, p in enumerate(pv, start=1):
            if p != 3 or droppable != [i]:
                continue
            checked += 1
            for j in range(1, n + 1):
                if j != i and _down(_down(c, i), j) in rs:
                    cx.append({"beta": list(beta.coeffs), "alpha": i, "detour": j})
    return CheckResult(not cx, cx, f"{checked} applicable pairs")


def based_two_of_three_sums(rs, orbits: WeylOrbits) -> CheckResult:
    """``verify.check_two_of_three_sums`` with roots encoded in base
    6 * (largest coefficient) + 1, wide enough that sums of three signed
    roots never collide."""
    if orbits.escapes:
        return _not_weyl_stable(rs, orbits)
    vs = signed_roots(rs)
    base = 6 * max(map(max, vs)) + 1
    powers = [base**k for k in range(rs.rank)]

    def key(v):
        return sum(map(mul, v, powers))

    keys = [key(v) for v in vs]
    member = set(keys)
    checked = 0
    cx: list = []
    for r, partners in zip(orbits.representatives, orbits.stabilizer_orbits):
        kr = key(vs[r])
        with_r = [kr + k for k in keys]
        ordered = diagonal = 0
        for b, size in partners:
            kb = key(vs[b])
            rb = kr + kb
            if not rb:
                continue
            rb_root = rb in member
            diagonal += size * (rb + kb in member)
            hits = 0
            for kc, rc, c in zip(keys, with_r, vs):
                bc = kb + kc
                if not rc or not bc or rb + kc not in member:
                    continue
                hits += 1
                roots = rb_root + (rc in member) + (bc in member)
                if roots < 2 and len(cx) < COUNTEREXAMPLE_CAP:
                    cx.append({"beta1": list(vs[r]), "beta2": list(vs[b]), "beta3": list(c)})
            ordered += size * hits
        checked += (ordered + diagonal) // 2
    n_orbits = len(orbits.representatives)
    note = (
        f"exhaustive over {n_orbits} Weyl orbit{'' if n_orbits == 1 else 's'}: "
        f"{len(vs)} signed roots, {checked} qualifying triples"
    )
    return CheckResult(not cx, cx, note)


def edited(rs, drop=(), add=()):
    """The system with the roots in drop removed and the vectors in add
    filed under their heights, each layer sorted."""
    layers = [list(layer) for layer in rs.layers]
    for c in drop:
        layers[sum(c)].remove(Root(c))
    for c in add:
        layers[sum(c)].append(Root(c))
    layers = tuple(tuple(sorted(layer, key=lambda r: r.coeffs)) for layer in layers)
    return RootSystem(rs.cartan, rs.form, layers, None)


def swap_one_root(rs, height):
    """Replace the first root of the given height that has a non-root one
    unit away (one unit moved between two coordinates) by that non-root,
    keeping every layer's size."""
    for root in rs.layer(height):
        c = root.coeffs
        for i, j in permutations(range(len(c)), 2):
            fake = tuple(x - (k == i) + (k == j) for k, x in enumerate(c))
            if c[i] > 0 and fake not in rs:
                return edited(rs, drop=[c], add=[fake])
    raise AssertionError(f"no non-root of height {height} is one move away")


def truncated(rs, height):
    """The roots of height at most the given one, whose layer must hold a
    single root."""
    return RootSystem(rs.cartan, rs.form, rs.layers[: height + 1], None)


def with_top(rs, coeffs):
    """The system's roots under a hand-built top root of the given
    coefficients, with empty layers up to its height."""
    h = sum(coeffs)
    layers = rs.layers + ((),) * (h - len(rs.layers)) + ((Root(coeffs),),)
    return RootSystem(rs.cartan, rs.form, layers, None)


def tall_a12():
    """A12's Cartan matrix and form, its 12 simple roots in the reflection
    closure's order, then one root of each height from 2 to 105,
    coefficients of at most 9: a hand-built system whose heights reach
    three digits."""
    a12 = build_system("A12")
    simple = [Root((0,) * i + (1,) + (0,) * (11 - i)) for i in reversed(range(12))]
    tall = [((9,) * (h // 9) + (h % 9,) + (0,) * 12)[:12] for h in range(2, 106)]
    layers = ((), tuple(simple)) + tuple((Root(coeffs),) for coeffs in tall)
    return RootSystem(a12.cartan, a12.form, layers, None)


def with_doubles(rs):
    """The roots together with their doubles: a Weyl-stable set on which
    the two-of-three lemma fails."""
    by_height = collections.defaultdict(list)
    for r in rs.positive_roots():
        by_height[r.height].append(r)
        by_height[2 * r.height].append(Root(tuple(2 * c for c in r.coeffs)))
    layers = ((),) + tuple(
        tuple(sorted(by_height[h], key=lambda r: r.coeffs))
        for h in range(1, max(by_height) + 1)
    )
    return RootSystem(rs.cartan, rs.form, layers, None)


def wrong_d(rs, d):
    """The same roots read with a wrong symmetrizer d: still Weyl-stable,
    since the pairing table comes from the Cartan rows alone, but every
    length and inner product is that of another bilinear form."""
    return RootSystem(rs.cartan, SymmetrizedForm(d=d), rs.layers, None)


def relabel(rs, perm):
    """The system enumerated afresh with its simple roots permuted."""
    rows = rs.cartan.rows
    return enumerate_roots(validate_cartan([[rows[a][b] for b in perm] for a in perm]))


CORPUS_TYPES = ("A3", "A5", "B3", "B5", "C3", "C4", "D4", "D5", "E6", "F4", "G2", "E7")
CORPUS_RELABELLINGS = 9  # seeded, besides the Bourbaki labelling


def corrupted_corpus(system):
    """(name, system) pairs: for each type, under its own labelling and
    seeded relabellings, a root swapped for a non-root at every height that
    has one a unit away, a seeded root dropped at every height below the
    top, a truncation at every height that holds a single root, a seeded
    wrong symmetrizer, and the roots with their doubles."""
    rng = random.Random(31)
    out = []
    for label in CORPUS_TYPES:
        base = system(label)
        for v in range(CORPUS_RELABELLINGS + 1):
            rs = base if v == 0 else relabel(base, rng.sample(range(base.rank), base.rank))
            tag = f"{label}/{v}"
            for h in range(1, rs.max_height + 1):
                try:
                    out.append((f"{tag} swap {h}", swap_one_root(rs, h)))
                except AssertionError:  # every move of a simple root is a root
                    pass
                if h < rs.max_height:
                    c = rng.choice(rs.layer(h)).coeffs
                    out.append((f"{tag} drop {h}", edited(rs, drop=[c])))
                if rs.layer_sizes[h] == 1:
                    out.append((f"{tag} cut {h}", truncated(rs, h)))
            d = tuple(rng.randint(1, 3) for _ in range(rs.rank))
            out.append((f"{tag} d {d}", wrong_d(rs, d)))
            out.append((f"{tag} doubles", with_doubles(rs)))
    return out
