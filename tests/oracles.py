"""Independent oracles used only by the tests.

These deliberately avoid the package's layer-by-layer enumeration and
tabulated matrices: roots are produced by reflection closure, and small
Cartan matrices are recomputed from exact simple-root geometry.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from rootsys import CartanMatrix, symmetrizer


def reflection_closure(cartan: CartanMatrix) -> frozenset[tuple[int, ...]]:
    """Close the signed simple roots under all root reflections; return the
    positive half as coefficient tuples."""
    form = symmetrizer(cartan)
    B = form.int_gram
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
