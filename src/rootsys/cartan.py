"""Cartan matrices and symmetrized bilinear forms.

Conventions, fixed here and relied on by every other module:

* Simple roots carry the Bourbaki plate numbering.  Chains are numbered
  left to right; in D the two fork vertices are the last two indices; in
  E the branch vertex is index 2, attached to index 4 of the long chain.
* Matrix entries are ``a[i][j] = 2(alpha_i, alpha_j) / (alpha_i, alpha_i)``,
  i.e. row i is the coroot of alpha_i paired against every simple root.
  Under this convention ``diag(d) . A`` is exactly the Gram matrix of the
  simple roots when ``d_i`` is half the squared length of ``alpha_i``, so
  every inner product is ``(beta, gamma) = sum_i beta_i d_i <gamma, alpha_i>``.
* ``d`` is normalised so that ``min(d_i) = 1``: short roots get d = 1
  (squared length 2), long roots get the squared-length ratio (2 or 3).
* Simple-root indices are 1-based throughout the public API.  The affine
  vertex of an extended graph is vertex 0.  Its edges need the highest
  root, so ``RootSystem.extended_graph`` builds that graph, reading the
  edges between simple roots off the rows of the matrix.

A finite-type Dynkin graph is a tree (Humphreys, Lie Algebras, 11.4), so
one breadth-first walk of it gives connectivity, d along its edges and, in
reverse, a leaf-first pivot order; the ``CartanMatrix`` gate and
``symmetrizer`` share it.  A tree on n vertices has at most 3n - 2 nonzero
entries of the n^2, so the gate reads the entries only in C-level passes,
records each row's nonzero columns as ``nonzero``, and runs its own
checks and the walk over those; the symmetrizer, the Coxeter power,
``enumerate_roots``, the signed-root pairings, the extended graph and the
triple-edge test read the entries through ``nonzero`` too.

Everything is exact: d and the form are integers, and the pivots and the
ratios of d are carried as integer numerator/denominator pairs.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import lcm
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import (
    InvalidArgumentError,
    InvalidCartanError,
    InvalidTypeError,
)

FAMILIES = "ABCDEFG"

# Largest rank accepted anywhere: named types, validated matrices and the
# ``--max-rank`` sweep bound.  A type of rank l has up to l^2 positive roots
# and the verify scans grow about as l^4 (on a shared 2-vCPU Intel Xeon
# host with CPython 3.11.7, in process, the B32 ledger of an enumerated
# system takes about 0.01 s and ``verify --all --max-rank 32`` 0.4-0.5 s),
# so this is the explicit resource bound; inputs above it are rejected
# before anything is built.
MAX_RANK = 32

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}
_EXACT_RANK = {"F": 4, "G": 2}


class RankedType(tuple):
    """Family letter plus rank, e.g. D6: the pair (family, rank), equal to
    and hashed as that plain tuple.  ``__new__`` is the gate: a family
    that is not one of the letters of FAMILIES, a rank that is not an int
    (a bool included) and a rank outside the family's range raise
    InvalidTypeError."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> RankedType:
        # a tuple compares by ==, so a non-str or a longer str is refused,
        # where str's `in` would find a substring
        if family not in tuple(FAMILIES):
            raise InvalidTypeError(f"unknown family {family!r}: must be one of {FAMILIES}")
        if not _is_int(rank):
            raise InvalidTypeError(f"rank must be an int, got {rank!r}")
        if rank > MAX_RANK:
            raise InvalidTypeError(f"rank {rank} exceeds MAX_RANK = {MAX_RANK}")
        refusal = _rank_refusal(family, rank)
        if refusal:
            raise InvalidTypeError(refusal)
        return tuple.__new__(cls, (family, rank))

    family = property(itemgetter(0))
    rank = property(itemgetter(1))

    def __repr__(self) -> str:
        return "RankedType(family=%r, rank=%r)" % self

    def __reduce__(self):  # pickle protocols 0 and 1 would skip the gate
        return RankedType, tuple(self)

    @classmethod
    def parse(cls, text: str) -> "RankedType":
        if not isinstance(text, str):
            raise InvalidTypeError(f"cannot parse type {text!r}: expected a str")
        text = text.strip()
        digits = text[1:]
        if len(text) < 2 or not (digits.isascii() and digits.isdigit()):
            raise InvalidTypeError(
                f"cannot parse type {text!r}: expected a family letter followed by a rank"
            )
        try:
            rank = int(digits)
        except ValueError as exc:  # more digits than int() accepts
            raise InvalidTypeError(f"rank exceeds MAX_RANK = {MAX_RANK}") from exc
        return cls(text[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _is_int(x) -> bool:
    """Whether x is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rank_refusal(family: str, rank: int) -> str | None:
    """Why a type of this family cannot have this rank, or None when it can:
    the one rule that RankedType enforces and all_types lists by."""
    if family == "E":
        return None if rank in (6, 7, 8) else "family E requires rank in {6, 7, 8}"
    if family in _EXACT_RANK and rank != _EXACT_RANK[family]:
        return f"family {family} requires rank = {_EXACT_RANK[family]}"
    if rank < _MIN_RANK[family]:
        return f"family {family} requires rank >= {_MIN_RANK[family]}"
    return None


def all_types(max_rank: int) -> list[RankedType]:
    """Every irreducible type with rank <= max_rank, in canonical order:
    family by family, each family's ranks ascending."""
    if not (_is_int(max_rank) and 1 <= max_rank <= MAX_RANK):
        raise InvalidArgumentError(f"max_rank must be an int between 1 and {MAX_RANK}")
    return [
        RankedType(fam, r)
        for fam in FAMILIES
        for r in range(1, max_rank + 1)
        if _rank_refusal(fam, r) is None
    ]


class CartanMatrix(tuple):
    """An integer Cartan matrix of finite type: ``__new__`` is the one
    gate, run once by every way of making one (``CartanMatrix(rows)``,
    ``validate_cartan``, ``build_cartan``), and it stores ``rows`` as a
    tuple of tuples.  So every Dynkin graph here is a tree with at most one
    multiple edge, and every root system is finite.

    ``nonzero[i]`` holds the columns j with a_ij != 0, ascending, the
    diagonal included: the pattern every reader past the gate goes
    through instead of scanning all n^2 entries.  A matrix is the pair
    (rows, nonzero), equal to and hashed as that plain tuple; the gate
    derives ``nonzero`` from the rows, so equality and hashing follow
    ``rows``, and ``repr`` shows ``rows`` alone."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> CartanMatrix:
        """Accept the rows iff they form a Cartan matrix of finite type.

        Malformed input (not a nonempty square of integers, or rank above
        MAX_RANK) raises InvalidArgumentError.  Otherwise every violated
        invariant is reported by name in the raised InvalidCartanError:
        diagonal, sign, product-bound, decomposable, not-positive-definite.
        All n^2 entries are read only by C-level passes: the integer check,
        the diagonal count and one ``compress`` per row for ``nonzero``;
        the sign and product bound, the walk and the pivots read the
        nonzero entries alone.

        One walk of the graph decides the last two.  The matrix is
        decomposable when the walk misses a vertex.  A connected graph with
        a cycle contains an affine subdiagram, which already kills positive
        definiteness.  On a sign-consistent tree the leaves are eliminated
        first, in reversed walk order: each vertex's pivot is final once its
        children are gone, and eliminating it lowers only its parent's
        pivot, by a_pv * a_vp / pivot_v.  These are the pivots of A; those
        of the symmetric diag(d) * A are d_v times them, and d > 0, so
        diag(d) * A is positive definite iff every pivot stays positive.
        Neither d nor diag(d) * A is needed.  Each pivot is carried as an
        integer numerator over a denominator, the product of its children's
        numerators; that stays positive for as long as the pivots do, so
        the sign of a pivot is the sign of its numerator.
        """
        n = len(rows) if hasattr(rows, "__len__") else 0
        if n == 0 or any(not hasattr(row, "__len__") or len(row) != n for row in rows):
            raise InvalidArgumentError("expected a nonempty square matrix")
        if n > MAX_RANK:
            raise InvalidArgumentError(f"rank {n} exceeds MAX_RANK = {MAX_RANK}")
        rows = tuple(map(tuple, rows))
        flat = tuple(chain.from_iterable(rows))
        # exact ints pass at once; an int subclass other than bool still does
        if set(map(type, flat)) != {int} and (
            not all(map(isinstance, flat, repeat(int)))
            or any(map(isinstance, flat, repeat(bool)))
        ):
            raise InvalidArgumentError("expected integer entries")

        violations: list[str] = []
        if flat[:: n + 1].count(2) != n:
            violations.append("diagonal")
        nonzero = nonzero_pattern(rows)
        # (a_ij, a_ji) for each nonzero a_ij off the diagonal
        pairs = [
            (rows[i][j], rows[j][i]) for i, cols in enumerate(nonzero) for j in cols if j != i
        ]
        sign_ok = all(a < 0 and b for a, b in pairs)
        if not sign_ok:
            violations.append("sign")
        if any(a * b not in (0, 1, 2, 3) for a, b in pairs):
            violations.append("product-bound")
        order, parent = _walk(nonzero)
        if len(order) < n:
            violations.append("decomposable")
        elif sign_ok and len(pairs) != 2 * (n - 1):
            violations.append("not-positive-definite")
        elif sign_ok:
            # pivot v is num[v] / den[v], with den[v] > 0 while the pivots stay positive
            num, den = list(flat[:: n + 1]), [1] * n
            for v in reversed(order[1:]):
                if num[v] <= 0:
                    break
                p = parent[v]
                num[p] = num[p] * num[v] - rows[p][v] * rows[v][p] * den[p] * den[v]
                den[p] *= num[v]
            if min(num) <= 0:
                violations.append("not-positive-definite")

        if violations:
            raise InvalidCartanError(violations)
        return tuple.__new__(cls, (rows, nonzero))

    rows = property(itemgetter(0))
    nonzero = property(itemgetter(1))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"CartanMatrix(rows={self.rows!r})"

    def __reduce__(self):  # pickle protocols 0 and 1 would skip the gate
        return CartanMatrix, (self.rows,)

    def a(self, i: int, j: int) -> int:
        """Entry a[i][j] with 1-based indices."""
        return self.rows[i - 1][j - 1]


def nonzero_pattern(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """For each row i, the columns j with a_ij != 0, ascending: one
    C-level pass per row."""
    return tuple(map(tuple, map(compress, repeat(range(len(rows))), rows)))


def _walk(nonzero: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Breadth-first walk from vertex 0 over a nonzero pattern, taking an
    edge wherever an entry is nonzero in either direction, so malformed
    sign patterns still get a sensible connectivity verdict; neighbours
    are taken in ascending order.  Where row v's pattern equals column
    v's, as on every sign-consistent matrix, it is the neighbour list as
    it stands.  Returns the vertices reached, in walk order, and each
    vertex's parent (-1 for vertex 0 and unreached ones)."""
    n = len(nonzero)
    below: list[list[int]] = [[] for _ in nonzero]  # column j's nonzero rows, ascending
    for i, cols in enumerate(nonzero):
        for j in cols:
            below[j].append(i)
    parent = [-1] * n
    order = [0]
    for v in order:  # order grows as the walk reaches new vertices
        cols = nonzero[v]
        for w in cols if tuple(below[v]) == cols else sorted({*cols, *below[v]}):
            if w and parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def validate_cartan(raw: Sequence[Sequence[int]]) -> CartanMatrix:
    """Accept a raw integer matrix iff it is a Cartan matrix of finite type:
    the named entry for raw input, running the gate of ``CartanMatrix``."""
    return CartanMatrix(raw)


def build_cartan(t: RankedType | str) -> CartanMatrix:
    """Cartan matrix of the given type under the Bourbaki labeling.

    Short roots sit at the high indices in B (alpha_l), at the low indices
    in C (alpha_1 .. alpha_{l-1}), at indices 3, 4 in F4, and at index 1
    in G2.  Anything but a RankedType or a str raises InvalidArgumentError.
    """
    if isinstance(t, str):
        t = RankedType.parse(t)
    elif not isinstance(t, RankedType):
        raise InvalidArgumentError(f"expected a RankedType or a str, got {t!r}")
    n = t.rank
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2

    def join(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        rows[i - 1][j - 1] = aij
        rows[j - 1][i - 1] = aji

    fam = t.family
    if fam in "ABCF":
        for i in range(1, n):
            join(i, i + 1)
        if fam == "B":
            join(n - 1, n, -1, -2)  # alpha_n short
        elif fam == "C":
            join(n - 1, n, -2, -1)  # alpha_n long
        elif fam == "F":
            join(2, 3, -1, -2)  # alpha_3, alpha_4 short
    elif fam == "D":
        for i in range(1, n - 1):
            join(i, i + 1)
        join(n - 2, n)
    elif fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            join(a, b)
        join(2, 4)
    else:  # G
        join(1, 2, -3, -1)  # alpha_1 short

    return validate_cartan(rows)


class SymmetrizedForm(NamedTuple):
    """Integer d with diag(d)*A symmetric and min(d) = 1; with the pairing
    table it gives (beta, gamma) = sum_i beta_i d_i <gamma, alpha_i>."""

    d: tuple[int, ...]


def symmetrizer(c: CartanMatrix) -> SymmetrizedForm:
    """The unique min-normalised d making diag(d)*A symmetric.

    d is fixed up to scale along the walk of the Dynkin tree, by
    d_v = d_parent * a_pv / a_vp, then divided by its minimum.  The walk
    takes every edge of the tree, so diag(d)*A is symmetric.  Each ratio
    d_v / d_0 is carried as an integer fraction of products of negated
    entries; over their least common denominator they become integers,
    which divide exactly by the smallest.  Every d_i is an integer: the
    tree has at most one multiple edge, whose entries stand in ratio k = 2
    or 3, so the scaled d takes only the values 1 and k.
    """
    rows = c.rows
    order, parent = _walk(c.nonzero)
    num, den = [1] * len(rows), [1] * len(rows)
    for v in order[1:]:
        p = parent[v]
        num[v], den[v] = num[p] * -rows[p][v], den[p] * -rows[v][p]
    scale = lcm(*den)
    ratios = [a * (scale // b) for a, b in zip(num, den)]
    low = min(ratios)
    return SymmetrizedForm(d=tuple(x // low for x in ratios))
