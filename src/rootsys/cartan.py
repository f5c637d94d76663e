"""Cartan matrices, symmetrized bilinear forms, and Dynkin graphs.

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
  vertex of an extended graph is vertex 0.

Everything is exact: d and the form are integers, never floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidCartanError,
    InvalidTypeError,
)

FAMILIES = "ABCDEFG"

# Largest rank accepted anywhere: named types, validated matrices and the
# ``--max-rank`` sweep bound.  A type of rank l has up to l^2 positive roots
# and the verify scans grow about as l^4 (the B32 ledger takes about 0.1 s
# on a 2-vCPU host, and ``verify --all --max-rank 32`` 3-4 s), so this
# is the explicit resource bound; inputs above it are rejected before
# anything is built.
MAX_RANK = 32

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}
_EXACT_RANK = {"F": 4, "G": 2}


@dataclass(frozen=True)
class RankedType:
    """Family letter plus rank, e.g. D6."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidTypeError(
                f"unknown family {self.family!r}: must be one of {FAMILIES}"
            )
        if self.rank > MAX_RANK:
            raise InvalidTypeError(f"rank {self.rank} exceeds MAX_RANK = {MAX_RANK}")
        if self.family == "E":
            if self.rank not in (6, 7, 8):
                raise InvalidTypeError("family E requires rank in {6, 7, 8}")
            return
        if self.family in _EXACT_RANK and self.rank != _EXACT_RANK[self.family]:
            raise InvalidTypeError(
                f"family {self.family} requires rank = {_EXACT_RANK[self.family]}"
            )
        if self.rank < _MIN_RANK[self.family]:
            raise InvalidTypeError(
                f"family {self.family} requires rank >= {_MIN_RANK[self.family]}"
            )

    @classmethod
    def parse(cls, text: str) -> "RankedType":
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


def all_types(max_rank: int) -> list[RankedType]:
    """Every irreducible type with rank <= max_rank, in canonical order."""
    if not 1 <= max_rank <= MAX_RANK:
        raise InvalidArgumentError(f"max_rank must be between 1 and {MAX_RANK}")
    out: list[RankedType] = []
    for fam in FAMILIES:
        if fam == "E":
            ranks: Iterable[int] = (r for r in (6, 7, 8) if r <= max_rank)
        elif fam in _EXACT_RANK:
            ranks = (_EXACT_RANK[fam],) if _EXACT_RANK[fam] <= max_rank else ()
        else:
            ranks = range(_MIN_RANK[fam], max_rank + 1)
        out.extend(RankedType(fam, r) for r in ranks)
    return out


@dataclass(frozen=True)
class CartanMatrix:
    """Validated integer Cartan matrix; construct via build_cartan or validate_cartan."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def a(self, i: int, j: int) -> int:
        """Entry a[i][j] with 1-based indices."""
        return self.rows[i - 1][j - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _connected_components(rows: Sequence[Sequence[int]]) -> list[set[int]]:
    n = len(rows)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in range(n):
                # either direction counts, so malformed sign patterns still
                # get a sensible connectivity verdict
                if w != v and w not in comp and (rows[v][w] != 0 or rows[w][v] != 0):
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _propagate_d(rows: Sequence[Sequence[int]]) -> tuple[Fraction, ...] | None:
    # Walks the adjacency graph fixing d up to scale; returns None when two
    # walks disagree (only possible around a cycle).
    n = len(rows)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if j == i or rows[i][j] == 0:
                continue
            want = d[i] * Fraction(rows[i][j], rows[j][i])
            if d[j] is None:
                d[j] = want
                queue.append(j)
            elif d[j] != want:
                return None
    assert all(x is not None for x in d)
    return tuple(d)  # type: ignore[arg-type]


def _leading_minors_positive(sym: Sequence[Sequence[Fraction]]) -> bool:
    # Fraction-exact Gaussian elimination without pivoting: the pivots are
    # the ratios of consecutive leading principal minors, so the matrix is
    # positive definite iff every pivot stays positive.  Rows with a zero
    # below the pivot, and zero entries of the pivot row, change nothing and
    # are skipped; on a Dynkin tree few entries are nonzero.
    n = len(sym)
    m = [list(row) for row in sym]
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        support = [j for j in range(k, n) if m[k][j]]
        for i in range(k + 1, n):
            if m[i][k]:
                factor = m[i][k] / pivot
                for j in support:
                    m[i][j] -= factor * m[k][j]
    return True


def validate_cartan(raw: Sequence[Sequence[int]]) -> CartanMatrix:
    """Accept a raw integer matrix iff it is a Cartan matrix of finite type.

    Every violated invariant is reported by name in the raised
    InvalidCartanError: diagonal, sign, product-bound, decomposable,
    not-positive-definite.
    """
    n = len(raw)
    if n == 0 or any(len(row) != n for row in raw):
        raise InvalidArgumentError("expected a nonempty square matrix")
    if n > MAX_RANK:
        raise InvalidArgumentError(f"rank {n} exceeds MAX_RANK = {MAX_RANK}")
    if any(isinstance(x, bool) or not isinstance(x, int) for row in raw for x in row):
        raise InvalidArgumentError("expected integer entries")
    rows = tuple(tuple(row) for row in raw)

    violations: list[str] = []
    if any(rows[i][i] != 2 for i in range(n)):
        violations.append("diagonal")
    sign_ok = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0 or (rows[i][j] == 0) != (rows[j][i] == 0):
                sign_ok = False
    if not sign_ok:
        violations.append("sign")
    if any(
        rows[i][j] * rows[j][i] not in (0, 1, 2, 3)
        for i in range(n)
        for j in range(n)
        if i != j
    ):
        violations.append("product-bound")
    comps = _connected_components(rows)
    if len(comps) > 1:
        violations.append("decomposable")

    if sign_ok and len(comps) == 1:
        edges = sum(
            1 for i in range(n) for j in range(i + 1, n) if rows[i][j] != 0
        )
        if edges != n - 1:
            # A connected graph with a cycle contains an affine subdiagram,
            # which already kills positive definiteness.
            violations.append("not-positive-definite")
        else:
            d = _propagate_d(rows)
            assert d is not None  # trees cannot conflict
            sym = [[d[i] * a if a else 0 for a in rows[i]] for i in range(n)]
            if not _leading_minors_positive(sym):
                violations.append("not-positive-definite")

    if violations:
        raise InvalidCartanError(violations)
    return CartanMatrix(rows)


def build_cartan(t: RankedType | str) -> CartanMatrix:
    """Cartan matrix of the given type under the Bourbaki labeling.

    Short roots sit at the high indices in B (alpha_l), at the low indices
    in C (alpha_1 .. alpha_{l-1}), at indices 3, 4 in F4, and at index 1
    in G2.
    """
    if isinstance(t, str):
        t = RankedType.parse(t)
    n = t.rank
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

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


@dataclass(frozen=True)
class SymmetrizedForm:
    """Integer d with diag(d)*A symmetric and min(d) = 1; with the pairing
    table it gives (beta, gamma) = sum_i beta_i d_i <gamma, alpha_i>."""

    d: tuple[int, ...]


def symmetrizer(c: CartanMatrix) -> SymmetrizedForm:
    """The unique min-normalised d making diag(d)*A symmetric; for a Cartan
    matrix of finite type every d_i is an integer."""
    rows = c.rows
    ratios = _propagate_d(rows)
    if ratios is None:  # unreachable for validated matrices
        raise InternalInconsistencyError("validated matrix is not symmetrizable")
    low = min(ratios)
    scaled = [x / low for x in ratios]
    if any(x.denominator != 1 for x in scaled):
        raise InternalInconsistencyError("symmetrizer is not integral")
    d = tuple(x.numerator for x in scaled)
    pairs = ((i, j) for i in range(len(d)) for j in range(i))
    if any(d[i] * rows[i][j] != d[j] * rows[j][i] for i, j in pairs):
        raise InternalInconsistencyError("symmetrization failed")
    return SymmetrizedForm(d=d)


class DynkinGraph:
    """Simple roots joined by edges of multiplicity 1, 2, 3: a tree, except
    that the extended graph of type A is a cycle.

    Vertices are 1-based simple-root indices; an extended graph adds the
    affine vertex 0.
    """

    def __init__(
        self, vertices: tuple[int, ...], multiplicity: dict[frozenset[int], int]
    ) -> None:
        self.vertices = vertices
        self._mult = multiplicity
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for pair in multiplicity:
            a, b = tuple(pair)
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise InvalidArgumentError(f"unknown vertex {v}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._require(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edge_multiplicity(self, i: int, j: int) -> int:
        self._require(i)
        self._require(j)
        return self._mult.get(frozenset((i, j)), 0)

    def terminal_vertices(self) -> set[int]:
        return {v for v in self.vertices if self.degree(v) <= 1}

    def ramification_points(self) -> set[int]:
        return {v for v in self.vertices if self.degree(v) >= 3}

    def is_simple_chain(self, path: Sequence[int]) -> bool:
        """Whether path is a single-edge chain whose only attachment to the
        rest of the graph is at its last vertex.

        Consecutive vertices must be joined by single edges, non-consecutive
        vertices must be non-adjacent, and every vertex except the last must
        have all its neighbors inside the path.
        """
        if len(path) == 0:
            raise InvalidArgumentError("empty path")
        for v in path:
            self._require(v)
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if self.edge_multiplicity(a, b) != 1:
                return False
        members = set(path)
        pos = {v: k for k, v in enumerate(path)}
        for k, v in enumerate(path):
            for w in self.neighbors(v):
                if w in members:
                    if abs(pos[w] - k) != 1:
                        return False
                elif k != len(path) - 1:
                    return False
        return True

    def is_chain_graph(self) -> bool:
        """Whether the whole graph is a single-edge chain (type-A shape)."""
        if len(self.vertices) == 1:
            return True
        terminals = sorted(self.terminal_vertices())
        if len(terminals) != 2 or self.ramification_points():
            return False
        path = [terminals[0]]
        prev = None
        while path[-1] != terminals[1]:
            nxt = [w for w in self.neighbors(path[-1]) if w != prev]
            if len(nxt) != 1:
                return False
            prev = path[-1]
            path.append(nxt[0])
        return len(path) == len(self.vertices) and self.is_simple_chain(path)


def dynkin_graph(c: CartanMatrix) -> DynkinGraph:
    """Dynkin graph of a validated Cartan matrix."""
    n = c.rank
    mult: dict[frozenset[int], int] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = c.a(i, j) * c.a(j, i)
            if m:
                mult[frozenset((i, j))] = m
    g = DynkinGraph(tuple(range(1, n + 1)), mult)
    if len(mult) != n - 1 or len(_connected_components(c.rows)) != 1:
        raise InternalInconsistencyError("Dynkin graph of a valid matrix must be a tree")
    return g


def extended_dynkin_graph(
    c: CartanMatrix,
    form: SymmetrizedForm,
    highest_coeffs: Sequence[int],
) -> DynkinGraph:
    """Dynkin graph plus the affine vertex 0, standing for minus the highest
    root, attached to every simple root not orthogonal to it; edge
    multiplicities come from the same pairing rule as simple-root pairs.
    Requires rank >= 2 (the rank-1 affine diagram has no finite edge
    multiplicity).
    """
    if c.rank < 2:
        raise InvalidArgumentError("extended graph requires rank >= 2")
    base = dynkin_graph(c)
    theta = tuple(highest_coeffs)
    # <theta, alpha_i> = integer dot of row i with theta's coefficients, and
    # (alpha_i, theta) = d_i <theta, alpha_i>
    t = [sum(map(mul, row, theta)) for row in c.rows]
    theta_norm = sum(map(mul, theta, map(mul, form.d, t)))
    mult = dict(base._mult)
    for i, (d_i, t_i) in enumerate(zip(form.d, t), start=1):
        if t_i <= 0:
            continue
        u_i, rem = divmod(2 * d_i * t_i, theta_norm)
        if rem:
            raise InternalInconsistencyError("non-integral pairing against the highest root")
        mult[frozenset((0, i))] = t_i * u_i
    return DynkinGraph((0,) + base.vertices, mult)
