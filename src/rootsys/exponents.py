"""Weyl-group exponents by two independent routes: the dual partition of
the height distribution (the sizes of a root system's height layers), and
the eigenvalues of a Coxeter element.

Both routes are exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .cartan import CartanMatrix, Frozen
from .errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
    NumericInconsistencyError,
)
from .roots import RootSystem

# Bounds the entries of a Coxeter power, which are root coordinates: no
# finite system of rank l has a root of height above 10 * l.
HEIGHT_CAP_FACTOR = 10

DUAL_PARTITION = "dual-partition"
COXETER_EIGENVALUES = "coxeter-eigenvalues"


class ExponentReport(Frozen):
    """Sorted exponent multiset with the Coxeter number and its provenance."""

    __slots__ = ("exponents", "coxeter_number", "method")
    _compared = __slots__

    def __init__(self, exponents: tuple[int, ...], coxeter_number: int, method: str) -> None:
        h, ms = coxeter_number, exponents
        if tuple(sorted(ms)) != ms:
            raise InternalInconsistencyError("exponents must be sorted")
        if not ms or ms[0] != 1 or ms[-1] != h - 1 or any(not 0 < m < h for m in ms):
            raise InternalInconsistencyError(
                f"exponent multiset {ms} out of shape for h = {h}"
            )
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coxeter_number", coxeter_number)
        object.__setattr__(self, "method", method)

    def to_json_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "h": self.coxeter_number,
            "method": self.method,
        }


def dual_partition(rs: RootSystem) -> ExponentReport:
    """Read the exponents off the height distribution, t_r = the number of
    positive roots of height r: the exponent a has multiplicity
    t_a - t_{a+1} (with t_h = 0).

    A distribution that is not weakly decreasing, or whose first entry is
    not the rank (below it would create zero exponents), signals a broken
    enumeration and is rejected.  RootSystem keeps its top layer nonempty,
    so t has an entry.
    """
    t = rs.layer_sizes[1:]
    if any(a < b for a, b in zip(t, t[1:])):
        raise InvalidArgumentError("height distribution must be weakly decreasing")
    if t[0] != rs.rank:
        raise InvalidArgumentError(
            f"height distribution starts at {t[0]}, expected rank {rs.rank}"
        )
    h = len(t) + 1
    exps: list[int] = []
    for a in range(1, h):
        mult = t[a - 1] - (t[a] if a < h - 1 else 0)
        exps.extend([a] * mult)
    return ExponentReport(tuple(exps), h, DUAL_PARTITION)


def coxeter_traces(c: CartanMatrix) -> tuple[int, tuple[int, ...]]:
    """Order h of the Coxeter element s_1 o s_2 o ... o s_l acting on the
    root space in simple-root coordinates, and the traces tr(c^k) for
    0 <= k < h.  On a Dynkin tree all Coxeter elements are conjugate
    (Humphreys, Reflection Groups and Coxeter Groups, 3.16), so relabelling
    the simple roots gives the same traces.

    Column j of the running power holds the image of the simple root e_j.
    The power is carried through the chain of simple reflections (the
    rightmost factor acts first).  s_i changes only coordinate i of each
    column, v_i -= sum_j a_ij v_j, so it rewrites row i of the power from
    the rows j with a_ij != 0, which ``c.nonzero`` lists: the rows with
    a_ij = -1 are added, the others multiplied.  One power costs O(rank^2)
    on a Dynkin tree instead of a dense O(rank^3) matrix product.

    Each power is compared with I and with -I.  The first k with c^k = -I
    gives h = 2k: c^(2k) = I, and no j with k < j < 2k has c^j = I, since
    c^(j-k) = -I would have stopped the loop earlier.  The traces past k
    are then tr(c^(k+j)) = tr(-c^j) = -tr(c^j), so the loop stops there.
    -1 is in the Weyl group, and so a power of c, exactly when every
    exponent is odd (Humphreys 3.19): B, C, D of even rank, E7, E8, F4 and
    G2 run half the period, A, D of odd rank and E6 the whole.  A Coxeter
    element of infinite order never reaches -I, whose square is I.

    Row i is one int sum_j p_ij * 2^(w*j), a signed w-bit field per entry;
    packing is linear, so a reflection is ``diag * p[i] - sum_j a_ij * p[j]``
    on ints.  A CartanMatrix is of finite type, so the power's entries are
    root coordinates and |p_ij| <= cap = HEIGHT_CAP_FACTOR * rank < L, the
    next power of two.  From rows in [-L, L) a reflection gives entries at
    most s * L in size, s the largest absolute row sum of its coefficients,
    so 2^w > (s + 1) * L keeps the new row decodable.  One mask test on the
    row biased by L per field proves its entries are back in [-L, L).  It
    guards the packing, not the input: rows whose powers leave the range
    raise NumericInconsistencyError rather than decode a wrapped field.
    The traces are read off the biased rows by shift and mask.
    """
    n = c.rank
    cap = HEIGHT_CAP_FACTOR * n
    bound = 2 * (cap + 1)
    half = 1 << cap.bit_length()  # L: guard range is [-half, half)
    spread = max(
        abs(1 - row[i]) + sum(abs(row[j]) for j in cols if j != i)
        for i, (row, cols) in enumerate(zip(c.rows, c.nonzero))
    )
    width = ((spread + 1) * half).bit_length()
    digit = 2 * half - 1  # a biased in-range entry's bits
    bias = sum(half << (width * j) for j in range(n))
    outside = ~sum(digit << (width * j) for j in range(n))
    identity = [1 << (width * j) for j in range(n)]
    minus = [-e for e in identity]
    # (i, 1 - a_ii, the j with a_ij = -1, the other (j, a_ij), shift to entry i)
    steps = []
    for i in reversed(range(n)):
        row = c.rows[i]
        off = [(j, row[j]) for j in c.nonzero[i] if j != i]
        ones = [j for j, a in off if a == -1]
        others = [(j, a) for j, a in off if a != -1]
        steps.append((i, 1 - row[i], ones, others, width * i))
    p = list(identity)
    traces = [n]
    for k in range(1, bound + 1):
        trace = -n * half
        for i, diag, ones, others, shift in steps:
            row = diag * p[i]
            for j in ones:
                row += p[j]
            for j, a in others:
                row -= a * p[j]
            biased = row + bias
            if biased & outside:
                raise NumericInconsistencyError(
                    f"Coxeter power entry outside [-{half}, {half}); "
                    "the matrix cannot be finite type"
                )
            p[i] = row
            trace += (biased >> shift) & digit
        if p == identity:
            return k, tuple(traces)
        if p == minus:
            return 2 * k, tuple(traces) + tuple(-t for t in traces)
        traces.append(trace)
    raise NumericInconsistencyError(f"matrix order not found within {bound}")


def _exact_div(a: int, b: int, what: str) -> int:
    q, r = divmod(a, b)
    if r:
        raise NumericInconsistencyError(f"{what}: {a} is not divisible by {b}")
    return q


def coxeter_exponents(c: CartanMatrix) -> ExponentReport:
    """Exponents from the eigenvalues exp(2 pi i m / h) of a Coxeter element.

    Since c^h = 1, the eigenvalues are h-th roots of unity, and for d | h
    F(d) = (d/h) * sum_{j < h/d} tr(c^{dj}) counts those with lambda^d = 1.
    Subtracting F over the proper divisors leaves mu_e, the number of
    primitive e-th roots of unity among the eigenvalues.  The characteristic
    polynomial is integral, so each of the phi(e) primitive e-th roots has
    multiplicity mu_e / phi(e), and m in 1..h-1 is an exponent with the
    multiplicity of its order e = h / gcd(m, h).  Every division must be
    exact, the eigenvalue 1 must not occur, and the multiplicities must sum
    to the rank; otherwise NumericInconsistencyError is raised.
    """
    h, traces = coxeter_traces(c)
    orders = [h // gcd(m, h) for m in range(h)]
    phi = Counter(orders)  # phi[e] = number of primitive e-th roots of unity
    mu: dict[int, int] = {}
    for d in sorted(phi):
        fixed = _exact_div(d * sum(traces[::d]), h, f"eigenvalue count F({d})")
        mu[d] = fixed - sum(mu[e] for e in mu if d % e == 0)
        if mu[d] < 0:
            raise NumericInconsistencyError(f"negative eigenvalue count mu_{d} = {mu[d]}")
    if mu[1]:
        raise NumericInconsistencyError(f"eigenvalue 1 occurs {mu[1]} time(s)")
    exps: list[int] = []
    for m in range(1, h):
        e = orders[m]
        exps.extend([m] * _exact_div(mu[e], phi[e], f"multiplicity of order {e}"))
    if len(exps) != c.rank:
        raise NumericInconsistencyError(
            f"{len(exps)} exponents found for rank {c.rank}"
        )
    return ExponentReport(tuple(exps), h, COXETER_EIGENVALUES)
