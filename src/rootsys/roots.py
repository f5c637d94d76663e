"""Positive-root enumeration by height layers, plus pairings, lengths, the
highest root and the extended Dynkin graph.

Only positive roots are stored, in tuples of tuples; a ``Root`` is its
coefficient tuple, and a negative root the negated tuple of a positive one.
Every system holds them packed, in the two forms that ``enumerate_roots``
computes and a hand-built system's checked layers are packed into once:
the sorted 8-bit keys of each height layer, ``key_layers``, and one int
per positive root that carries its pairings in 16-bit fields.  An
enumerated system also holds one ``Root``, the highest root; its other
roots and the symmetrizer ``form`` are built on first use.  Layer sizes,
the highest root, ``c_max``, ``signed``, the key set behind ``coeffs in
rs`` and ``key_layers``, whose bytes ``gen`` copies into its fixed-width
records one coefficient slot at a time, are read without them, so
``exponents``, ``gen`` and ``verify`` decode no root table.

``RootSystem.signed`` numbers the signed roots once, positives first in
``positive_roots()`` order, then their negatives, with a packed key each
and the coroot pairing vector of each positive root, decoded on first use
from the packed pairings by one path for every system.  The Weyl orbits,
the root-poset scans and the chain checks read roots by number and look
them up by key: the orbits move among the positive roots alone, and the
top chain decodes only its own roots with ``signed.coeffs``.  Every
length, and the affine edges of the extended Dynkin graph, are read from
the vectors and ``form.d``; its other edges are read off the Cartan
matrix's nonzero entries, as the row sums and the packed columns are.

``_trailing`` reads the system of a host's last k simple roots off the
host's packed fields, equal field for field to its enumeration: the CLI
enumerates A_n, B_n, C_n and D_n once, at the largest rank a command
asks for, and reads every smaller rank of the family off its trailing
Cartan block.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, islice
from operator import mul
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cartan import (
    CartanMatrix,
    RankedType,
    SymmetrizedForm,
    build_cartan,
    symmetrizer,
)
from .errors import InternalInconsistencyError, InvalidArgumentError

# The largest coefficient a root may have.  gen writes one digit per
# coefficient, and every key sum the scans form then stays inside 8-bit
# fields, since 7 * 9 = 63 < 256 (``SignedRoots`` gives the bound).  Every
# finite type has c <= 6, at E8, so only a hand-built root can pass it.
COEFFICIENT_CAP = 9


class Root(tuple):
    """A positive root: the tuple of its coefficients over the simple basis,
    equal to and hashed as that plain tuple.  ``Root(coeffs)`` runs the gate,
    ``__new__``; the system builds its own unchecked, by ``tuple.__new__``."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> Root:
        if not isinstance(coeffs, Iterable):
            raise InvalidArgumentError(f"expected a sequence of coefficients, got {coeffs!r}")
        coeffs = tuple(coeffs)
        if any(isinstance(c, bool) or not isinstance(c, int) for c in coeffs):
            raise InvalidArgumentError(f"expected integer root coefficients, got {coeffs}")
        if not coeffs or min(coeffs) < 0:
            raise InvalidArgumentError("root coefficients must be nonnegative")
        if not any(coeffs):
            raise InvalidArgumentError("the zero vector is not a root")
        return tuple.__new__(cls, coeffs)

    coeffs = property(tuple)
    height = property(sum)

    def __repr__(self) -> str:
        return f"Root{tuple(self)}"

    def __reduce__(self):  # pickle protocols 0 and 1 would skip the gate
        return Root, (tuple(self),)


class SignedRoots(NamedTuple):
    """The signed roots, numbered once: root k < N is the k-th positive
    root in ``positive_roots()`` order and root k + N is its negative.

    ``keys[k]`` packs root k into one integer: a vector v gets key(v) =
    sum_i v_i * unit[i], where unit[i] = 2**(8 * (l - 1 - i)) is the key of
    alpha_(i+1), coordinate 0 most significant, so a positive root's key is
    its coefficient bytes, the packing of enumerate_roots.  The key is
    linear, so keys[k + N] = -keys[k], and v - p*alpha_i or a sum of roots
    has the matching sum of keys.  Two vectors whose coordinates all differ
    by less than 256 have equal keys only when they are equal, since the
    lowest field where they differ leaves a nonzero remainder.

    This is the one bound every scan relies on.  The scans compare keys of
    v - p*alpha_i, for a signed root v with p = <v, alpha_i>, of a positive
    root minus at most three simple roots, and of sums of up to three
    signed roots, against keys of signed roots or of 0.  With c the largest
    coefficient and R the largest absolute row sum of the Cartan matrix,
    |p| <= R*c, so those coordinates differ by at most max(4, 2 + R) * c.
    Every ``CartanMatrix`` is of finite type, so R <= 5, and every
    ``RootSystem`` has c <= COEFFICIENT_CAP = 9: at most 7 * 9 = 63.
    ``number`` maps each key back to k, and ``pairings[k]`` is the vector
    (<beta, alpha_1>, ..., <beta, alpha_l>) of the positive root k.
    """

    keys: list[int]
    number: dict[int, int]
    unit: tuple[int, ...]
    pairings: list[tuple[int, ...]]

    def coeffs(self, k: int) -> tuple[int, ...]:
        """Root k's coefficient tuple, decoded from its key.  Raises
        InvalidArgumentError unless k numbers a signed root."""
        n = len(self.pairings)
        if k not in range(2 * n):
            raise InvalidArgumentError(
                f"no signed root is numbered {k!r}; expected 0..{2 * n - 1}"
            )
        if k >= n:
            return tuple(-c for c in self.coeffs(k - n))
        return tuple(self.keys[k].to_bytes(len(self.unit), "big"))

    def norm_sq(self, k: int, d: Sequence[int]) -> int:
        """(beta, beta) = sum_i beta_i d_i <beta, alpha_i> for the positive
        root k under the symmetrizer d: 2 for a short root.  Raises
        InvalidArgumentError unless k numbers a positive root."""
        if k not in range(len(self.pairings)):
            raise InvalidArgumentError(
                f"no positive root is numbered {k!r}; expected 0..{len(self.pairings) - 1}"
            )
        return sum(map(mul, self.coeffs(k), map(mul, d, self.pairings[k])))


class RootSystem:
    """All positive roots of a Cartan matrix, organised by height.

    Immutable: assigning or deleting an attribute raises AttributeError.
    Build via :func:`enumerate_roots`, which skips the checks below as its
    loop implies them and hands over ``key_layers`` and the packed
    pairings, decoded into ``layers`` and ``form`` on first use.
    Hand-built layers are checked once: a ``CartanMatrix``, a ``str`` or
    ``None`` label, and a sequence of sequences of Roots that is a root
    poset's height grading, with layer 0 empty, each root filed under its
    height with one coefficient per simple root and none past
    COEFFICIENT_CAP, the bound behind every key that ``SignedRoots`` gives,
    none listed twice, and one root in the top layer, with a ``form`` whose
    ``d`` is a tuple of rank positive ints; anything else raises
    InvalidArgumentError.  The checked layers are a tuple of tuples copied
    from those given, packed once into the keys and pairings
    enumerate_roots would hand over for them, a non-root's pairings
    included.  A hand-built system stores that copy and the ``form`` it is
    given; their values are not checked against the Cartan matrix, so a
    wrong ``d`` reaches the checks.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __init__(
        self,
        cartan: CartanMatrix,
        form: SymmetrizedForm,
        layers: tuple[tuple[Root, ...], ...],
        label: str | None,
    ) -> None:
        if not isinstance(cartan, CartanMatrix):
            raise InvalidArgumentError(f"expected a CartanMatrix, got {cartan!r}")
        if not (label is None or isinstance(label, str)):
            raise InvalidArgumentError(f"expected a str label or None, got {label!r}")
        n = cartan.rank
        d = form.d if isinstance(form, SymmetrizedForm) else None
        if not (isinstance(d, tuple) and len(d) == n and all(type(x) is int and x > 0 for x in d)):
            raise InvalidArgumentError(
                f"expected a SymmetrizedForm whose d holds {n} positive ints, got {form!r}"
            )
        if not (isinstance(layers, Sequence) and all(isinstance(x, Sequence) for x in layers)):
            raise InvalidArgumentError("expected the layers as a sequence of sequences of Roots")
        if not layers or layers[0]:
            raise InvalidArgumentError("layer 0 must exist and be empty")
        layers = tuple(map(tuple, layers))
        for h, layer in enumerate(layers):
            for r in layer:
                if not isinstance(r, Root):
                    raise InvalidArgumentError(f"expected a Root in layer {h}, got {r!r}")
                if len(r) != n:
                    raise InvalidArgumentError(
                        f"{tuple(r)} has {len(r)} coefficients; the rank is {n}"
                    )
                if sum(r) != h:
                    raise InvalidArgumentError(
                        f"{tuple(r)} has height {sum(r)} but is filed under {h}"
                    )
                if max(r) > COEFFICIENT_CAP:
                    raise InvalidArgumentError(
                        f"{tuple(r)} has a coefficient past COEFFICIENT_CAP = {COEFFICIENT_CAP}"
                    )
        if len(layers[-1]) != 1:
            raise InvalidArgumentError(
                f"top height layer has {len(layers[-1])} roots; expected exactly one"
            )
        vars(self).update(form=form, layers=layers)
        _, bias, columns = _pairing_fields(cartan)
        packed = [bias - sum(map(mul, r, columns)) for r in self.positive_roots()]
        keys = tuple([tuple([int.from_bytes(bytes(r), "big") for r in layer]) for layer in layers])
        self._fill(cartan, label, keys, packed, layers[-1][0])
        if len(self._positive_keys) != self.num_positive:
            raise InvalidArgumentError("a root is listed twice")

    def _fill(self, cartan, label, key_layers, packed, top) -> RootSystem:
        """Set the fields both constructors share: key_layers[h] holds the
        keys of the roots of height h, each root's coefficient bytes read as
        one big-endian int, packed their pairing ints in positive_roots()
        order, as enumerate_roots packs them, and top the highest Root."""
        vars(self).update(cartan=cartan, label=label, key_layers=key_layers, _packed=packed)
        vars(self).update(_top=top, layer_sizes=tuple(map(len, key_layers)))
        return self

    # -- decoded on first use by an enumerated system -------------------------

    @cached_property
    def layers(self) -> tuple[tuple[Root, ...], ...]:
        """layers[r] = the Roots of height r, layers[0] empty: each key
        unpacked to its coefficient bytes, in enumerate_roots' order, and
        the top layer the Root that highest_root() returns."""
        n = self.rank
        decoded = [
            tuple([tuple.__new__(Root, key.to_bytes(n, "big")) for key in keys])
            for keys in self.key_layers[:-1]
        ]
        return tuple(decoded) + ((self._top,),)

    @cached_property
    def form(self) -> SymmetrizedForm:
        return symmetrizer(self.cartan)

    @cached_property
    def _positive_keys(self) -> frozenset[int]:
        return frozenset().union(*self.key_layers)

    # -- basic queries ----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def max_height(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def num_positive(self) -> int:
        return sum(self.layer_sizes)

    def __contains__(self, coeffs: Sequence[int]) -> bool:
        """Whether coeffs is a positive root here: False for any other
        sequence of ints, negated roots and entries past 255 included.
        Anything but an iterable of ints raises InvalidArgumentError."""
        try:
            key = bytes(list(coeffs))
        except ValueError:  # an entry outside 0..255, which no root has
            return False
        except TypeError:  # not iterable, or an entry that is not an int
            raise InvalidArgumentError(
                f"expected a sequence of coefficients, got {coeffs!r}"
            ) from None
        return len(key) == self.rank and int.from_bytes(key, "big") in self._positive_keys

    def positive_roots(self) -> Iterator[Root]:
        for layer in self.layers:
            yield from layer

    def layer(self, height: int) -> tuple[Root, ...]:
        if 1 <= height <= self.max_height:
            return self.layers[height]
        return ()

    # -- highest root --------------------------------------------------------

    def highest_root(self) -> Root:
        return self._top

    def c_max(self) -> int:
        return max(self.highest_root())

    # -- pairings and lengths ------------------------------------------------

    @cached_property
    def signed(self) -> SignedRoots:
        """The signed roots, numbered, keyed and paired as ``SignedRoots``
        says: the positive keys are ``key_layers``.

        The pairings are decoded from the packed ints one root at a time:
        16-bit field i of na holds b - <beta, alpha_i>, b = 2**15 - 1, XOR
        with b makes it <beta, alpha_i> mod 2**16, and one big-endian
        signed unpack reads every field."""
        n = self.rank
        unpack = Struct(">%dh" % n).unpack
        flip = int.from_bytes(b"\x7f\xff" * n, "big")
        pairings = [unpack((na ^ flip).to_bytes(2 * n, "big")) for na in self._packed]
        unit = tuple(1 << 8 * (n - 1 - i) for i in range(n))
        pos = [key for keys in self.key_layers for key in keys]
        keys = pos + [-k for k in pos]
        return SignedRoots(keys, dict(zip(keys, range(len(keys)))), unit, pairings)

    # -- the extended Dynkin graph --------------------------------------------

    @cached_property
    def extended_graph(self) -> tuple[dict[int, int], ...]:
        """The Dynkin graph plus the affine vertex 0, standing for minus the
        highest root theta, as adjacency: entry v, for v = 0 .. rank, maps
        each neighbour of v to the multiplicity of their edge.  Simple roots
        i and j are joined by a_ij * a_ji edges, read off the nonzero
        entries of the Cartan rows.  Vertex 0 is joined to each alpha_i
        with t_i = <theta, alpha_i> > 0 by t_i * <alpha_i, theta> edges,
        where <alpha_i, theta> = 2 d_i t_i / (theta, theta): the rule for
        simple-root pairs.  Requires
        rank >= 2 (the rank-1 affine diagram has no finite edge
        multiplicity).  Raises InternalInconsistencyError when (theta,
        theta) is not positive, which a hand-built top root read with a
        wrong d can give, or when a multiplicity is not an integer."""
        if self.rank < 2:
            raise InvalidArgumentError("extended graph requires rank >= 2")
        signed = self.signed
        # theta, alone in the top layer, is the last positive root
        norm = signed.norm_sq(self.num_positive - 1, self.form.d)
        if norm <= 0:
            raise InternalInconsistencyError(
                f"the highest root has squared length {norm}, not a positive one"
            )
        affine = {}
        for i, (d_i, t_i) in enumerate(zip(self.form.d, signed.pairings[-1]), 1):
            if t_i > 0:
                u_i, rem = divmod(2 * d_i * t_i, norm)
                if rem:
                    raise InternalInconsistencyError(
                        "non-integral pairing against the highest root"
                    )
                affine[i] = t_i * u_i
        graph = [affine]
        rows = self.cartan.rows
        for i, (row, cols) in enumerate(zip(rows, self.cartan.nonzero), 1):
            adjacent = {0: affine[i]} if i in affine else {}
            # off the diagonal, an entry is negative exactly on an edge
            adjacent.update((j + 1, row[j] * rows[j][i - 1]) for j in cols if row[j] < 0)
            graph.append(adjacent)
        return tuple(graph)


def _pairing_fields(cartan: CartanMatrix) -> tuple[list[int], int, list[int]]:
    """The 16-bit fields that carry pairings, field i at F_i = 2**(16*(l-1-i)):
    the F_i, the bias b * sum_i F_i with b = 2**15 - 1, and each column i
    of the Cartan matrix packed, sum_j a_ji F_j, so a vector beta has its
    pairings packed as na = bias - sum_i beta_i * columns[i].  Raises
    InternalInconsistencyError unless the largest absolute row sum R, read
    off the nonzero entries, has (R + 1) * 256 < 2**15."""
    n = cartan.rank
    rows = list(zip(cartan.rows, cartan.nonzero))
    reach = max(sum(map(abs, map(row.__getitem__, cols))) for row, cols in rows)
    if (reach + 1) << 8 >= 1 << 15:
        raise InternalInconsistencyError(f"a row sum of {reach} outgrows 16-bit pairing fields")
    fields = [1 << 16 * (n - 1 - i) for i in range(n)]
    columns = [0] * n
    for (row, cols), f in zip(rows, fields):
        for i in cols:
            columns[i] += row[i] * f
    return fields, 0x7FFF * sum(fields), columns


def enumerate_roots(cartan: CartanMatrix, label: str | None = None) -> RootSystem:
    """Build all positive roots layer by layer.

    Each root beta carries its pairings <beta, alpha_i> and its string
    lengths p_i, the largest k with beta - k*alpha_i a root.  beta + alpha_i
    is a root exactly when p_i > <beta, alpha_i>, because root strings are
    unbroken; it then gets p_i + 1 in entry i, 0 in entries no edge sets,
    and beta's pairings plus column i of the Cartan matrix.  Every edge into
    height r + 1 leaves height r, so p is complete before its layer is
    scanned.

    Both ride in the w = 16-bit fields of ``_pairing_fields``, field i at
    F_i: na = sum_i (b - <beta, alpha_i>) F_i with b = 2**(w-1) - 1, and p
    = sum_i p_i F_i.  Field i of na + p has its high bit set iff p_i >
    <beta, alpha_i>, so ``(na + p) & high`` is the set of edges up, and
    beta + alpha_i has na minus the packed column i.  The fields hold
    every row whose largest absolute row sum R has (R + 1) * 256 < 2**15:
    below height 256, |<beta, alpha_i>| <= 255 R and p_i <= 254, so no
    field wraps before the height guard.  Every finite type has R <= 5; a
    larger R, which no CartanMatrix has, raises InternalInconsistencyError.

    The edges up are taken highest bit first.  The high bit of field i has
    bit length w * (l - i), so the bit length b of the edges left names the
    next one, and ``edges`` is a list indexed by b that holds its key unit,
    packed column, field mask and F_i: one bit_length, one shift and one
    index per edge, where a dict keyed by the bit would hash a w*l-bit int.
    Children enter ``found`` in that order, and every layer is sorted.

    Keys have an 8-bit field per coordinate, coordinate 0 most significant:
    sorted keys sort vectors lexicographically, beta + alpha_i is ``key +
    unit[i]``, and ``key.to_bytes(rank, "big")`` is the coefficient tuple.
    A coefficient never exceeds its root's height, so no field carries
    below height 255, where a layer raises InternalInconsistencyError.  A
    finite type of rank <= MAX_RANK has height at most 63.

    Every root but the single top root must have a root above it, or
    InternalInconsistencyError is raised.  Following edges up from any root
    then reaches theta, with coefficients growing, so theta dominates every
    root.  The system gets each layer's sorted keys as ``key_layers``, the
    na ints in the same order and the one Root built here, theta's: the
    packing a hand-built system computes from its layers.  ``signed``
    decodes the na ints, and ``layers`` the keys, only when first read.
    Roots and system are built unchecked, as the loop implies the checks
    of ``Root`` and ``RootSystem``: ``to_bytes`` gives rank nonnegative
    ints, a key never drops to 0, height is the layer index, ``found``
    holds each root once, and one root is maximal.
    """
    n = cartan.rank
    fields, bias, columns = _pairing_fields(cartan)
    w = 16
    high = sum(f << w - 1 for f in fields)
    # the bit length of field i's high bit -> (key unit, packed column, field
    # mask, F_i); the other entries are None
    edges = [None] * (w * n + 1)
    for i, (f, col) in enumerate(zip(fields, columns)):
        edges[(f << w - 1).bit_length()] = (1 << 8 * (n - 1 - i), col, ((1 << w) - 1) * f, f)
    # key -> [na, p] of the roots one layer up
    found = {u: [bias - col, 0] for u, col, _, _ in filter(None, edges)}
    key_layers: list[tuple[int, ...]] = [()]  # sorted keys by height
    pairs: list[int] = []  # na in layer order, for the pairing table
    maximal = []  # keys of the roots with no root above them
    while found:
        if len(key_layers) >= 255:
            raise InternalInconsistencyError(
                "enumeration reached height 255, the limit of its 8-bit key fields"
            )
        layer, found = found, {}
        keys = sorted(layer)
        key_layers.append(tuple(keys))
        for key in keys:
            na, p = layer[key]
            pairs.append(na)
            m = (na + p) & high
            if not m:
                maximal.append(key)
            while m:
                b = m.bit_length()
                m ^= 1 << b - 1
                u, col, mask, f = edges[b]
                up = key + u
                if (pending := found.get(up)) is None:
                    found[up] = [na - col, (p & mask) + f]
                else:  # another edge into the same root
                    pending[1] += (p & mask) + f
    if len(maximal) > 1:
        raise InternalInconsistencyError(
            f"{len(maximal)} roots have no root above them, among them "
            f"{tuple(maximal[0].to_bytes(n, 'big'))}; expected only the top root"
        )

    top = tuple.__new__(Root, key_layers[-1][0].to_bytes(n, "big"))
    return RootSystem.__new__(RootSystem)._fill(cartan, label, tuple(key_layers), pairs, top)


def _trailing(rs: RootSystem, cartan: CartanMatrix, label: str | None) -> RootSystem:
    """The root system of rs's last k = ``cartan.rank`` simple roots, read
    off rs, with the given label: the system ``enumerate_roots(cartan,
    label)`` builds, field for field.  For any subset I of the simple
    roots, Phi meets span(I) in the root system with simple system I, whose
    Cartan matrix is the I x I block (Humphreys, *Reflection Groups and
    Coxeter Groups* 1.10).  Under ``build_cartan``'s Bourbaki labels, A_k,
    B_k, C_k and D_k (k >= 4) are the trailing blocks of A_n, B_n, C_n and
    D_n, so one enumeration of the largest rank yields every smaller one.

    A key holds coordinate 0 in its most significant byte, so the roots on
    the last k simple roots are those with key < 2**(8k), and their keys
    are already the keys of X_k.  They are taken layer by layer, in rs's
    order, which is enumeration's, up to the first layer that has none.
    Pairing field i sits at 2**(16(n-1-i)) and no field carries, so the low
    k fields of a kept root's packed pairings are its pairings against the
    last k simple roots, packed as enumerate_roots packs them for X_k.
    Raises InvalidArgumentError unless ``cartan.rows`` is the trailing k x
    k block of ``rs.cartan.rows``, and InternalInconsistencyError unless
    the top layer kept holds exactly one root."""
    n, k = rs.rank, cartan.rank
    if k > n or cartan.rows != tuple(row[n - k :] for row in rs.cartan.rows[n - k :]):
        raise InvalidArgumentError(
            f"the Cartan matrix of {label} is not the trailing {k} x {k} block of {rs.label}'s"
        )
    below, mask = 1 << 8 * k, (1 << 16 * k) - 1
    key_layers: list[tuple[int, ...]] = [()]
    packed: list[int] = []
    pairs = iter(rs._packed)
    for keys in rs.key_layers[1:]:
        kept = list(map(below.__gt__, keys))
        layer = tuple(compress(keys, kept))
        if not layer:
            break
        key_layers.append(layer)
        packed += map(mask.__and__, compress(islice(pairs, len(keys)), kept))
    if len(key_layers[-1]) != 1:
        raise InternalInconsistencyError(
            f"{len(key_layers[-1])} roots of {label} share its top layer; expected one"
        )
    top = tuple.__new__(Root, key_layers[-1][0].to_bytes(k, "big"))
    return RootSystem.__new__(RootSystem)._fill(cartan, label, tuple(key_layers), packed, top)


def build_system(t) -> RootSystem:
    """Convenience: enumerate the root system of a named type."""
    if isinstance(t, str):
        t = RankedType.parse(t)
    return enumerate_roots(build_cartan(t), str(t))
