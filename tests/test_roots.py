"""Enumeration, pairings, strings, lengths, and the highest root."""

import copy
import json
import pickle
import random
import re

import pytest

import rootsys as R
import rootsys.cli as cli
from rootsys import roots
from rootsys.cli import main
from rootsys.errors import InternalInconsistencyError, InvalidArgumentError

from conftest import small_labels, stand_in, sweep_labels, with_identity_block
from oracles import (
    finite_type_classes,
    gen_payload,
    gram,
    inner,
    pairing,
    reflection_closure,
    root_number,
    root_string,
    tall_a12,
    tuple_scan_layers,
    with_top,
)

G2_POSITIVE = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_a2_roots(system):
    assert {r.coeffs for r in system("A2").positive_roots()} == {
        (1, 0), (0, 1), (1, 1),
    }


def test_g2_table(system):
    rs = system("G2")
    assert {r.coeffs for r in rs.positive_roots()} == G2_POSITIVE
    assert sorted(r.height for r in rs.positive_roots()) == [1, 1, 2, 3, 4, 5]
    assert rs.highest_root().coeffs == (3, 2)
    assert rs.c_max() == 3


def test_e8_count(system):
    rs = system("E8")
    assert rs.num_positive == 120
    # independent cross-check: the exponents sum to the number of positive roots
    rep = R.coxeter_exponents(rs.cartan)
    assert sum(rep.exponents) == 120


def test_f4_highest(system):
    rs = system("F4")
    assert rs.highest_root().coeffs == (2, 3, 4, 2)
    assert rs.c_max() == 4
    assert sum(rs.highest_root().coeffs) == 11 == rs.max_height


def test_a_family_highest(system):
    for ell in range(1, 13):
        rs = system(f"A{ell}")
        assert rs.highest_root().coeffs == tuple([1] * ell)
        assert rs.c_max() == 1


def test_enumeration_matches_reflection_closure(system):
    for label in map(str, R.all_types(8)):
        rs = system(label)
        assert {r.coeffs for r in rs.positive_roots()} == set(
            reflection_closure(rs.cartan)
        ), label


def test_enumeration_is_a_fixed_point(system):
    # running the successor rule over a finished system adds nothing
    for label in ("A3", "B3", "G2", "D4"):
        rs = system(label)
        members = {r.coeffs for r in rs.positive_roots()}
        for beta in rs.positive_roots():
            for i in range(1, rs.rank + 1):
                p, q = root_string(rs, beta, i)
                up = tuple(
                    c + 1 if k == i - 1 else c for k, c in enumerate(beta.coeffs)
                )
                assert (q > 0) == (up in members)


# highest roots and positive-root counts of the exceptional types (Bourbaki)
EXCEPTIONAL = {
    "E6": (36, (1, 2, 2, 3, 2, 1)),
    "E7": (63, (2, 2, 3, 4, 3, 2, 1)),
    "E8": (120, (2, 3, 4, 6, 5, 4, 3, 2)),
    "F4": (24, (2, 3, 4, 2)),
    "G2": (6, (3, 2)),
}


def closed_form(t: R.RankedType) -> tuple[int, tuple[int, ...]]:
    """Number of positive roots and highest root of a classical type."""
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2, (1,) * n
    if t.family == "B":
        return n * n, (1,) + (2,) * (n - 1)
    if t.family == "C":
        return n * n, (2,) * (n - 1) + (1,)
    if t.family == "D":
        return n * (n - 1), (1,) + (2,) * (n - 3) + (1, 1)
    return EXCEPTIONAL[str(t)]


def test_counts_and_highest_roots_up_to_max_rank(system):
    heights = []
    for t in R.all_types(R.MAX_RANK):
        rs = system(str(t))
        assert (rs.num_positive, rs.highest_root().coeffs) == closed_form(t), str(t)
        heights.append(rs.max_height)
    # the margin below enumerate_roots' 255 limit for its 8-bit key fields
    assert max(heights) < 255


def _layers(rs) -> list[list[tuple[int, ...]]]:
    return [[r.coeffs for r in layer] for layer in rs.layers]


def test_layers_match_tuple_scan_up_to_max_rank(system):
    # the packed-key enumeration files the same roots, in the same order,
    # as the successor rule run on plain tuples
    for t in R.all_types(R.MAX_RANK):
        rs = system(str(t))
        assert _layers(rs) == tuple_scan_layers(rs.cartan), str(t)


@pytest.mark.parametrize(
    "rows",
    [
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2
        ((2, -3), (-3, 2)),
        ((2, -4), (-1, 2)),  # affine A2, twisted
        # ranks 26 and 32 in 16-bit pairing fields, the second at the
        # largest row sum R they take
        with_identity_block(((2, -3), (-3, 2)), 26),
        with_identity_block(((2, -124), (-1, 2)), 32),
        # the largest R that 16-bit pairing fields take: (R + 1) * 256 < 2**15
        ((2, -124), (-1, 2)),
        ((2, -2), (-2, 2)),  # affine A1
        ((2, -1, 0), (-1, 2, -3), (0, -1, 2)),  # affine G2
    ],
)
def test_enumeration_stops_at_height_cap(rows):
    # roots that never run out: the enumeration must stop at height 255,
    # before a coefficient outgrows its 8-bit key field
    with pytest.raises(InternalInconsistencyError, match="reached height 255,"):
        R.enumerate_roots(stand_in(rows))


@pytest.mark.parametrize(
    "rows",
    [
        ((2, -125), (-1, 2)),  # R = 127, one past the largest 16 bits take
        with_identity_block(((2, -300), (-1, 2)), 26),
        with_identity_block(((2, -300), (-1, 2)), 32),
        ((2, 4 - (1 << 23)), (-1, 2)),
        ((2, 4 - (1 << 55)), (-1, 2)),
    ],
)
def test_enumeration_refuses_rows_past_16_bit_pairing_fields(rows):
    # no CartanMatrix has an absolute row sum above 5, so enumeration keeps
    # one pairing width and refuses rows it cannot hold before any layer
    reach = max(sum(map(abs, row)) for row in rows)
    why = f"a row sum of {reach} outgrows 16-bit pairing fields"
    with pytest.raises(InternalInconsistencyError, match="^" + why + "$"):
        R.enumerate_roots(stand_in(rows))


@pytest.mark.parametrize("label", ["E6", "F4", "G2", "D8"])
def test_permuted_cartan_enumerates_permuted_roots(system, label):
    rs = system(label)
    rows = rs.cartan.rows
    rng = random.Random(label)
    for _ in range(3):
        perm = rng.sample(range(rs.rank), rs.rank)
        permuted = R.enumerate_roots(
            R.validate_cartan([[rows[a][b] for b in perm] for a in perm])
        )
        assert _layers(permuted) == tuple_scan_layers(permuted.cartan), perm
        assert {r.coeffs for r in permuted.positive_roots()} == {
            tuple(r.coeffs[a] for a in perm) for r in rs.positive_roots()
        }, perm
        theta = rs.highest_root().coeffs
        assert permuted.highest_root().coeffs == tuple(theta[a] for a in perm)


def test_relabelled_classes_enumerate_like_tuple_scan():
    # every connected finite type to rank 20, found by leaf search rather
    # than the type table, under a seeded relabelling the table never
    # produces: the carried string lengths must give the layers that the
    # membership walk of the tuple oracle gives
    rng = random.Random(20)
    for c in finite_type_classes(20):
        perm = rng.sample(range(c.rank), c.rank)
        relabelled = R.validate_cartan([[c.rows[a][b] for b in perm] for a in perm])
        rs = R.enumerate_roots(relabelled)
        assert _layers(rs) == tuple_scan_layers(relabelled), (c.rows, perm)


@pytest.mark.parametrize(
    "rows",
    [
        # A2 + A2 and A1 + A2: each enumerates to the end with two maximal
        # roots, an inconsistency rather than an input error
        ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)),
        ((2, 0, 0), (0, 2, -1), (0, -1, 2)),
    ],
)
def test_enumeration_rejects_a_second_maximal_root(rows):
    with pytest.raises(InternalInconsistencyError, match="2 roots have no root above them"):
        R.enumerate_roots(stand_in(rows))


def _rows_table(rs):
    """The signed-root table of the same layers, read off densely: each key
    the coefficient bytes, each pairing vector the Cartan rows against the
    coefficient tuple, entry by entry, with no packed field."""
    pos = [r.coeffs for r in rs.positive_roots()]
    keys = [int.from_bytes(bytes(c), "big") for c in pos]
    keys += [-k for k in keys]
    unit = tuple(1 << 8 * (rs.rank - 1 - i) for i in range(rs.rank))
    pairings = [tuple(sum(a * b for a, b in zip(row, c)) for row in rs.cartan.rows) for c in pos]
    return roots.SignedRoots(keys, dict(zip(keys, range(len(keys)))), unit, pairings)


def _named_and_relabelled(system):
    """Every type to MAX_RANK and a seeded relabelling of every leaf-search
    class to rank 20, enumerated."""
    systems = [system(str(t)) for t in R.all_types(R.MAX_RANK)]
    rng = random.Random(16)
    for c in finite_type_classes(20):
        perm = rng.sample(range(c.rank), c.rank)
        systems.append(R.enumerate_roots(R.CartanMatrix(
            tuple(tuple(c.rows[a][b] for b in perm) for a in perm)
        )))
    return systems


def test_handed_over_table_matches_cartan_rows(system, corrupted_ledgers):
    # the same table, in the same order, and 8-bit keys equal to the
    # enumeration's packing, for enumerated systems and for hand-built ones
    # that hold non-roots, doubled roots, a wrong d or a tall top, whose
    # pairings the constructor packs from their layers
    hand_built = [rs for _, rs, _ in corrupted_ledgers]
    hand_built += [tall_a12(), with_top(system("G2"), (9, 1)), with_top(system("B3"), (4, 4, 4))]
    for rs in _named_and_relabelled(system) + hand_built:
        assert rs.signed == _rows_table(rs), rs.cartan.rows
        pos = [int.from_bytes(bytes(r.coeffs), "big") for r in rs.positive_roots()]
        assert rs.signed.keys == pos + [-k for k in pos], rs.cartan.rows
        assert list(rs.signed.number.items()) == list(
            zip(pos + [-k for k in pos], range(2 * len(pos)))
        ), rs.cartan.rows
        assert rs.signed.unit == tuple(1 << 8 * k for k in reversed(range(rs.rank)))


def test_lazy_decode_matches_a_hand_built_system(system):
    # a fresh enumeration answers counts, theta, the signed-root table and
    # the key layers from its packed keys and pairings alone, then decodes
    # the layers and form a hand-built system is given; the positive signed
    # keys are the key layers, flattened, and theta, which dominates every
    # root, keeps every coefficient within the cap
    for rs in _named_and_relabelled(system):
        fresh = R.enumerate_roots(rs.cartan, rs.label)
        packed = (
            fresh.num_positive,
            fresh.max_height,
            fresh.highest_root(),
            fresh.signed,
            fresh.key_layers,
        )
        assert {"layers", "_positive_keys", "form"}.isdisjoint(vars(fresh)), rs.cartan.rows
        hand = R.RootSystem(rs.cartan, R.symmetrizer(rs.cartan), rs.layers, rs.label)
        assert fresh.layers == hand.layers, rs.cartan.rows
        assert packed == (
            hand.num_positive,
            hand.max_height,
            hand.highest_root(),
            hand.signed,
            hand.key_layers,
        )
        assert fresh.form == hand.form, rs.cartan.rows
        assert fresh.highest_root() is fresh.layers[-1][0], rs.cartan.rows
        for built in (fresh, hand):
            assert max(built.highest_root().coeffs) <= roots.COEFFICIENT_CAP, rs.cartan.rows
            flat = [key for keys in built.key_layers for key in keys]
            assert built.signed.keys[: built.num_positive] == flat, rs.cartan.rows


def _packed_fields(rs):
    return (
        rs.key_layers, rs._packed, rs.layer_sizes, rs.highest_root(), rs.label, rs.cartan
    )


def test_trailing_blocks_equal_their_enumeration():
    # every A-D type to MAX_RANK, read off its family's MAX_RANK host, is
    # the system enumerate_roots builds: the packed fields, the top Root,
    # the label and the Cartan matrix, then every structure decoded from them
    checked = []
    for family in "ABCD":
        host = R.build_system(f"{family}{R.MAX_RANK}")
        for t in R.all_types(R.MAX_RANK):
            if t.family != family:
                continue
            cartan = R.build_cartan(t)
            got = roots._trailing(host, cartan, str(t))
            want = R.enumerate_roots(cartan, str(t))
            assert _packed_fields(got) == _packed_fields(want), str(t)
            assert type(got.highest_root()) is R.Root, str(t)
            assert (got.signed, got.layers, got.form) == (want.signed, want.layers, want.form)
            if t.rank > 1:
                assert got.extended_graph == want.extended_graph, str(t)
            checked.append(str(t))
    assert {"A1", "B2", "C2", "D4", f"D{R.MAX_RANK}"} <= set(checked)
    assert len(checked) == 4 * R.MAX_RANK - 5


@pytest.mark.parametrize("family", ["B", "D"])
def test_trailing_refuses_a_matrix_that_is_not_the_block(family):
    # D_n's last three nodes form a star, not A3's path; B_n's trailing
    # blocks are B_k, whose short root C_k has long; and no block is larger
    # than its host
    host = R.build_system(f"{family}{R.MAX_RANK}")
    wrong = ["A3"] if family == "D" else [f"C{k}" for k in range(2, R.MAX_RANK + 1)]
    for label in wrong:
        with pytest.raises(InvalidArgumentError, match="not the trailing"):
            roots._trailing(host, R.build_cartan(label), label)
    with pytest.raises(InvalidArgumentError, match="not the trailing"):
        roots._trailing(R.build_system(f"{family}4"), R.build_cartan(f"{family}5"), "big")


def test_trailing_refuses_two_top_roots():
    # a hand-built A3 whose roots on alpha_2, alpha_3 end in two roots of
    # height 2, which no root system has
    a3 = R.build_cartan("A3")
    layers = [
        [],
        [R.Root((1, 0, 0)), R.Root((0, 1, 0)), R.Root((0, 0, 1))],
        [R.Root((1, 1, 0)), R.Root((0, 1, 1)), R.Root((0, 0, 2))],
        [R.Root((1, 1, 1))],
    ]
    hand = R.RootSystem(a3, R.symmetrizer(a3), layers, "A3")
    with pytest.raises(InternalInconsistencyError, match="2 roots of A2 share its top layer"):
        roots._trailing(hand, R.build_cartan("A2"), "A2")


def test_counts_and_gen_build_only_the_top_root(monkeypatch, capsys):
    # enumerate_roots builds one Root, theta; dual_partition reads layer
    # sizes and gen reads keys, so neither decodes the layers, which a
    # watch on RootSystem.layers would see
    decoded = []
    layers = R.RootSystem.layers
    watch = property(lambda rs: decoded.append(rs.label) or layers.func(rs))
    monkeypatch.setattr(R.RootSystem, "layers", watch)
    for t in R.all_types(12):
        rs = R.enumerate_roots(R.build_cartan(t), str(t))
        R.dual_partition(rs)
        assert rs.highest_root() == rs.layers[-1][0] and decoded == [str(t)], str(t)
        decoded.clear()
    for command in ("gen", "exponents"):
        assert main([command, "--all", "--max-rank", "12"]) == 0
        capsys.readouterr()
        assert decoded == [], command


def test_enumerated_roots_pass_the_checked_constructors(system):
    # enumerate_roots builds its roots and system unchecked; the checked
    # constructors must accept every one of them as they stand
    for rs in _named_and_relabelled(system):
        R.RootSystem(rs.cartan, rs.form, rs.layers, rs.label)
        for r in rs.positive_roots():
            checked = R.Root(r.coeffs)
            assert checked == r and checked.height == r.height, (rs.cartan.rows, r)
            assert type(r.coeffs) is tuple, (rs.cartan.rows, r)


def test_enumeration_skips_the_root_checks(monkeypatch):
    # enumerate_roots and the layers decode never run Root's gate,
    # Root.__new__, while Root(...) still does
    def refuse(cls, coeffs):
        raise AssertionError("an enumerated root was checked")

    monkeypatch.setattr(R.Root, "__new__", refuse)
    assert len(list(R.build_system("E8").positive_roots())) == 120
    assert main(["gen", "--type", "E8"]) == 0
    with pytest.raises(AssertionError, match="was checked"):
        R.Root((1, 0))


# -- dominance ------------------------------------------------------------------

def test_highest_root_dominates_everything(system):
    # theta - beta has only nonnegative coordinates for every positive beta
    for label in sweep_labels(8):
        rs = system(label)
        theta = rs.highest_root().coeffs
        for r in rs.positive_roots():
            assert all(a >= b for a, b in zip(theta, r.coeffs)), (label, r)


# -- pairings --------------------------------------------------------------------

def _alpha(rank, i):
    """The simple root alpha_i, 1-based, as a Root."""
    return R.Root(tuple(int(k == i - 1) for k in range(rank)))


def _norm_sq(rs, coeffs):
    """The squared length the signed-root table gives a positive root."""
    return rs.signed.norm_sq(root_number(rs, coeffs), rs.form.d)


def test_pairing_pins(system):
    g2 = system("G2")
    assert g2.signed.pairings[root_number(g2, (3, 1))][0] == 3
    a3 = system("A3")
    assert a3.signed.pairings[root_number(a3, (1, 1, 0))][2] == -1
    assert pairing(a3, R.Root((1, 1, 0)), R.Root((0, 0, 1))) == -1
    for label in ("A4", "B3", "C3", "F4", "G2"):
        rs = system(label)
        theta = rs.highest_root()
        assert pairing(rs, theta, theta) == 2


def test_pairing_bounds(system):
    for label in small_labels():
        rs = system(label)
        roots = list(rs.positive_roots())
        for b in roots:
            for g in roots:
                if b == g:
                    continue
                assert pairing(rs, b, g) in (-3, -2, -1, 0, 1, 2, 3), (label, b, g)
        for k, b in enumerate(roots):
            for i in range(1, rs.rank + 1):
                g = _alpha(rs.rank, i)
                assert rs.signed.pairings[k][i - 1] == pairing(rs, b, g), (label, b, i)


# -- strings --------------------------------------------------------------------

def test_root_string_pins(system):
    g2 = system("G2")
    assert root_string(g2, R.Root((0, 1)), 1) == (0, 3)
    a2 = system("A2")
    assert root_string(a2, R.Root((1, 0)), 2) == (0, 1)


def test_root_string_top_is_closed(system):
    for label in small_labels():
        rs = system(label)
        theta = rs.highest_root()
        for i in range(1, rs.rank + 1):
            assert root_string(rs, theta, i)[1] == 0


def test_string_identity_everywhere(system):
    # p - q = <beta, alpha_i>, including the beta = alpha_i corner
    for label in small_labels():
        rs = system(label)
        for k, beta in enumerate(rs.positive_roots()):
            for i in range(1, rs.rank + 1):
                p, q = root_string(rs, beta, i)
                assert p - q == rs.signed.pairings[k][i - 1], (label, beta, i)


def test_root_string_rejects_nonroot(system):
    rs = system("A2")
    with pytest.raises(InvalidArgumentError):
        root_string(rs, R.Root((2, 0)), 1)


# -- lengths ---------------------------------------------------------------------

def test_lengths_pins(system):
    a4 = system("A4")
    assert {_norm_sq(a4, r.coeffs) for r in a4.positive_roots()} == {2}
    g2 = system("G2")
    assert _norm_sq(g2, (0, 1)) == 3 * _norm_sq(g2, (1, 0)) == 6
    b3 = system("B3")
    # long roots have squared length 2 * max(d), short ones 2
    assert _norm_sq(b3, (0, 0, 1)) == 2
    assert _norm_sq(b3, (1, 0, 0)) == 2 * max(b3.form.d) == 4


def test_signed_coeffs_rejects_numbers_outside_the_table(system):
    # A2 numbers its signed roots 0..5; 6 used to wrap round to root 0, and
    # -1 to decode as (254, 255)
    signed = system("A2").signed
    assert [signed.coeffs(k) for k in (0, 3, 5)] == [(0, 1), (0, -1), (-1, -1)]
    for k in (6, 7, -1, -6):
        with pytest.raises(InvalidArgumentError, match=f"no signed root is numbered {k}"):
            signed.coeffs(k)


def test_norm_sq_rejects_numbers_outside_the_positive_roots(system):
    # only the positive roots 0..2 carry pairing vectors; -1 used to give 509
    a2 = system("A2")
    assert a2.signed.norm_sq(2, a2.form.d) == 2
    for k in (3, 5, -1):
        with pytest.raises(InvalidArgumentError, match=f"no positive root is numbered {k}"):
            a2.signed.norm_sq(k, a2.form.d)


def test_at_most_two_lengths(system):
    for label in sweep_labels(8):
        rs = system(label)
        g = gram(rs.cartan, rs.form.d)
        norms = [rs.signed.norm_sq(k, rs.form.d) for k in range(rs.num_positive)]
        assert len(set(norms)) <= 2, label
        assert min(norms) == 2  # short roots normalised to squared length 2
        for r, norm in zip(rs.positive_roots(), norms):
            assert norm == inner(g, r.coeffs, r.coeffs), (label, r)


# -- layer structure ---------------------------------------------------------------

def test_height_distribution_monotone(system):
    for label in sweep_labels(12):
        rs = system(label)
        counts = [len(rs.layers[r]) for r in range(1, rs.max_height + 1)]
        assert counts[0] == rs.rank
        assert all(a >= b for a, b in zip(counts, counts[1:])), label
        assert sum(counts) == rs.num_positive


def test_unique_root_per_top_height(system):
    for label in sweep_labels(12):
        rs = system(label)
        rep = R.dual_partition(rs)
        m_l1 = rep.exponents[-2]
        for h in range(m_l1 + 1, rs.max_height + 1):
            assert len(rs.layer(h)) == 1, (label, h)


# -- serialization ------------------------------------------------------------------

def test_json_schema(capsys):
    assert main(["gen", "--type", "G2"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert list(d.keys()) == ["type", "rank", "cartan", "roots", "highest_root", "c_max"]
    assert d["type"] == "G2"
    assert len(d["roots"]) == 6
    assert d["highest_root"] == [3, 2]
    assert [list(r) for r in d["roots"]] == [["coeffs", "height"]] * 6
    keys = [(r["height"], r["coeffs"]) for r in d["roots"]]
    assert keys == sorted(keys)


def test_layers_ascend_by_coefficients():
    # gen writes each layer in the order enumerate_roots files it, so that
    # order must be the ascending coefficient order the JSON schema states:
    # every named type to MAX_RANK, and the leaf-search classes to rank 20
    # under a seeded relabelling
    rng = random.Random(17)
    matrices = [R.build_cartan(t) for t in R.all_types(R.MAX_RANK)]
    for c in finite_type_classes(20):
        perm = rng.sample(range(c.rank), c.rank)
        matrices.append(R.validate_cartan([[c.rows[a][b] for b in perm] for a in perm]))
    for c in matrices:
        for layer in R.enumerate_roots(c).layers:
            coeffs = [r.coeffs for r in layer]
            assert coeffs == sorted(coeffs), c.rows


def test_root_rejects_bad_coeffs():
    with pytest.raises(InvalidArgumentError):
        R.Root((0, 0))
    with pytest.raises(InvalidArgumentError):
        R.Root((1, -1))


@pytest.mark.parametrize("coeffs", [(1.5, 0), (True, 0), (1, 0.0), ("1", 0)])
def test_root_rejects_non_integer_coeffs(coeffs):
    # a float was reported as a wrong height, a bool or an integral float
    # as a duplicate, once the layers reached RootSystem
    with pytest.raises(InvalidArgumentError, match="expected integer root coefficients"):
        R.Root(coeffs)


def test_root_rejects_a_non_sequence():
    # a raw TypeError once
    with pytest.raises(InvalidArgumentError, match="expected a sequence"):
        R.Root(5)


def test_root_system_rejects_bare_tuples_in_a_layer(system):
    # a raw AttributeError once
    a2 = system("A2")
    layers = ((), ((1, 0), (0, 1)), ((1, 1),))
    with pytest.raises(InvalidArgumentError, match="expected a Root in layer 1"):
        R.RootSystem(a2.cartan, a2.form, layers, None)
    # and a form that is not rank positive ints: once accepted, with a
    # too-long d truncated by zip to a passing ledger, a short d or None
    # accepted, and strings raising a bare TypeError from norm_sq
    a3 = system("A3")
    for form in (
        R.SymmetrizedForm(d=(1, 1, 1, 1, 1)),
        R.SymmetrizedForm(d=(1,)),
        None,
        R.SymmetrizedForm(d=("a", "b", "c")),
        R.SymmetrizedForm(d=(1, True, 1)),
        R.SymmetrizedForm(d=(1, 0, 1)),
        R.SymmetrizedForm(d=(1, 1.0, 1)),
        R.SymmetrizedForm(d=[1, 1, 1]),
        R.SymmetrizedForm(d=3),
        (1, 1, 1),
    ):
        with pytest.raises(InvalidArgumentError, match="expected a SymmetrizedForm"):
            R.RootSystem(a3.cartan, form, a3.layers, None)
    # a d of the right shape but wrong values reaches the checks
    wrong = R.RootSystem(a3.cartan, R.SymmetrizedForm(d=(1, 2, 3)), a3.layers, None)
    assert wrong.form.d == (1, 2, 3)
    # and a Cartan matrix that is not a CartanMatrix, once a raw
    # AttributeError, or a label that is not a string, once accepted
    for cartan in (a3.cartan.rows, [list(row) for row in a3.cartan.rows], None, "A3"):
        with pytest.raises(InvalidArgumentError, match="expected a CartanMatrix"):
            R.RootSystem(cartan, a3.form, a3.layers, None)
    for label in (5, b"A3", ("A3",)):
        with pytest.raises(InvalidArgumentError, match="expected a str label or None"):
            R.RootSystem(a3.cartan, a3.form, a3.layers, label)
    assert R.RootSystem(a3.cartan, a3.form, a3.layers, "mine").label == "mine"


def _a2_chain(top):
    """A2's Cartan matrix and form with (h - 1, 1) alone at each height h
    from 2 to top, so that c_max is top - 1; each layer is sorted, as gen's
    oracle sorts it."""
    a2 = R.build_system("A2")
    layers = ((), (R.Root((0, 1)), R.Root((1, 0)))) + tuple(
        (R.Root((h - 1, 1)),) for h in range(2, top + 1)
    )
    return R.RootSystem(a2.cartan, a2.form, layers, None)


def test_a_coefficient_at_the_cap_is_accepted(system):
    # hand-built systems whose largest coefficient is COEFFICIENT_CAP = 9:
    # each builds, is ledgered through every check, and renders as gen's
    # json.dumps text, one digit per coefficient
    assert roots.COEFFICIENT_CAP == 9
    for rs in (
        _a2_chain(10),
        with_top(system("G2"), (1, 9)),
        with_top(system("G2"), (9, 1)),
        tall_a12(),
    ):
        assert rs.c_max() == 9, rs.layers[-1]
        ledger = R.build_ledger(rs)
        assert ledger.c_max == 9 and not ledger.passed, rs.layers[-1]
        assert cli._gen_text(rs, "\n") == json.dumps(gen_payload(rs), indent=2)


def test_a_coefficient_past_the_cap_is_refused(system):
    # (h - 1, 1) up to height 11 and up to 258, a 10 at heights 101 and 104
    # under tall_a12's top, and G2 under a top of (1, 128) or (1, 256), which
    # no 8-bit field holds: RootSystem names the lowest root past the cap
    ten = (10,) + (9,) * 10
    tall = tall_a12()
    swapped = list(tall.layers)
    swapped[101], swapped[104] = (R.Root(ten + (1,)),), (R.Root(ten + (4,)),)
    for build, root in (
        (lambda: _a2_chain(11), (10, 1)),
        (lambda: _a2_chain(258), (10, 1)),
        (lambda: R.RootSystem(tall.cartan, tall.form, tuple(swapped), None), ten + (1,)),
        (lambda: with_top(system("G2"), (1, 128)), (1, 128)),
        (lambda: with_top(system("G2"), (1, 256)), (1, 256)),
    ):
        why = f"{root} has a coefficient past COEFFICIENT_CAP = 9"
        with pytest.raises(InvalidArgumentError, match="^" + re.escape(why) + "$"):
            build()


def test_root_stores_a_tuple(system):
    # a list used to be kept, and RootSystem then raised a raw TypeError
    # when it hashed it
    a2 = system("A2")
    r = R.Root([1, 0])
    assert type(r.coeffs) is tuple and r in a2.layers[1] and r.height == 1
    layers = ((), (r, R.Root([0, 1])), (R.Root([1, 1]),))
    hand = R.RootSystem(a2.cartan, a2.form, layers, None).signed

    def by_root(signed):  # each positive root's vector, in any order
        return {signed.coeffs(k): pv for k, pv in enumerate(signed.pairings)}

    assert by_root(hand) == by_root(a2.signed)


def test_a_root_is_its_checked_tuple(monkeypatch):
    # a Root equals and hashes as its coefficient tuple and keeps its repr;
    # pickling under every protocol, and copying, rebuild it through its
    # gate, Root.__new__, where protocols 0 and 1 would otherwise rebuild a
    # tuple subclass by tuple.__new__
    r = R.Root((1, 0))
    assert r == (1, 0) and hash(r) == hash((1, 0)) and isinstance(r, tuple)
    assert repr(r) == "Root(1, 0)" and (r.coeffs, r.height) == ((1, 0), 1)
    gate, calls = R.Root.__new__, []
    monkeypatch.setattr(R.Root, "__new__", lambda cls, c: calls.append(c) or gate(cls, c))
    rebuilt = [pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    rebuilt += [copy.copy(r), copy.deepcopy(r)]
    assert calls == [(1, 0)] * len(rebuilt)
    assert all(type(x) is R.Root and x == r for x in rebuilt)


def test_root_systems_hold_only_tuples(system):
    # key_layers was a list of lists, and a hand-built system kept the
    # layers it was given: appending to either left the system's counts,
    # signed roots, membership and gen's records disagreeing.  Every layer
    # and key layer is now a tuple, and a hand-built system copies the
    # layers it is given
    with pytest.raises(AttributeError):
        R.build_system("A2").key_layers[1].append(257)
    a2 = system("A2")
    given = [list(layer) for layer in a2.layers]
    hand = R.RootSystem(a2.cartan, a2.form, given, None)
    given[2].append(R.Root((2, 0)))
    assert len(list(hand.positive_roots())) == hand.num_positive == 3
    assert len(hand.signed.pairings) == 3 and (2, 0) not in hand
    assert hand.layers == a2.layers
    for rs in (hand, R.build_system("A2"), system("G2"), tall_a12()):
        for rows in (rs.layers, rs.key_layers):
            assert type(rows) is tuple and {type(row) for row in rows} == {tuple}


def test_membership_reads_the_positive_keys(system):
    # `coeffs in rs` packs coeffs into a key and looks it up among the
    # positive keys, on enumerated and hand-built systems alike: every
    # positive root is in, as a tuple or a list; negated roots, the zero
    # vector, a vector of another length (whose bytes may spell a root's
    # key) and entries past 255 are not; what is not an iterable of ints
    # raises, a float entry included
    a2 = system("A2")
    for rs in (a2, system("G2"), R.RootSystem(a2.cartan, a2.form, a2.layers, None), tall_a12()):
        n = rs.rank
        for r in rs.positive_roots():
            assert r.coeffs in rs and list(r.coeffs) in rs, r
            assert tuple(-c for c in r.coeffs) not in rs, r
            assert r.coeffs + (0,) not in rs and (0,) + r.coeffs not in rs, r
        theta = rs.highest_root().coeffs
        for coeffs in ((0,) * n, theta[1:], (256,) + theta[1:], (1 << 64,) * n, (-1,) * n):
            assert coeffs not in rs, coeffs
        for coeffs in (5, None, [[1]] + [0] * (n - 1), (1.0,) + (0,) * (n - 1), "1" * n):
            with pytest.raises(InvalidArgumentError, match="expected a sequence of coefficients"):
                coeffs in rs
    # the bytes of (0, 1, 0) read as A2's key of (1, 0), and (1,) as (0, 1)
    assert (0, 1, 0) not in a2 and (1,) not in a2 and (1, 0) in a2 and (0, 1) in a2


def test_root_systems_refuse_assignment(system):
    # once labelled A2, a G2 system whose signed roots were cached would be
    # ledgered as A2 from G2's roots; enumerated and hand-built systems
    # refuse every assignment and deletion, while their lazy fields still
    # fill on first read
    g2 = R.build_system("G2")
    hand = R.RootSystem(g2.cartan, g2.form, system("G2").layers, "G2")
    for rs in (g2, hand):
        rs.signed
        with pytest.raises(AttributeError, match="cannot assign to field 'cartan'"):
            rs.cartan = R.build_cartan("A2")
        with pytest.raises(AttributeError, match="cannot assign to field 'label'"):
            rs.label = "A2"
        for name in ("cartan", "signed", "layers", "form", "key_layers"):
            with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
                delattr(rs, name)
        assert rs.label == "G2" and rs.cartan == R.build_cartan("G2")
        assert rs.layers == system("G2").layers and rs.form == R.symmetrizer(rs.cartan)
        ledger = R.build_ledger(rs)
        assert ledger.label == "G2" and ledger.passed and ledger.case == 1
