"""Exponents by dual partition and by Coxeter eigenvalues."""

import random

import pytest

import rootsys as R
from rootsys.errors import InvalidArgumentError, NumericInconsistencyError
from rootsys.exponents import coxeter_traces

from conftest import stand_in, sweep_labels
from oracles import coxeter_matrix, coxeter_order, duality_identities, exact_det


def test_height_distribution_pins(system):
    # the layer sizes dual_partition reads
    for label, counts in (("A2", (2, 1)), ("G2", (2, 1, 1, 1, 1)), ("B2", (2, 1, 1))):
        assert tuple(map(len, system(label).layers[1:])) == counts, label


def test_dual_partition_pins(system):
    rep = R.dual_partition(system("A2"))
    assert (rep.exponents, rep.coxeter_number) == ((1, 2), 3)
    rep = R.dual_partition(system("G2"))
    assert (rep.exponents, rep.coxeter_number) == ((1, 5), 6)
    rep = R.dual_partition(system("B2"))
    assert (rep.exponents, rep.coxeter_number) == ((1, 3), 4)


def _hand_built(*layers):
    """Rank-2 roots filed by height, over A2's Cartan data."""
    a2 = R.build_system("A2")
    root_layers = tuple(tuple(R.Root(c) for c in layer) for layer in layers)
    return R.RootSystem(a2.cartan, a2.form, ((),) + root_layers, None)


def test_dual_partition_rejects_bad_distributions():
    # layer sizes (2, 1, 2, 1)
    rs = _hand_built([(1, 0), (0, 1)], [(1, 1)], [(2, 1), (1, 2)], [(2, 2)])
    with pytest.raises(InvalidArgumentError, match="must be weakly decreasing"):
        R.dual_partition(rs)
    # layer sizes (1, 1): a first entry below the rank would create zero exponents
    rs = _hand_built([(1, 0)], [(1, 1)])
    with pytest.raises(InvalidArgumentError, match="starts at 1, expected rank 2"):
        R.dual_partition(rs)


def test_coxeter_matrix_pins():
    assert coxeter_matrix(R.build_cartan("A1")) == ((-1,),)
    m = coxeter_matrix(R.build_cartan("A2"))
    assert coxeter_order(m, 10) == 3
    m = coxeter_matrix(R.build_cartan("G2"))
    assert coxeter_order(m, 20) == 6


def test_coxeter_matrix_determinant():
    for label in ("A2", "B3", "C4", "D4", "F4", "G2", "E6"):
        c = R.build_cartan(label)
        assert exact_det(coxeter_matrix(c)) == (-1) ** c.rank


def _relabel(c, perm):
    """c with its simple roots renumbered: new root k is old root perm[k - 1]."""
    return R.validate_cartan([[c.a(p, q) for q in perm] for p in perm])


def _dense_traces(c, perm) -> tuple[int, tuple[int, ...]]:
    m = coxeter_matrix(c, perm)
    h = coxeter_order(m, 2 * (10 * c.rank + 1))
    p = [[int(i == j) for j in range(c.rank)] for i in range(c.rank)]
    traces = []
    for _ in range(h):
        traces.append(sum(p[i][i] for i in range(c.rank)))
        p = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in p]
    return h, tuple(traces)


def test_coxeter_traces_match_dense_powers():
    # the dense coxeter_matrix / coxeter_order route is the oracle for the
    # packed reflection chain: the relabelled matrix's index-ascending
    # Coxeter element is the original's product in the order perm, so
    # the traces agree exactly; three random relabellings per type of
    # rank <= 12, and one on each classical type at the rank ceiling
    rng = random.Random(3)
    cases = [(t, 3) for t in R.all_types(12)]
    cases += [(f"{f}{R.MAX_RANK}", 1) for f in "ABCD"]
    for t, draws in cases:
        c = R.build_cartan(t)
        for _ in range(draws):
            perm = rng.sample(range(1, c.rank + 1), c.rank)
            assert coxeter_traces(_relabel(c, perm)) == _dense_traces(c, perm), (str(t), perm)


# Matrices that CartanMatrix refuses, passed as stand-ins: their Coxeter
# elements have infinite order.
INFINITE_TYPE = [
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2, a 3-cycle
    # affine D4: a node with four neighbours
    ((2, 0, 0, 0, -1), (0, 2, 0, 0, -1), (0, 0, 2, 0, -1), (0, 0, 0, 2, -1),
     (-1, -1, -1, -1, 2)),
    ((2, -3, 0), (-3, 2, -3), (0, -3, 2)),  # hyperbolic
    ((2, -1000), (-1, 2)),
    # entries grow by one per power, so a field too narrow for one
    # reflection would wrap back into range and pass the guard
    ((2, 0), (-1, 2)),
    # pins the field width's spread term: fields sized by |1 - a_ii| + 1
    # alone wrap back into range, so the guard never fires and the order
    # search ends without finding -I
    ((2, -5, 1), (-5, 2, -5), (2, -5, 1)),
]


def test_coxeter_exponents_rejects_affine_matrix():
    # the powers grow past every root bound: the packed rows' range guard
    # must stop them, so no exponents come back from a wrapped field
    for rows in INFINITE_TYPE:
        with pytest.raises(NumericInconsistencyError, match="cannot be finite type"):
            R.coxeter_exponents(stand_in(rows))


def test_coxeter_exponents_pins():
    rep = R.coxeter_exponents(R.build_cartan("A1"))
    assert (rep.exponents, rep.coxeter_number) == ((1,), 2)
    rep = R.coxeter_exponents(R.build_cartan("A2"))
    assert (rep.exponents, rep.coxeter_number) == ((1, 2), 3)
    rep = R.coxeter_exponents(R.build_cartan("E8"))
    assert (rep.exponents, rep.coxeter_number) == ((1, 7, 11, 13, 17, 19, 23, 29), 30)
    rep = R.coxeter_exponents(R.build_cartan("D4"))
    assert (rep.exponents, rep.coxeter_number) == ((1, 3, 3, 5), 6)


def test_methods_agree_up_to_rank_twelve(system):
    for t in R.all_types(12):
        rs = system(str(t))
        dual = R.dual_partition(rs)
        cox = R.coxeter_exponents(rs.cartan)
        assert dual.exponents == cox.exponents, str(t)
        assert dual.coxeter_number == cox.coxeter_number, str(t)
        assert cox == R.ExponentReport(dual.exponents, dual.coxeter_number, cox.method), str(t)


def test_methods_agree_up_to_max_rank(system):
    for t in R.all_types(R.MAX_RANK):
        rs = system(str(t))
        cox, dual = R.coxeter_exponents(rs.cartan), R.dual_partition(rs)
        assert cox == R.ExponentReport(dual.exponents, dual.coxeter_number, cox.method), str(t)


def test_half_period_exactly_when_every_exponent_is_odd(system):
    # c^(h/2) = -I, read as tr(c^(h/2)) = -rank, exactly when every exponent
    # is odd (Humphreys, Reflection Groups and Coxeter Groups, 3.19), and
    # the traces then change sign half a period on
    odd = set()
    for t in R.all_types(R.MAX_RANK):
        rs = system(str(t))
        h, traces = coxeter_traces(rs.cartan)
        half = h // 2
        half_turn = h % 2 == 0 and traces[half] == -rs.rank
        assert half_turn == all(m % 2 for m in R.dual_partition(rs).exponents), str(t)
        if half_turn:
            assert all(traces[half + j] == -traces[j] for j in range(half)), str(t)
            odd.add(str(t))
    assert {"B2", "C3", "D4", "E7", "E8", "F4", "G2"} <= odd
    assert odd.isdisjoint({"A2", "A3", "D5", "E6"})


def test_order_equals_top_height_plus_one(system):
    for label in ["A1"] + sweep_labels(12):
        rs = system(label)
        m = coxeter_matrix(rs.cartan)
        h = coxeter_order(m, 2 * (10 * rs.rank + 1))
        assert h == rs.max_height + 1, label


def test_duality_identities(system):
    for label in sweep_labels(12):
        rs = system(label)
        rep = R.dual_partition(rs)
        identities = duality_identities(rep, rs)
        assert len(identities) == 5
        assert all(identities.values()), (label, identities)


def test_duality_pins(system):
    g2 = system("G2")
    rep = R.dual_partition(g2)
    assert rep.exponents[-1] == 5 == sum(g2.highest_root().coeffs)
    f4 = system("F4")
    rep = R.dual_partition(f4)
    assert sum(rep.exponents) == 24 == f4.num_positive


def test_conjugacy_invariance_sample():
    rng = random.Random(1105)
    for label in ("A4", "B3", "D4", "F4", "G2"):
        c = R.build_cartan(label)
        reference = R.coxeter_exponents(c)
        for _ in range(3):
            perm = list(range(1, c.rank + 1))
            rng.shuffle(perm)
            rep = R.coxeter_exponents(_relabel(c, perm))
            assert rep.exponents == reference.exponents, (label, perm)
            assert rep.coxeter_number == reference.coxeter_number


def test_report_serialization():
    rep = R.coxeter_exponents(R.build_cartan("B2"))
    d = rep.to_json_dict()
    assert d == {"exponents": [1, 3], "h": 4, "method": "coxeter-eigenvalues"}
