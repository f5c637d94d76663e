"""Cartan matrices, symmetrizer, and the extended Dynkin graph."""

import collections
import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rootsys as R
from rootsys.errors import (
    InvalidArgumentError,
    InvalidCartanError,
    InvalidTypeError,
)
from rootsys.cartan import _walk, nonzero_pattern
from rootsys.verify import is_simple_chain

from conftest import sweep_labels, with_identity_block
from oracles import (
    cartan_from_geometry,
    cartan_violations,
    dense_pattern,
    dense_walk,
    finite_type_classes,
    fraction_symmetrizer,
    gram,
    inner,
    tree_canon,
)


# -- type bounds -------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ["A1", "B2", "C2", "D4", "E6", "E7", "E8", "F4", "G2", "A12", "D12", f"C{R.MAX_RANK}"],
)
def test_rank_bounds_accept(text):
    assert str(R.RankedType.parse(text)) == text


@pytest.mark.parametrize(
    "text",
    ["A0", "B1", "C1", "D3", "D2", "E5", "E9", "F3", "F5", "G1", "G3", "H3",
     f"A{R.MAX_RANK + 1}", "D100000"],
)
def test_rank_bounds_reject(text):
    with pytest.raises(InvalidTypeError):
        R.RankedType.parse(text)


def test_all_types_rank_ceiling():
    assert R.RankedType("D", R.MAX_RANK) in R.all_types(R.MAX_RANK)
    for bad in (0, R.MAX_RANK + 1):
        with pytest.raises(InvalidArgumentError):
            R.all_types(bad)


def test_all_types_lists_what_the_constructor_accepts():
    # the classification's ranks, in family order and ascending rank, and
    # exactly the family-rank pairs RankedType accepts
    for n in range(1, R.MAX_RANK + 1):
        expected = (
            [("A", r) for r in range(1, n + 1)]
            + [("B", r) for r in range(2, n + 1)]
            + [("C", r) for r in range(2, n + 1)]
            + [("D", r) for r in range(4, n + 1)]
            + [("E", r) for r in (6, 7, 8) if r <= n]
            + [("F", 4)] * (n >= 4)
            + [("G", 2)] * (n >= 2)
        )
        assert [(t.family, t.rank) for t in R.all_types(n)] == expected, n
    accepted = []
    for family in "ABCDEFG":
        for rank in range(1, R.MAX_RANK + 1):
            try:
                accepted.append(R.RankedType(family, rank))
            except InvalidTypeError:
                pass
    assert accepted == R.all_types(R.MAX_RANK)


def test_parse_rejects_garbage():
    for text in ["", "A", "7", "Axx", "G", "A\u00b2", "A" + "9" * 5000, 5, None, b"A3"]:
        with pytest.raises(InvalidTypeError):
            R.RankedType.parse(text)


@pytest.mark.parametrize(
    "family, rank",
    [("A", True), ("B", 3.0), ("A", "3"), ("A", None), (5, 3), ("AB", 3), ("", 3)],
)
def test_ranked_type_rejects_a_non_int_rank_or_an_unknown_family(family, rank):
    # a bool rank printed as ATrue and built A1, a float rank reached
    # build_cartan, and a str rank or a non-letter family raised raw errors
    with pytest.raises(InvalidTypeError):
        R.RankedType(family, rank)


@pytest.mark.parametrize("max_rank", ["3", True, False, 3.0, None])
def test_all_types_rejects_a_non_int_bound(max_rank):
    with pytest.raises(InvalidArgumentError, match="an int between"):
        R.all_types(max_rank)


@pytest.mark.parametrize("t", [5, None, ("A", 3), b"A3"])
def test_build_cartan_takes_only_a_ranked_type_or_a_str(t):
    with pytest.raises(InvalidArgumentError, match="a RankedType or a str"):
        R.build_cartan(t)


# -- built matrices against the geometric oracle ------------------------------

def test_a2_matrix_literal():
    assert R.build_cartan("A2").rows == ((2, -1), (-1, 2))


def test_a2_matches_geometry():
    # two equal lengths at 120 degrees
    oracle = cartan_from_geometry([2, 2], {(0, 1): Fraction(1, 4)})
    assert [list(r) for r in R.build_cartan("A2").rows] == oracle


def test_g2_matches_geometry():
    # alpha_1 short, alpha_2 long at ratio sqrt(3), angle 150 degrees
    oracle = cartan_from_geometry([2, 6], {(0, 1): Fraction(3, 4)})
    assert [list(r) for r in R.build_cartan("G2").rows] == oracle
    assert oracle == [[2, -3], [-1, 2]]


def test_b3_matches_geometry():
    # two long roots at 120 degrees, short last root at 135 degrees
    oracle = cartan_from_geometry(
        [4, 4, 2], {(0, 1): Fraction(1, 4), (1, 2): Fraction(1, 2)}
    )
    assert [list(r) for r in R.build_cartan("B3").rows] == oracle
    assert oracle[1][2] == -1 and oracle[2][1] == -2


def test_all_built_types_validate():
    for t in R.all_types(12):
        c = R.build_cartan(t)
        assert R.validate_cartan([list(r) for r in c.rows]) == c


# -- symmetrizer ---------------------------------------------------------------

def test_symmetrizer_pins():
    assert R.symmetrizer(R.build_cartan("A2")).d == (1, 1)
    assert R.symmetrizer(R.build_cartan("G2")).d == (1, 3)
    assert R.symmetrizer(R.build_cartan("B3")).d == (2, 2, 1)
    assert R.symmetrizer(R.build_cartan("C3")).d == (1, 1, 2)
    assert R.symmetrizer(R.build_cartan("F4")).d == (2, 2, 1, 1)


def test_symmetrizer_exactly_symmetric_everywhere():
    for t in R.all_types(R.MAX_RANK):
        c = R.build_cartan(t)
        form = R.symmetrizer(c)
        n = c.rank
        assert min(form.d) == 1
        assert all(type(x) is int for x in form.d)
        for i in range(n):
            for j in range(n):
                assert form.d[i] * c.rows[i][j] == form.d[j] * c.rows[j][i]


def test_symmetrizer_matches_fraction_oracle():
    # the integer ratios against Fraction ones: every named type, and every
    # finite-type class to rank 20 both as the leaf search found it and
    # under a seeded relabelling
    rng = random.Random(22)
    matrices = [R.build_cartan(t) for t in R.all_types(R.MAX_RANK)]
    for c in finite_type_classes(20):
        perm = rng.sample(range(c.rank), c.rank)
        matrices += [c, R.CartanMatrix([[c.rows[a][b] for b in perm] for a in perm])]
    for c in matrices:
        assert R.symmetrizer(c) == fraction_symmetrizer(c), c.rows


# Matrices that no symmetrizer d can serve never reach symmetrizer: the
# CartanMatrix gate rejects each one, so no CartanMatrix holds them.

def test_symmetrizer_rejects_non_integral_d():
    # d = (3/2, 1) would symmetrize this matrix, which is not of finite type
    with pytest.raises(InvalidCartanError) as err:
        R.symmetrizer(R.CartanMatrix(((2, -2), (-3, 2))))
    assert err.value.violations == ("product-bound", "not-positive-definite")


def test_symmetrizer_rejects_unsymmetrizable_cycle():
    # tree edges would give d = (2, 1, 2), which the closing edge between
    # vertices 2 and 3 breaks: d_2 * a_23 = -1, d_3 * a_32 = -2
    with pytest.raises(InvalidCartanError) as err:
        R.symmetrizer(R.CartanMatrix(((2, -1, -1), (-2, 2, -1), (-1, -1, 2))))
    assert err.value.violations == ("not-positive-definite",)


@pytest.mark.parametrize("rows", [((2, -1), (0, 2)), ((2, 0), (-1, 2))])
def test_symmetrizer_rejects_one_sided_zero(rows):
    # no d can balance a zero against a nonzero
    with pytest.raises(InvalidCartanError) as err:
        R.symmetrizer(R.CartanMatrix(rows))
    assert err.value.violations == ("sign",)


@pytest.mark.parametrize("rows", [((2, 1), (-1, 2)), ((2, -1), (1, 2))])
def test_symmetrizer_rejects_opposite_signs(rows):
    # d_2 = d_1 * a_12 / a_21 would be negative, breaking min(d) = 1; the
    # enumeration, which starts from symmetrizer, must not build a system
    with pytest.raises(InvalidCartanError) as err:
        R.symmetrizer(R.CartanMatrix(rows))
    assert err.value.violations == ("sign", "product-bound")
    with pytest.raises(InvalidCartanError):
        R.enumerate_roots(R.CartanMatrix(rows))


@pytest.mark.parametrize("rows", [((2, 1), (1, 2)), ((2, 2), (1, 2))])
def test_symmetrizer_rejects_positive_edge(rows):
    # both entries positive: d = (1, 1) or (1, 2) would balance them, and
    # the enumeration would stop at the simple roots; no Cartan matrix has
    # such an edge
    with pytest.raises(InvalidCartanError) as err:
        R.symmetrizer(R.CartanMatrix(rows))
    assert err.value.violations == ("sign",)
    with pytest.raises(InvalidCartanError):
        R.enumerate_roots(R.CartanMatrix(rows))


# -- validation rejections -------------------------------------------------------

def test_validate_accepts_simply_laced():
    assert R.validate_cartan([[2, -1], [-1, 2]]).rows == ((2, -1), (-1, 2))


def test_validate_rejects_affine():
    with pytest.raises(InvalidCartanError) as err:
        R.validate_cartan([[2, -2], [-2, 2]])
    assert "not-positive-definite" in err.value.violations


def test_validate_rejects_decomposable():
    with pytest.raises(InvalidCartanError) as err:
        R.validate_cartan([[2, 0], [0, 2]])
    assert err.value.violations == ("decomposable",)


def test_validate_rejects_bad_diagonal_and_sign():
    with pytest.raises(InvalidCartanError) as err:
        R.validate_cartan([[1, -1], [-1, 2]])
    assert "diagonal" in err.value.violations
    with pytest.raises(InvalidCartanError) as err:
        R.validate_cartan([[2, 1], [1, 2]])
    assert "sign" in err.value.violations
    with pytest.raises(InvalidCartanError) as err:
        R.validate_cartan([[2, -1], [0, 2]])  # zero must be mutual
    assert "sign" in err.value.violations


def test_validate_rejects_cycle():
    cycle = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]  # affine A2
    with pytest.raises(InvalidCartanError) as err:
        R.validate_cartan(cycle)
    assert "not-positive-definite" in err.value.violations


def test_validate_rejects_nonsquare():
    with pytest.raises(InvalidArgumentError):
        R.validate_cartan([[2, -1]])
    with pytest.raises(InvalidArgumentError):
        R.validate_cartan([])


def test_integer_entries_keep_their_rule():
    # exact ints pass at once; an int subclass other than bool is still an
    # integer entry, and a bool, a float or a str is not
    class Int(int):
        pass

    a2 = R.build_cartan("A2")
    assert R.CartanMatrix([[Int(x) for x in row] for row in a2.rows]) == a2
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(InvalidArgumentError, match="integer entries"):
            R.CartanMatrix(((2, -1), (-1, bad)))


def test_cartan_matrix_rejects_a_non_sequence():
    # raw TypeErrors once, for the matrix and for a row
    for raw in (5, [5], [[2, -1], 5]):
        with pytest.raises(InvalidArgumentError, match="square matrix"):
            R.CartanMatrix(raw)


def test_validate_cartan_rejects_a_non_sequence():
    with pytest.raises(InvalidArgumentError, match="square matrix"):
        R.validate_cartan(5)


def test_every_construction_runs_the_gate():
    b3 = R.build_cartan("B3")
    bad = ((2, -1, 0), (-1, 2, -2), (0, -2, 2))  # a_23 * a_32 = 4
    for make in (R.CartanMatrix, R.validate_cartan):
        with pytest.raises(InvalidCartanError) as err:
            make(bad)
        assert err.value.violations == ("product-bound", "not-positive-definite")
        with pytest.raises(InvalidArgumentError):
            make(((2, -1),))
    assert R.CartanMatrix([list(row) for row in b3.rows]) == b3


def test_nonzero_pattern_matches_dense_reading():
    # every type to MAX_RANK under its own labelling and seeded
    # relabellings: the pattern the gate records, and the walk over it, are
    # those of all n^2 entries
    rng = random.Random(34)
    for t in R.all_types(R.MAX_RANK):
        rows = R.build_cartan(t).rows
        n = len(rows)
        for perm in [list(range(n))] + [rng.sample(range(n), n) for _ in range(3)]:
            c = R.validate_cartan([[rows[a][b] for b in perm] for a in perm])
            assert c.nonzero == dense_pattern(c.rows), (str(t), perm)
            assert _walk(c.nonzero) == dense_walk(c.rows), (str(t), perm)


def test_nonzero_pattern_follows_the_rows():
    # equality, hashing and repr read the rows alone, and a matrix made
    # from another's rows records their pattern
    b3, c3 = R.build_cartan("B3"), R.build_cartan("C3")
    moved = R.CartanMatrix(c3.rows)
    assert moved == c3 and hash(moved) == hash(c3)
    assert moved.nonzero == dense_pattern(c3.rows)
    assert "nonzero" not in repr(b3)


def test_gated_classes_are_set_once_by_their_gate():
    # assignment and deletion raise, as on a frozen record, no tuple route
    # such as _replace or _make makes one past the gate, and pickling and
    # copying give an equal value back
    made = (
        (R.build_cartan("A2"), ("rows", "nonzero")),
        (R.Root((1, 1)), ("coeffs", "height")),
        (R.RankedType("A", 2), ("family", "rank")),
        (R.dual_partition(R.build_system("A2")), ("exponents", "coxeter_number", "method")),
    )
    for obj, fields in made:
        for name in fields + ("other",):
            before = getattr(obj, name, None)
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name, None) == before
        assert not hasattr(obj, "_replace") and not hasattr(obj, "_make"), obj
        for again in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(again) is type(obj) and again == obj, obj
            assert all(getattr(again, name) == getattr(obj, name) for name in fields)


# -- graphs ------------------------------------------------------------------------

def _base(ext):
    """The adjacency ext with the affine vertex 0 cut off: the Dynkin graph
    of the simple roots, which is_simple_chain reads like any other."""
    return ({},) + tuple({w: mult for w, mult in adjacent.items() if w} for adjacent in ext[1:])


def test_dynkin_tree_everywhere(system):
    # A1 has no extended graph, and its one vertex no pair
    for label in sweep_labels(12):
        rs = system(label)
        c, base = rs.cartan, _base(rs.extended_graph)
        pairs = [(i, j) for i in range(1, c.rank + 1) for j in range(1, c.rank + 1) if i < j]
        for i, j in pairs:
            assert base[i].get(j, 0) == base[j].get(i, 0) == c.a(i, j) * c.a(j, i)
        assert sum(1 for i, j in pairs if base[i].get(j)) == c.rank - 1


@pytest.mark.parametrize(
    "rows, violations",
    [
        (((2, 0), (0, 2)), ("decomposable",)),
        (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), ("not-positive-definite",)),
    ],
    ids=["disconnected", "affine-A2"],
)
def test_dynkin_graph_rejects_non_tree(rows, violations):
    # a graph that is not a tree never reaches an extended graph: the gate
    # rejects its matrix, so no CartanMatrix holds it
    with pytest.raises(InvalidCartanError) as err:
        R.CartanMatrix(rows)
    assert err.value.violations == violations


def test_d4_ramification(system):
    base = _base(system("D4").extended_graph)
    assert {v for v in range(1, 5) if len(base[v]) >= 3} == {2}
    assert {v for v in range(1, 5) if len(base[v]) <= 1} == {1, 3, 4}


def test_a5_chain_shape(system):
    base = _base(system("A5").extended_graph)
    assert {v for v in range(1, 6) if len(base[v]) <= 1} == {1, 5}
    assert {v for v in range(1, 6) if len(base[v]) >= 3} == set()
    # a tree is a single-edge chain iff no degree passes 2 and every edge is single
    assert all(len(adjacent) <= 2 and set(adjacent.values()) == {1} for adjacent in base[1:])
    assert is_simple_chain(base, [1, 2, 3, 4, 5])
    assert not is_simple_chain(base, [1, 2, 4])  # 2 and 4 are not adjacent


def test_g2_extended_chain(system):
    rs = system("G2")
    ext = rs.extended_graph
    assert list(ext[0]) == [2]
    assert ext[0][2] == 1
    assert ext[1][2] == 3
    assert is_simple_chain(ext, [0, 2])
    assert not is_simple_chain(_base(ext), [1, 2])  # a triple edge


def test_simple_chain_interior_attachment(system):
    base = _base(system("D5").extended_graph)
    # 1 - 2 - 3 with the fork hanging off 3: fine when attached at 3,
    # broken when the declared endpoint is 1.
    assert is_simple_chain(base, [1, 2, 3])
    assert not is_simple_chain(base, [3, 2, 1])


def test_extended_requires_rank_two(system):
    with pytest.raises(InvalidArgumentError, match="rank >= 2"):
        system("A1").extended_graph


def test_extended_graph_matches_gram_oracle(system):
    # the edge from -theta to alpha_i has multiplicity
    # 4 (theta, alpha_i)^2 / ((alpha_i, alpha_i)(theta, theta)) when
    # (theta, alpha_i) > 0, here from the Gram matrix rather than the
    # pairing table; the edges between simple roots are the a_ij * a_ji
    for label in sweep_labels(12):
        rs = system(label)
        g = gram(rs.cartan, rs.form.d)
        theta = rs.highest_root().coeffs
        ext = rs.extended_graph
        assert len(ext) == rs.rank + 1
        for i in range(1, rs.rank + 1):
            alpha = tuple(int(k == i - 1) for k in range(rs.rank))
            t = inner(g, theta, alpha)
            mult = 4 * t * t // (inner(g, alpha, alpha) * inner(g, theta, theta))
            assert ext[0].get(i, 0) == ext[i].get(0, 0) == (mult if t > 0 else 0), (label, i)
            for j in range(1, rs.rank + 1):
                product = rs.cartan.a(i, j) * rs.cartan.a(j, i)
                assert ext[i].get(j, 0) == (product if i != j else 0), (label, i, j)


def test_bc_extended_multiplicity(system):
    # the affine vertex of C attaches by a double edge, of B by a single one
    assert system("C3").extended_graph[0][1] == 2
    b3 = system("B3").extended_graph
    assert list(b3[0]) == [2]
    assert b3[0][2] == 1


# -- fuzzing --------------------------------------------------------------------

_PAIR_OPTIONS = [
    (0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-2, -3),
]


@st.composite
def gcm_shaped(draw):
    n = draw(st.integers(2, 3))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            aij, aji = draw(st.sampled_from(_PAIR_OPTIONS))
            m[i][j], m[j][i] = aij, aji
    return m


@settings(max_examples=120, deadline=None)
@given(gcm_shaped())
def test_validate_fuzz_accept_or_named_reject(m):
    names = {"diagonal", "sign", "product-bound", "decomposable", "not-positive-definite"}
    try:
        c = R.validate_cartan(m)
    except InvalidCartanError as err:
        assert err.violations and set(err.violations) <= names
        return
    # accepted matrices must be fully usable: enumeration terminates and the
    # two exponent routes agree
    rs = R.enumerate_roots(c)
    dual = R.dual_partition(rs)
    cox = R.coxeter_exponents(c)
    assert dual.exponents == cox.exponents
    assert dual.coxeter_number == cox.coxeter_number


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_validate_fuzz_never_crashes(m):
    try:
        R.validate_cartan(m)
    except (InvalidCartanError, InvalidArgumentError):
        pass


@st.composite
def relabelled_gcm(draw):
    """A tree over the pair kinds above (a (0, 0) pair splits it), maybe
    closed into a cycle and maybe with a bad diagonal entry, relabelled."""
    n = draw(st.integers(1, 7))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        m[u][v], m[v][u] = draw(st.sampled_from(_PAIR_OPTIONS))
    if n >= 3 and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[u][v], m[v][u] = draw(st.sampled_from(_PAIR_OPTIONS[1:]))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        m[i][i] = draw(st.sampled_from([0, 1, 3, -2]))
    perm = draw(st.permutations(range(n)))
    return [[m[p][q] for q in perm] for p in perm]


@settings(max_examples=300, deadline=None)
@given(relabelled_gcm())
# matrices that code past the gate was once tested on, built directly: a
# d of (3/2, 1), a cycle that no d balances, one-sided zeros, opposite
# signs, positive edges, roots that never run out, two maximal roots, a
# row of 255 and a double edge with a_ij * a_ji = 4
@example(((2, -2), (-3, 2)))
@example(((2, -1, -1), (-2, 2, -1), (-1, -1, 2)))
@example(((2, -1), (0, 2)))
@example(((2, 0), (-1, 2)))
@example(((2, 1), (-1, 2)))
@example(((2, -1), (1, 2)))
@example(((2, 1), (1, 2)))
@example(((2, 2), (1, 2)))
@example(((2, 0), (0, 2)))
@example(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
@example(((2, -3), (-3, 2)))
@example(((2, -4), (-1, 2)))
@example(with_identity_block(((2, -300), (-1, 2)), 26))
@example(with_identity_block(((2, -300), (-1, 2)), R.MAX_RANK))
@example(((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)))
@example(((2, 0, 0), (0, 2, -1), (0, -1, 2)))
@example(((2, -1), (255, 2)))
@example(((2, -1, 0), (-1, 2, -2), (0, -2, 2)))
def test_validate_matches_definitions(m):
    try:
        R.CartanMatrix(m)
        violations = ()
    except InvalidCartanError as err:
        violations = err.violations
    assert violations == cartan_violations(m)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
    | relabelled_gcm()
)
def test_walk_matches_dense_reading_on_fuzz(m):
    # the fuzz matrices above, valid or not, one-sided zeros included: the
    # package's pattern and walk against the dense reading, and an accepted
    # matrix records that pattern
    pattern = nonzero_pattern(m)
    assert pattern == dense_pattern(m)
    assert _walk(pattern) == dense_walk(m)
    try:
        c = R.validate_cartan(m)
    except InvalidCartanError:
        return
    assert c.nonzero == pattern


# -- finite-type classes by search ------------------------------------------------

def test_leaf_search_finds_every_type():
    classes = finite_type_classes(20)
    by_rank = collections.Counter(c.rank for c in classes)
    assert [by_rank[r] for r in range(1, 21)] == [1, 3, 3, 5, 4, 5, 5, 5] + [4] * 12
    assert len(classes) == 79
    found = {tree_canon(c.rows) for c in classes}
    assert len(found) == len(classes)
    labels = collections.defaultdict(list)
    for t in R.all_types(20):
        labels[tree_canon(R.build_cartan(t).rows)].append(str(t))
    assert set(labels) == found
    assert [names for names in labels.values() if len(names) > 1] == [["B2", "C2"]]
    # the corollary without labels: exactly one class has a triple edge,
    # and its ledger alone is in case 1 and alone has c_max = m2 - 2
    triple, case1, relation = [], [], []
    for k, c in enumerate(classes):
        if any(c.a(i, j) * c.a(j, i) == 3 for i in range(1, c.rank + 1) for j in range(1, i)):
            triple.append(k)
        if c.rank >= 2:
            led = R.build_ledger(R.enumerate_roots(c))
            assert led.passed, [n for n, r in led.checks.items() if not r.passed]
            case1 += [k] * (led.case == 1)
            relation += [k] * (led.c_max == led.m2 - 2)
    assert len(triple) == 1 and triple == case1 == relation
    assert classes[triple[0]].rank == 2
    ratio_three = [c.rank for c in classes if max(R.symmetrizer(c).d) == 3]
    assert ratio_three == [2]
