"""Chain structures, the case split, and the structural checks."""

import collections
import functools
import itertools
import json
import operator
import random

import pytest

import rootsys as R
import rootsys.scans as S
import rootsys.verify as V
from rootsys.cli import _ledger_text, main
from rootsys.errors import InvalidArgumentError, NumericInconsistencyError
from rootsys.scans import COUNTEREXAMPLE_CAP
from rootsys.verify import (
    CheckResult,
    VerificationLedger,
    check_chains_coincide,
    check_differences,
    check_lengths,
    check_long_pair_positive,
    check_no_detour,
    check_step_multiset,
    check_step_nonramification,
    check_string_descent,
    check_two_of_three_sums,
    weyl_orbits,
)

from conftest import small_labels, sweep_labels
from oracles import (
    based_two_of_three_sums,
    edited,
    form_pairings,
    fraction_symmetrizer,
    gram,
    inner,
    ledger_payload,
    long_pairs,
    reflection_orbit,
    relabel,
    root_number,
    signed_roots,
    swap_one_root,
    truncated,
    tuple_no_detour,
    tuple_string_descent,
    tuple_weyl_orbits,
    two_of_three_triples,
    with_doubles,
    with_top,
    wrong_d,
)


def _rep(rs):
    return R.dual_partition(rs)


def _top(rs):
    return R.top_chain(rs, _rep(rs))


# -- mark chain ----------------------------------------------------------------

def test_mark_chain_pins(system):
    assert R.mark_chain(system("A5")).marks == (1,)
    assert R.mark_chain(system("A5")).simple_indices == ()

    g2 = R.mark_chain(system("G2"))
    assert g2.simple_indices == (2, 1)
    assert g2.marks == (1, 2, 3)

    b3 = R.mark_chain(system("B3"))
    assert b3.simple_indices == (2,)
    assert b3.marks == (1, 2)


def test_mark_chain_sizes(system):
    for label in sweep_labels(12):
        rs = system(label)
        chain = R.mark_chain(rs)
        assert len(chain.marks) == rs.c_max(), label
        assert chain.marks == tuple(range(1, rs.c_max() + 1))


# -- top chain -----------------------------------------------------------------

def test_top_chain_pins(system):
    g2 = _top(system("G2"))
    assert g2.m == 4
    assert [sum(r) for r in g2.roots] == [5, 4, 3, 2]
    assert g2.step_indices == (2, 1, 1)

    a2 = _top(system("A2"))
    assert a2.m == 1
    assert a2.step_indices == ()

    b2 = _top(system("B2"))
    assert b2.m == 2
    rs = system("B2")
    assert rs.signed.pairings[b2.numbers[0]][b2.step(1) - 1] == 2


def test_top_chain_requires_rank_two(system):
    rs = system("A1")
    with pytest.raises(InvalidArgumentError):
        R.top_chain(rs, R.dual_partition(rs))


def test_top_chain_steps_always_simple(system):
    # top_chain raises on a step that is not a simple root; each step it
    # records is the difference of its two roots, and each number is its
    # root's in the signed-root table, hand-built systems included
    systems = [system(label) for label in sweep_labels(12)]
    systems.append(wrong_d(system("F4"), (1, 1, 1, 1)))
    for rs in systems:
        top, label = _top(rs), rs.label
        assert [rs.signed.coeffs(k) for k in top.numbers] == list(top.roots)
        assert len(top.step_indices) == top.m - 1, label
        for t in range(1, top.m):
            diff = tuple(a - b for a, b in zip(top.roots[t - 1], top.roots[t]))
            assert diff == tuple(int(k == top.step(t)) for k in range(1, len(diff) + 1)), label


# -- case split ------------------------------------------------------------------

def test_case_pins(system):
    g2 = _top(system("G2"))
    assert (g2.case, g2.witness) == (1, 2)
    assert g2.witness == g2.m - 2
    for label in ("A5", "F4"):
        top = _top(system(label))
        assert (top.case, top.witness) == (2, None), label


def test_case_one_only_for_g2(system):
    for label in sweep_labels(12):
        rs = system(label)
        assert (_top(rs).case == 1) == (label == "G2"), label


def test_main_relation_pins(system):
    for label, cmax, m2 in (("G2", 3, 5), ("E8", 6, 7), ("D4", 2, 3)):
        rs = system(label)
        rep = _rep(rs)
        assert rs.c_max() == cmax
        assert rep.exponents[1] == m2


def test_mark_one_iff_top_one(system):
    for label in sweep_labels(12):
        rs = system(label)
        assert (rs.c_max() == 1) == (_top(rs).m == 1), label


# -- chain coincidence -------------------------------------------------------------

def test_chains_coincide_pins(system):
    for label, expected in (("A5", set()), ("B4", {2}), ("G2", {1, 2})):
        rs = system(label)
        chain = R.mark_chain(rs)
        top = _top(rs)
        assert set(chain.simple_indices) == expected, label
        assert set(top.step_indices) == expected, label
        assert check_chains_coincide(chain, top).passed


def test_chains_coincide_everywhere(system):
    for label in sweep_labels(12):
        rs = system(label)
        res = check_chains_coincide(R.mark_chain(rs), _top(rs))
        assert res.passed, (label, res.counterexamples)


def test_chains_coincide_fails_each_way(system):
    # one root replaced in each: the sets agree but the mark chain is not
    # the steps' prefix; a mark chain as long as the top chain, which no
    # prefix of its m - 1 steps matches; and both halves at once
    for rs, cx in (
        (
            edited(system("G2"), drop=[(3, 1)], add=[(2, 2)]),
            [{"steps": [1, 2, 1], "marks": [2, 1]}],
        ),
        (
            edited(system("A4"), drop=[(1, 1, 1, 1)], add=[(1, 2, 1, 0)]),
            [{"step_set": [], "mark_set": [2]}, {"steps": [], "marks": [2]}],
        ),
        (
            edited(system("B2"), drop=[(1, 1)], add=[(0, 2)]),
            [{"step_set": [1], "mark_set": [2]}, {"steps": [1], "marks": [2]}],
        ),
    ):
        led = R.build_ledger(rs)
        assert led.checks["mark_chain"].passed, led.checks["mark_chain"].note
        res = led.checks["chains_coincide"]
        assert not res.passed and res.counterexamples == cx, res.counterexamples
    a4 = edited(system("A4"), drop=[(1, 1, 1, 1)], add=[(1, 2, 1, 0)])
    assert len(R.mark_chain(a4).simple_indices) >= _top(a4).m == 1


def test_mark_chain_checks_the_affine_degree_first(system):
    # B3 read with d = (1, 2, 3) under a top (2, 3, 2) two heights up: the
    # affine vertex attaches at alpha_1 and alpha_2, and the marks (1, 3)
    # along a path to alpha_2 break too; the degree is reported
    rs = with_top(wrong_d(system("B3"), (1, 2, 3)), (2, 3, 2))
    assert sorted(rs.extended_graph[0]) == [1, 2]
    with pytest.raises(
        R.InternalInconsistencyError, match="affine vertex must attach at exactly one vertex"
    ):
        R.mark_chain(rs)


def test_extended_graph_rejects_a_non_positive_top_length(system):
    # (theta, theta) = 0 once raised a bare ZeroDivisionError, and -2 built
    # an affine edge of multiplicity -4
    for d, top, norm in (((2, 2), (4, 4), 0), ((2, 1), (4, 3), -2)):
        rs = with_top(wrong_d(system("G2"), d), top)
        message = f"the highest root has squared length {norm}, not a positive one"
        with pytest.raises(R.InternalInconsistencyError, match=message):
            rs.extended_graph
        led = R.build_ledger(rs)
        assert led.checks["mark_chain"].note == f"error: {message}"
        assert led.checks["chains_coincide"].note == "blocked: mark chain unavailable"


# -- step multiset / differences / lengths -------------------------------------------

def test_step_multiset_g2(system):
    rs = system("G2")
    top = _top(rs)
    res = check_step_multiset(rs, top)
    assert res.passed, res.counterexamples
    assert top.step(top.m - 1) == top.step(top.m - 2)  # doubled final step
    assert rs.cartan.a(top.step(2), top.step(1)) == -3


def test_step_multiset_case_two(system):
    for label in ("A4", "C3", "B2", "E6"):
        rs = system(label)
        top = _top(rs)
        res = check_step_multiset(rs, top)
        assert res.passed, (label, res.counterexamples)
        assert len(set(top.step_indices)) == len(top.step_indices)
    # C3: first pairing is 2, so the chain stops at m = 2
    c3 = system("C3")
    top = _top(c3)
    assert top.m == 2 and c3.signed.pairings[top.numbers[0]][top.step(1) - 1] == 2


def test_differences_g2(system):
    rs = system("G2")
    top = _top(rs)
    res = check_differences(rs, top)
    assert res.passed, res.counterexamples
    diff = tuple(a - b for a, b in zip(top.roots[1], top.roots[3]))
    assert diff == (2, 0)  # theta_2 - theta_4 is twice a simple root


def test_differences_case_two(system):
    for label in ("E7", "F4", "B5", "A6"):
        rs = system(label)
        top = _top(rs)
        res = check_differences(rs, top)
        assert res.passed, (label, res.counterexamples)
        # adjacent differences are the steps themselves
        for t in range(1, top.m):
            diff = tuple(a - b for a, b in zip(top.roots[t - 1], top.roots[t]))
            assert diff in rs


def test_step_multiset_and_differences_fail_on_edited_chains(system):
    # no valid system breaks these rules, so edited chains stand in: G2's
    # chain read on B2, whose turn pairs to -1; G2's steps all alpha_1, a
    # repeated head whose prefix leaves the affine vertex by no edge and
    # whose turn pairs to 2; a case-2 chain of A3 with m = 3 whose prefix
    # [0, 1] misses the affine vertex's edge to alpha_3; and G2's theta_2 -
    # theta_4 made (2, 1), which is not twice a simple root
    g2, b2, a3 = system("G2"), system("B2"), system("A3")
    top = _top(g2)
    res = check_step_multiset(b2, top)
    assert res.counterexamples == [
        {"reason": "head prefix is not a simple chain", "path": [0, 2]},
        {"reason": "turn pairing must be -3", "pairing": -1},
    ]
    res = check_step_multiset(g2, top._replace(step_indices=(1, 1, 1)))
    assert res.counterexamples == [
        {"reason": "head steps must be distinct", "steps": [1, 1, 1]},
        {"reason": "head prefix is not a simple chain", "path": [0, 1]},
        {"reason": "turn pairing must be -3", "pairing": 2},
    ]
    roots = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    chain = V.TopChain(roots, tuple(root_number(a3, r) for r in roots), (1, 2), 2, None)
    res = check_step_multiset(a3, chain)
    assert res.counterexamples == [{"reason": "prefix is not a simple chain", "path": [0, 1]}]
    res = check_differences(g2, top._replace(roots=(top.roots[0], (3, 2)) + top.roots[2:]))
    assert res.counterexamples == [{"i": 2, "j": 4, "difference": [2, 1]}]


def test_lengths(system):
    for label in ("G2", "F4", "A5", "E6", "E8"):
        rs = system(label)
        top = _top(rs)
        res = check_lengths(rs, top)
        assert res.passed, (label, res.counterexamples)
    g2 = system("G2")
    top = _top(g2)
    long_sq = 2 * max(g2.form.d)
    norms = [g2.signed.norm_sq(k, g2.form.d) for k in top.numbers[:2]]
    assert norms == [long_sq, long_sq]
    g = gram(g2.cartan, g2.form.d)
    step = tuple(int(k == top.step(1) - 1) for k in range(g2.rank))
    assert inner(g, step, step) == long_sq


def test_lengths_fails_on_wrong_d(system):
    g2 = wrong_d(system("G2"), (1, 1))
    res = check_lengths(g2, _top(g2))
    assert not res.passed
    assert res.counterexamples == [{"norms": [2, 8, 2]}]


def test_step_nonramification(system):
    for label in ("G2", "D5", "E8", "B6"):
        rs = system(label)
        res = check_step_nonramification(rs, _top(rs))
        assert res.passed, (label, res.counterexamples)


# -- lemma scans ---------------------------------------------------------------------

def test_string_descent_small(system):
    for label in small_labels():
        res = check_string_descent(system(label))
        assert res.passed, (label, res.counterexamples)
    # simply laced systems have no applicable pairs at all
    assert "0 applicable" in check_string_descent(system("A4")).note
    # G2 pin: beta = 3a1 + a2 against alpha_1 descends through alpha_2
    g2 = system("G2")
    assert g2.signed.pairings[root_number(g2, (3, 1))][0] == 3
    assert (1, 0) in g2  # (3,1) - 2*(1,0) - (0,1)
    res = check_string_descent(g2)
    assert res.passed and "1 applicable" in res.note


def test_two_of_three_small(system):
    for label in ("A2", "B2", "G2", "A3", "C3"):
        rs = system(label)
        res = check_two_of_three_sums(rs, weyl_orbits(rs))
        assert res.passed, (label, res.counterexamples)
        assert res.note.startswith("exhaustive")


def _scan_both(rs):
    """(orbit scan passed, brute-force oracle passed).  On a Weyl-stable set
    the orbit scan's qualifying count must be the oracle's counts of triples
    through each representative, summed: such a triple is scanned once, as
    (r, b, c) with b <= c."""
    triples = two_of_three_triples(rs)
    orbits = weyl_orbits(rs)
    res = check_two_of_three_sums(rs, orbits)
    if not orbits.escapes:
        vs = signed_roots(rs)
        count = sum(vs[r] in t[:3] for r in orbits.representatives for t in triples)
        assert f", {count} qualifying triples" in res.note, res.note
    return res.passed, all(ok for *_, ok in triples)


def test_two_of_three_differential_oracle(system):
    # every type of rank <= 6, which includes E6, F4 and G2
    for label in sweep_labels(6):
        rs = system(label)
        assert _scan_both(rs) == (True, True), label
        if rs.max_height > 2:  # A2: its only root of height 2 is the top
            # the swapped A3 still satisfies the lemma; only the orbit scan,
            # which sees that the set is not Weyl-stable, catches it
            assert _scan_both(swap_one_root(rs, 2)) == (False, label == "A3"), label
    for label in ("A2", "A3", "B2", "G2"):
        assert _scan_both(with_doubles(system(label))) == (False, False), label


def test_pairing_table(system):
    # the signed roots numbered positives first in positive_roots() order,
    # then their negatives, each key decoding to its root and negated for
    # the negative; vectors: 2(beta, alpha_i)/(alpha_i, alpha_i) from the
    # integer form, for valid and hand-built systems alike
    systems = [system(str(t)) for t in R.all_types(6)]
    systems += [swap_one_root(rs, 2) for rs in systems if rs.max_height > 2]
    systems += [with_doubles(system(label)) for label in ("A2", "A3", "B2", "G2")]
    # the benchmark's defect shapes past rank 6, and tall hand-built tops
    # at the coefficient cap
    systems += [swap_one_root(system(label), 5) for label in ("B8", "D8", "E8")]
    systems += [with_top(system("G2"), (1, 9)), with_top(system("G2"), (9, 1))]
    for rs in systems:
        signed, n = rs.signed, rs.num_positive
        vs = signed_roots(rs)
        assert len(signed.keys) == len(vs) and len(signed.pairings) == n
        assert signed.number == {key: k for k, key in enumerate(signed.keys)}
        for k, v in enumerate(vs):
            assert signed.coeffs(k) == v, (rs.label, k, v)
            assert signed.keys[k] == sum(map(operator.mul, v, signed.unit)), (rs.label, v)
        for k in range(n):
            assert signed.keys[k + n] == -signed.keys[k], (rs.label, vs[k])
            assert signed.pairings[k] == form_pairings(rs, signed.coeffs(k)), (rs.label, vs[k])


def test_weyl_orbits(system):
    # W is transitive on the roots of each length
    for label, root_lengths in (("A4", 1), ("G2", 2), ("F4", 2), ("E6", 1)):
        rs = system(label)
        orbits = weyl_orbits(rs)
        assert len(orbits.representatives) == root_lengths, label
        assert orbits.escapes == () and len(rs.signed.keys) == 2 * rs.num_positive


def test_weyl_orbits_match_the_signed_closure(system):
    # the positive-half closure against the oracle's closure over all 2N
    # signed roots: every type to rank 16, a seeded relabelling of each, and
    # Weyl-stable sets with doubled roots, where orbits inside span(Delta_J)
    # hold multiples of simple roots
    rng = random.Random(31)
    systems = []
    for t in R.all_types(16):
        rs = system(str(t))
        systems += [rs, relabel(rs, rng.sample(range(rs.rank), rs.rank))]
    for label in ("A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4", "E6"):
        systems.append(with_doubles(system(label)))
    for rs in systems:
        orbits = weyl_orbits(rs)
        assert not orbits.escapes, rs.cartan.rows
        assert orbits == tuple_weyl_orbits(rs), rs.cartan.rows


def _every_triple(rs):
    """Each signed root as its own representative and its own stabilizer
    orbit: not the Weyl orbits, but an input without escapes on which the
    triple scan sums every signed triple."""
    every = range(2 * rs.num_positive)
    return S.WeylOrbits(tuple(every), (), tuple(tuple((b, 1) for b in every) for _ in every))


def test_tall_hand_built_tops_match_tuple_oracles(system, monkeypatch):
    # hand-built G2 sets under a top root of height 10 with a coefficient
    # at the cap, in either coordinate: the largest reflections and sums of
    # three roots any RootSystem can give the 8-bit key fields
    systems = [
        with_top(system("G2"), (1, 9)),
        with_top(system("G2"), (9, 1)),
    ]
    for rs in systems:
        assert weyl_orbits(rs) == tuple_weyl_orbits(rs), rs.layers[-1]
        every = _every_triple(rs)
        assert check_two_of_three_sums(rs, every) == based_two_of_three_sums(rs, every)
        ledger = ledger_payload(R.build_ledger(rs))
        with monkeypatch.context() as m:
            m.setattr(V, "weyl_orbits", tuple_weyl_orbits)
            m.setattr(V, "check_two_of_three_sums", based_two_of_three_sums)
            assert ledger_payload(R.build_ledger(rs)) == ledger, rs.layers[-1]


def test_height_window_matches_the_full_scan(system):
    # the triple scan reads its third roots from a height window, the
    # oracle from every signed root: verdict, counterexamples in order and
    # note alike on every type to rank 32 and a seeded relabelling of each,
    # on doubled sets, where counterexamples occur, and with every signed
    # root as its own orbit, which puts negative roots first and second,
    # also on tall hand-built tops at the coefficient cap
    rng = random.Random(32)
    inputs = []
    for t in R.all_types(32):
        rs = system(str(t))
        for s in (rs, relabel(rs, rng.sample(range(rs.rank), rs.rank))):
            inputs.append((s, weyl_orbits(s)))
    for label in ("A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4"):
        rs = with_doubles(system(label))
        inputs.append((rs, weyl_orbits(rs)))
    for rs in (
        system("A3"),
        system("B3"),
        system("G2"),
        with_doubles(system("G2")),
        with_top(system("G2"), (1, 9)),
        with_top(system("G2"), (9, 1)),
    ):
        inputs.append((rs, _every_triple(rs)))
    failed = 0
    for rs, orbits in inputs:
        res = check_two_of_three_sums(rs, orbits)
        assert res == based_two_of_three_sums(rs, orbits), (rs.cartan.rows, rs.layers[-1])
        failed += not res.passed
    assert failed >= 8, failed


def test_descent_scans_match_tuple_oracles(system):
    # key lookups against tuple lookups, verdict, counterexamples in order
    # and note alike: every type to rank 12, a seeded relabelling of each,
    # and hand-built sets, the last two tall tops at the coefficient cap
    rng = random.Random(22)
    systems = []
    for t in R.all_types(12):
        rs = system(str(t))
        systems += [rs, relabel(rs, rng.sample(range(rs.rank), rs.rank))]
    systems += [swap_one_root(rs, 2) for rs in systems if rs.max_height > 2]
    systems += [with_doubles(system(label)) for label in ("A2", "A3", "B2", "G2")]
    systems += [
        edited(system("G2"), add=[(2, 0)]),
        with_top(system("G2"), (1, 9)),
        with_top(system("G2"), (9, 1)),
    ]
    failed = collections.Counter()
    for rs in systems:
        for check, oracle in (
            (check_string_descent, tuple_string_descent),
            (check_no_detour, tuple_no_detour),
        ):
            res = check(rs)
            assert res == oracle(rs), (check.__name__, rs.cartan.rows, rs.layers[-1])
            failed[check.__name__] += not res.passed
    # both scans fail somewhere, so counterexamples are compared too
    assert failed["check_string_descent"] and failed["check_no_detour"], failed


def test_scans_fail_on_swapped_root(system):
    bad = swap_one_root(system("F4"), 5)
    orbits = weyl_orbits(bad)
    escapes = orbits.escapes
    assert escapes
    for check in (check_two_of_three_sums, check_long_pair_positive):
        res = check(bad, orbits)
        assert not res.passed
        assert res.note.startswith("not Weyl-stable")
        assert len(res.counterexamples) == min(len(escapes), COUNTEREXAMPLE_CAP)
        cx = res.counterexamples[0]
        assert tuple(cx["root"]) in signed_roots(bad)
        assert tuple(cx["image"]) not in signed_roots(bad)


def test_long_pair_positive(system):
    for label in ("A3", "B3", "G2", "C4"):
        rs = system(label)
        res = check_long_pair_positive(rs, weyl_orbits(rs))
        assert res.passed, (label, res.counterexamples)


def test_long_pair_positive_fails_on_wrong_d(system):
    # A2 read with d = (1, 2): the one long pair fails with (lambda, b) = 0,
    # so a strict "< 0" test would pass this set
    a2 = wrong_d(system("A2"), (1, 2))
    res = check_long_pair_positive(a2, weyl_orbits(a2))
    assert not res.passed
    assert res.counterexamples == [{"beta1": [1, 1], "beta2": [1, 0]}]
    assert inner(gram(a2.cartan, a2.form.d), (1, 1), (1, 0)) == 0
    # G2 read with d = (1, 1): the failing pairs have negative products
    g2 = wrong_d(system("G2"), (1, 1))
    res = check_long_pair_positive(g2, weyl_orbits(g2))
    assert not res.passed
    assert res.counterexamples[0] == {"beta1": [2, 1], "beta2": [-1, 0]}
    g = gram(g2.cartan, g2.form.d)
    assert all(inner(g, c["beta1"], c["beta2"]) < 0 for c in res.counterexamples)


def test_stabilizer_reduction(system):
    # every type of rank <= 6, a seeded relabeling of each, and four
    # Weyl-stable sets on which the lemmas fail
    rng = random.Random(8)
    systems = []
    for t in R.all_types(6):
        rs = system(str(t))
        systems += [rs, relabel(rs, rng.sample(range(rs.rank), rs.rank))]
    systems += [with_doubles(system(label)) for label in ("A2", "A3", "B2", "G2")]
    for rs in systems:
        orbits = weyl_orbits(rs)
        assert not orbits.escapes
        vs = signed_roots(rs)
        reps = orbits.representatives
        assert len(orbits.stabilizer_orbits) == len(reps)
        # each signed root lies in the W-orbit of exactly one representative
        full = [reflection_orbit(rs, vs[r], range(1, rs.rank + 1)) for r in reps]
        for v in vs:
            assert sum(v in orbit for orbit in full) == 1, (rs.cartan.rows, v)
        for r, partners in zip(reps, orbits.stabilizer_orbits):
            lam = vs[r]
            pv = form_pairings(rs, lam)
            assert min(pv) >= 0, (rs.cartan.rows, lam)
            J = [i for i, p in enumerate(pv, start=1) if p == 0]
            assert sum(size for _, size in partners) == len(vs)
            covered: set = set()
            for b, size in partners:
                orbit = reflection_orbit(rs, vs[b], J)
                assert len(orbit) == size and not orbit & covered, (lam, vs[b])
                covered |= orbit
        # the reduced long-pair scan counts what the plain scan counts
        # through each representative
        pairs = long_pairs(rs)
        res = check_long_pair_positive(rs, orbits)
        count = sum(a == vs[r] for r in reps for a, _, _ in pairs)
        assert f", {count} qualifying pairs" in res.note, res.note
        assert res.passed == all(ok for *_, ok in pairs)


def test_no_detour(system):
    g2 = system("G2")
    res = check_no_detour(g2)
    assert res.passed and "1 applicable" in res.note
    for label in ("A4", "F4", "B3"):
        res = check_no_detour(system(label))
        assert res.passed, (label, res.counterexamples)
    # G2 with 2*alpha_1 added at height 2: (3, 1) pairs to 3 against alpha_1,
    # the only simple root it can step down by, and (3, 1) - alpha_1 - alpha_2
    # = (2, 0) is now there
    res = check_no_detour(edited(g2, add=[(2, 0)]))
    assert not res.passed
    assert res.counterexamples == [{"beta": [3, 1], "alpha": 1, "detour": 2}]
    # with 3*alpha_1 added too, (3, 1) can also step down by alpha_2, so the
    # lemma does not apply to it and (2, 0) is no detour
    res = check_no_detour(edited(g2, add=[(2, 0), (3, 0)]))
    assert res.passed and "0 applicable" in res.note


# -- ledger ---------------------------------------------------------------------------

def test_ledger_g2(system):
    led = R.build_ledger(system("G2"))
    assert led.passed
    assert (led.label, led.c_max, led.m2, led.case, led.witness_t) == ("G2", 3, 5, 1, 2)
    d = json.loads(_ledger_text(led, "\n"))
    assert list(d.keys()) == ["type", "c_max", "m2", "case", "witness_t", "checks"]
    for payload in d["checks"].values():
        assert payload["pass"] is True
        assert payload["counterexamples"] == []


def test_ledger_reports_dropped_root(system):
    # a dropped root breaks the dual partition; the ledger still completes
    e6 = system("E6")
    layers = list(e6.layers)
    layers[3] = layers[3][1:]
    led = R.build_ledger(R.RootSystem(e6.cartan, e6.form, tuple(layers), None))
    assert not led.passed and led.m2 == 4 and led.case is None
    assert led.checks["exponents_agree"].note.startswith("error: ")
    assert led.checks["chains_coincide"].note == "blocked: dual exponents unavailable"
    assert led.checks["lengths"].note == "blocked: dual exponents unavailable"
    assert list(led.checks) == list(R.build_ledger(e6).checks)


def test_ledger_reports_non_finite_cartan(system, monkeypatch):
    # the Coxeter route raises its documented NumericInconsistencyError on
    # A3, as on a matrix of infinite type: the ledger still completes, with
    # no headline m2
    rows = list(R.build_ledger(system("A3")).checks)

    def raising(c):
        raise NumericInconsistencyError("Coxeter power entry outside [-64, 64)")

    monkeypatch.setattr(V, "coxeter_exponents", raising)
    led = R.build_ledger(system("A3"))
    assert not led.passed and led.m2 is None
    assert json.loads(_ledger_text(led, "\n"))["m2"] is None
    assert led.checks["exponents_agree"].note.startswith(
        "error: Coxeter power entry outside"
    )
    assert list(led.checks) == rows
    assert R.g2_criterion_report([led])["m2_minus_2_types"] == []


def test_ledger_reports_missing_mark_chain(system):
    # C3 with its top root swapped: the mark chain cannot be built
    led = R.build_ledger(swap_one_root(system("C3"), 5))
    assert not led.passed
    assert list(led.checks) == list(R.build_ledger(system("C3")).checks)
    assert (
        led.checks["mark_chain"].note
        == "error: mark chain coefficients (1, 3) are not 1..q+1"
    )
    assert led.checks["chains_coincide"].note == "blocked: mark chain unavailable"


def test_ledger_reports_non_simple_step(system):
    # C3 with a height-4 root swapped: the top chain steps by (2, -1, 0),
    # so it is not built, and every check that needs it says so
    led = R.build_ledger(swap_one_root(system("C3"), 4))
    assert not led.passed and led.case is None
    assert led.checks["main_relation"].note == (
        "error: top-chain step 1 is (2, -1, 0), not a simple root"
    )
    for name in ("chains_coincide", "step_multiset", "lengths"):
        assert led.checks[name].note == "blocked: top chain unavailable", name


def _failing_systems(system):
    """One corrupted system per ledger row, in registry order, on which
    that row fails with counterexamples of its own."""
    e6 = system("E6")
    g2_unit_d = wrong_d(system("G2"), (1, 1))
    return {
        # top root (1, 1): dual exponents (1, 2), Coxeter exponents (1, 3)
        "exponents_agree": truncated(system("B2"), 2),
        "main_relation": g2_unit_d,
        # c_max = 1 on a graph with a branch point
        "mark_chain": truncated(system("D4"), 4),
        # step set {1} against mark set {2}
        "chains_coincide": swap_one_root(system("B2"), 2),
        "step_multiset": edited(system("F4"), drop=[(1, 2, 3, 2)], add=[(1, 1, 4, 2)]),
        "step_nonramification": edited(
            e6, drop=[(1, 1, 2, 3, 2, 1)], add=[(1, 2, 2, 2, 2, 1)]
        ),
        "differences": edited(e6, drop=[(0, 1, 0, 1, 0, 0)], add=[(0, 0, 0, 2, 0, 0)]),
        "lengths": g2_unit_d,
        "string_descent": swap_one_root(system("A3"), 2),
        "two_of_three_sums": with_doubles(system("A2")),
        "long_pair_positive": wrong_d(system("A2"), (1, 2)),
        "no_detour": edited(system("G2"), add=[(2, 0)]),
    }


def test_every_row_can_fail(system):
    # a new row without a failing case here breaks this test
    cases = _failing_systems(system)
    assert list(cases) == list(R.build_ledger(system("G2")).checks)
    for name, rs in cases.items():
        res = R.build_ledger(rs).checks[name]
        assert not res.passed and res.counterexamples, (name, res.note)


def test_main_relation_length_condition(system):
    # case 1, a long/short squared-length ratio of 3, c_max = m2 - 2 and a
    # triple edge coincide on every type, and only G2 has them; the ratio
    # is max(d)
    for label in sweep_labels(R.MAX_RANK):
        rs = system(label)
        rep = _rep(rs)
        top = _top(rs)
        res = V.check_main_relation(rs, top, rep)
        assert res.passed, (label, res.counterexamples)
        g2 = label == "G2"
        # a_ij * a_ji = 4 (alpha_i, alpha_j)^2 / ((alpha_i, alpha_i)(alpha_j, alpha_j))
        g = gram(rs.cartan, fraction_symmetrizer(rs.cartan).d)
        triple = any(
            4 * g[i][j] ** 2 == 3 * g[i][i] * g[j][j]
            for i, j in itertools.combinations(range(rs.rank), 2)
        )
        assert (
            top.case == 1, max(rs.form.d) == 3, rs.c_max() == rep.exponents[1] - 2, triple
        ) == (g2, g2, g2, g2), label
    for label in sweep_labels(12):
        rs = system(label)
        norms = [rs.signed.norm_sq(k, rs.form.d) for k in range(rs.num_positive)]
        assert max(norms) == 2 * max(rs.form.d), label
    g2 = system("G2")
    assert V.check_main_relation(g2, _top(g2), _rep(g2)).note == (
        "case 1: c_max = 3, m2 = 5, long/short ratio 3"
    )
    # a wrong d breaks the length condition and the form, and A3 with d =
    # (1, 2, 2), whose ratio of 2 keeps case and triple edge in step, the
    # form alone; A2 with its top root swapped for (2, 0) breaks only the
    # relation; A2's roots read with G2's Cartan matrix and d = (1, 1) break
    # the triple-edge condition and the form
    g2_rows = R.RootSystem(g2.cartan, R.SymmetrizedForm((1, 1)), system("A2").layers, None)
    for rs, cx in (
        (
            wrong_d(system("G2"), (1, 1)),
            {
                "c_max": 3, "m2": 5, "case": 1, "ratio": 1, "triple_edge": True,
                "d_is_symmetrizer": False,
            },
        ),
        (
            wrong_d(system("A2"), (1, 3)),
            {
                "c_max": 1, "m2": 2, "case": 2, "ratio": 3, "triple_edge": False,
                "d_is_symmetrizer": False,
            },
        ),
        (
            wrong_d(system("A3"), (1, 2, 2)),
            {
                "c_max": 1, "m2": 2, "case": 2, "ratio": 2, "triple_edge": False,
                "d_is_symmetrizer": False,
            },
        ),
        (
            swap_one_root(system("A2"), 2),
            {
                "c_max": 2, "m2": 2, "case": 2, "ratio": 1, "triple_edge": False,
                "d_is_symmetrizer": True,
            },
        ),
        (
            g2_rows,
            {
                "c_max": 1, "m2": 2, "case": 2, "ratio": 1, "triple_edge": True,
                "d_is_symmetrizer": False,
            },
        ),
    ):
        res = V.check_main_relation(rs, _top(rs), _rep(rs))
        assert not res.passed and res.counterexamples == [cx], cx


def test_ledger_reads_roots_from_the_signed_table_alone(monkeypatch):
    # the checks read roots by number and key in rs.signed, so an enumerated
    # system's ledger never builds the membership set behind `coeffs in
    # rs`, and a set that raises leaves every ledger as it was
    ledgers = {}
    for label in sweep_labels(12):
        rs = R.build_system(label)
        ledger = R.build_ledger(rs)
        assert ledger.passed and "_positive_keys" not in vars(rs), label
        assert "layers" not in vars(rs), label  # the top chain decodes no layer
        ledgers[label] = json.dumps(ledger_payload(ledger))

    def refuse(rs):
        raise AssertionError("the membership set was built")

    monkeypatch.setattr(R.RootSystem, "_positive_keys", property(refuse))
    for label, expected in ledgers.items():
        assert json.dumps(ledger_payload(R.build_ledger(R.build_system(label)))) == expected


def test_ledger_builds_each_structure_once(monkeypatch, capsys):
    calls = collections.Counter()
    built = {}
    shared = (
        "coxeter_exponents", "dual_partition", "top_chain", "mark_chain", "weyl_orbits",
    )
    for module, name in [(V, name) for name in shared] + [(S, "_close")]:

        def counted(*args, _name=name, _build=getattr(module, name)):
            calls[_name] += 1
            built[_name] = _build(*args)
            return built[_name]

        monkeypatch.setattr(module, name, counted)
    for name in ("signed", "extended_graph"):

        def counted_property(rs, _name=name, _build=getattr(R.RootSystem, name).func):
            calls[_name] += 1
            return _build(rs)

        prop = functools.cached_property(counted_property)
        prop.__set_name__(R.RootSystem, name)
        monkeypatch.setattr(R.RootSystem, name, prop)
    for label in sweep_labels(8):
        calls.clear()
        assert R.build_ledger(R.build_system(label)).passed, label
        # one closure per representative's stabilizer, which both scans
        # share; one extended graph serves every chain check
        closures = len(built["weyl_orbits"].representatives)
        expected = dict.fromkeys(shared + ("signed", "extended_graph"), 1) | {
            "_close": closures
        }
        assert calls == expected, (label, calls)
    # a set that is not Weyl-stable is never closed, and has no orbits
    for label in ("B3", "F4", "E6"):
        calls.clear()
        assert not R.build_ledger(swap_one_root(R.build_system(label), 2)).passed
        orbits = built["weyl_orbits"]
        assert orbits.escapes and not orbits.representatives and not orbits.stabilizer_orbits
        assert calls["_close"] == 0, (label, calls)
    # gen and exponents never need the signed-root table
    calls.clear()
    assert main(["gen", "--all", "--max-rank", "8"]) == 0
    assert main(["exponents", "--all", "--max-rank", "8", "--method", "both"]) == 0
    capsys.readouterr()
    assert calls["signed"] == calls["extended_graph"] == 0


def test_constructor_rejects_malformed_layers(system):
    # each type of rank 2-9 with its only top root dropped: such a system
    # used to reach build_ledger and raise IndexError from highest_root
    labels = sweep_labels(9)
    assert len(labels) == 35
    for label in labels:
        rs = system(label)
        with pytest.raises(InvalidArgumentError, match="top height layer has 0 roots"):
            R.RootSystem(rs.cartan, rs.form, rs.layers[:-1] + ((),), None)
    b3 = system("B3")
    theta = b3.highest_root()
    short, long = R.Root((1, 0)), R.Root((0, 1, 0, 0))
    for layers, why in (
        (((), (short,) + b3.layers[1][1:]) + b3.layers[2:], r"\(1, 0\) has 2 coefficients"),
        (((), (long,) + b3.layers[1][1:]) + b3.layers[2:], "has 4 coefficients; the rank is 3"),
        (b3.layers[:3], "top height layer has 2 roots"),
        (((theta,),) + b3.layers[1:], "layer 0"),
        (b3.layers[:2] + (b3.layers[2] + (theta,),) + b3.layers[3:], "filed under 2"),
        ((), "layer 0"),
        (b3.layers[:2] + (b3.layers[2] * 2,) + b3.layers[3:], "listed twice"),
        (((),), "top height layer has 0 roots"),
        (5, "expected the layers as a sequence of sequences of Roots"),
        (((), 3), "expected the layers as a sequence of sequences of Roots"),
        # a Root is a sequence too, so it stands in for a layer of ints
        (b3.layers[:-1] + (theta,), "expected a Root in layer 5, got 1"),
    ):
        with pytest.raises(InvalidArgumentError, match=why):
            R.RootSystem(b3.cartan, b3.form, layers, None)
    # these used to raise a raw TypeError
    for coeffs in (5, [[1]], [[1], 0, 0]):
        with pytest.raises(InvalidArgumentError, match="expected a sequence of coefficients"):
            coeffs in b3
    # a well-formed tuple that is not a positive root, negated roots
    # included, is simply not in the system
    for coeffs in ((-1, 0, 0), (0, 0, 0), (9, 9, 9), (1, 0)):
        assert coeffs not in b3, coeffs
    assert [1, 0, 0] in b3
    # a coordinate too many would drop out of the pairing table unseen
    a2 = system("A2")
    with pytest.raises(InvalidArgumentError, match="has 3 coefficients; the rank is 2"):
        layers = ((), (R.Root((0, 1, 0)), a2.layers[1][1]), a2.layers[2])
        R.RootSystem(a2.cartan, a2.form, layers, None)


def test_relabeled_ledgers_pass(system):
    # the checks must not lean on the Bourbaki labeling: permuting the
    # simple roots keeps every ledger passing with the same headline
    rng = random.Random(2017)
    for label in sweep_labels(9):
        rs = system(label)
        canonical = R.build_ledger(rs)
        for _ in range(4):
            perm = rng.sample(range(rs.rank), rs.rank)
            led = R.build_ledger(relabel(rs, perm))
            failed = [n for n, r in led.checks.items() if not r.passed]
            assert not failed, (label, perm, failed)
            assert (led.c_max, led.m2, led.case) == (
                canonical.c_max,
                canonical.m2,
                canonical.case,
            ), (label, perm)


def test_a_ledger_passes_only_with_every_row(system):
    # passed requires the rows of LEDGER_ROWS, each passed: an empty
    # ledger, a built one missing a row or holding an extra one, and one
    # whose rows were cleared after building do not pass, while every
    # sweep ledger does
    names = [check.__name__.removeprefix("check_") for check, _ in V.LEDGER_ROWS]
    assert len(names) == 12 and V.ROW_NAMES == set(names)
    assert not VerificationLedger("", 1, 2, 1, 2, {}).passed
    for label in sweep_labels(12):
        ledger = R.build_ledger(system(label))
        assert ledger.passed and list(ledger.checks) == names, label
        for name in names:
            rows = {n: c for n, c in ledger.checks.items() if n != name}
            assert not ledger._replace(checks=rows).passed, (label, name)
        extra = ledger.checks | {"extra": CheckResult(True, [])}
        assert not ledger._replace(checks=extra).passed, label
        ledger.checks.clear()
        assert not ledger.passed, label


def test_ledger_rejects_rank_one(system):
    with pytest.raises(InvalidArgumentError):
        R.build_ledger(system("A1"))


def test_g2_criterion_report(system):
    ledgers = [R.build_ledger(system(label)) for label in sweep_labels(8)]
    assert R.g2_criterion_report(ledgers) == {
        "pass": True, "case1_types": ["G2"], "m2_minus_2_types": ["G2"]
    }
    # the report reads the ledgers, not their labels: G2 under another name
    # still passes, and no G2 at all is an empty sweep, not a failure
    g2 = R.build_ledger(system("G2"))._replace(label="custom")
    assert R.g2_criterion_report([g2])["pass"]
    assert R.g2_criterion_report([]) == {
        "pass": True, "case1_types": [], "m2_minus_2_types": []
    }
    # a case-1 ledger whose headline misses c_max = m2 - 2 fails it
    g2 = g2._replace(m2=6)
    assert R.g2_criterion_report([g2]) == {
        "pass": False, "case1_types": ["custom"], "m2_minus_2_types": []
    }
