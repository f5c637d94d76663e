"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

import rootsys as R
from rootsys.verify import (
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

from conftest import built, small_labels, sweep_labels
from oracles import duality_identities, reflection_closure

SWEEP = sweep_labels(12)


@pytest.fixture(scope="module")
def sweep_data():
    """label -> (system, dual report, coxeter report, top chain with its case)."""
    data = {}
    for label in SWEEP:
        rs = built(label)
        rep_d = R.dual_partition(rs)
        rep_c = R.coxeter_exponents(rs.cartan)
        data[label] = (rs, rep_d, rep_c, R.top_chain(rs, rep_d))
    return data


def _verdict(n: int, name: str) -> None:
    print(f"[criterion {n}] {name}: PASS")


def test_criterion_1_main_relation_sweep():
    started = time.perf_counter()
    case1 = []
    failures = []
    for label in SWEEP:
        rs = R.build_system(label)  # fresh builds: the timing must be honest
        rep = R.dual_partition(rs)
        case = R.top_chain(rs, rep).case
        if case == 1:
            case1.append(label)
        expected = rep.exponents[1] - (2 if case == 1 else 1)
        if rs.c_max() != expected:
            failures.append((label, rs.c_max(), expected))
    elapsed = time.perf_counter() - started
    assert not failures, failures
    assert case1 == ["G2"]
    assert len(SWEEP) == 47
    assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"
    _verdict(1, f"main relation sweep ({len(SWEEP)} types, {elapsed:.2f} s)")


def test_criterion_2_g2_criterion(sweep_data):
    for label, (rs, rep_d, _, _) in sweep_data.items():
        holds = rs.c_max() == rep_d.exponents[1] - 2
        c = rs.cartan
        triple = any(c.a(i, j) * c.a(j, i) == 3 for i in range(1, c.rank + 1) for j in range(1, i))
        assert holds == triple == (label == "G2"), label
    g2, rep_d = sweep_data["G2"][0], sweep_data["G2"][1]
    assert g2.c_max() == 3 and rep_d.exponents[1] == 5
    ledgers = [
        R.VerificationLedger(label, rs.c_max(), rep.exponents[1],
                             top.case, top.witness, {})
        for label, (rs, rep, _, top) in sweep_data.items()
    ]
    report = R.g2_criterion_report(ledgers)
    assert report == {"pass": True, "case1_types": ["G2"], "m2_minus_2_types": ["G2"]}
    _verdict(2, "c_max = m2 - 2 exactly for G2")


def test_criterion_3_exponent_cross_validation(sweep_data):
    for label, (_, rep_d, rep_c, _) in sweep_data.items():
        assert rep_d.exponents == rep_c.exponents, label
        assert rep_d.coxeter_number == rep_c.coxeter_number, label
        assert rep_c == R.ExponentReport(rep_d.exponents, rep_d.coxeter_number, rep_c.method), label
    assert sweep_data["E8"][1].exponents == (1, 7, 11, 13, 17, 19, 23, 29)
    assert sweep_data["E8"][1].coxeter_number == 30
    assert sweep_data["F4"][1].exponents == (1, 5, 7, 11)
    assert sweep_data["F4"][1].coxeter_number == 12
    _verdict(3, "dual partition equals Coxeter eigenvalues on all swept types")


def test_criterion_4_duality_identities(sweep_data):
    for label, (rs, rep_d, _, _) in sweep_data.items():
        identities = duality_identities(rep_d, rs)
        assert all(identities.values()), (label, identities)
    _verdict(4, "exponent duality identities on all swept types")


def test_criterion_5_structure_theorems(sweep_data):
    for label, (rs, _, _, top) in sweep_data.items():
        chain = R.mark_chain(rs)
        assert len(chain.marks) == rs.c_max(), label
        assert chain.marks == tuple(range(1, rs.c_max() + 1)), label
        res = check_chains_coincide(chain, top)
        assert res.passed, (label, res.counterexamples)
        res = check_step_multiset(rs, top)
        assert res.passed, (label, res.counterexamples)
        res = check_differences(rs, top)
        assert res.passed, (label, res.counterexamples)
    # G2 specifics: doubled final step, -3 turn pairing, difference in 2*simple
    rs, _, _, top = sweep_data["G2"]
    assert top.case == 1 and top.m == 4
    assert top.step(3) == top.step(2)
    assert rs.cartan.a(top.step(2), top.step(1)) == -3
    diff = tuple(a - b for a, b in zip(top.roots[1], top.roots[3]))
    assert sorted(diff) == [0, 2]
    _verdict(5, "chain coincidence, marks, step multiset, differences")


def test_criterion_6_lemma_suites(sweep_data):
    for label, (rs, _, _, top) in sweep_data.items():
        orbits = weyl_orbits(rs)
        for name, res in (
            ("string_descent", check_string_descent(rs)),
            ("two_of_three_sums", check_two_of_three_sums(rs, orbits)),
            ("long_pair_positive", check_long_pair_positive(rs, orbits)),
            ("no_detour", check_no_detour(rs)),
            ("step_nonramification", check_step_nonramification(rs, top)),
            ("lengths", check_lengths(rs, top)),
        ):
            assert res.passed, (label, name, res.counterexamples)
            if name in ("two_of_three_sums", "long_pair_positive"):
                assert res.note.startswith("exhaustive"), (label, res.note)
    n = len(sweep_data)
    _verdict(6, f"lemma scans with zero counterexamples, exhaustive on all {n} types")


def test_criterion_7_oracle_equivalence():
    labels = small_labels()
    assert "B2" in labels and "C2" in labels
    for label in labels:
        rs = built(label)
        assert {r.coeffs for r in rs.positive_roots()} == set(
            reflection_closure(rs.cartan)
        ), label
    _verdict(7, f"enumeration equals reflection closure on {len(labels)} types")


def test_criterion_8_conjugacy_invariance(sweep_data):
    rng = random.Random(20240801)
    for label, (rs, _, rep_c, _) in sweep_data.items():
        for _ in range(3):
            perm = list(range(1, rs.rank + 1))
            rng.shuffle(perm)
            c = rs.cartan
            rep = R.coxeter_exponents(R.validate_cartan([[c.a(p, q) for q in perm] for p in perm]))
            assert rep.coxeter_number == rep_c.coxeter_number, (label, perm)
            assert rep.exponents == rep_c.exponents, (label, perm)
            assert rep == rep_c, (label, perm)
    _verdict(8, "Coxeter exponents invariant under 3 random relabellings per type")
