"""The failing path pinned as GOLDEN pins the passing one: the ledger JSON
of a seeded corpus of corrupted systems, hashed.

A deliberate change to what a failing ledger reports changes the digest
and is logged in CHANGES.md; the per-row failure counts and the error and
blocked note counts tell such a change apart by row."""

import collections
import hashlib
import json

import pytest

import rootsys as R
from oracles import ledger_payload, reflection_closure

DIGEST = "f9662b7a118f2e68d624d0e1789b5ca9318fe78ba7b29723a19f8a8753ef07d3"
FAILED_ROWS = {
    "exponents_agree": 1070,
    "main_relation": 1364,
    "mark_chain": 398,
    "chains_coincide": 1266,
    "step_multiset": 1214,
    "step_nonramification": 1193,
    "differences": 1218,
    "lengths": 1230,
    "string_descent": 454,
    "two_of_three_sums": 1850,
    "long_pair_positive": 1780,
    "no_detour": 99,
}
NOTES = {"error": 1579, "blocked": 6590}


@pytest.fixture(scope="module")
def ledgered(corrupted_ledgers):
    """(name, system, ledger payload) for each system of the corpus, from the
    session's one ledgering of it."""
    return [(name, rs, ledger_payload(ledger)) for name, rs, ledger in corrupted_ledgers]


def test_failing_path_digest(ledgered):
    payload = []
    failed, notes = collections.Counter(), collections.Counter()
    for name, _, ledger in ledgered:
        payload.append([name, ledger])
        for row, res in ledger["checks"].items():
            failed[row] += not res["pass"]
            notes[res.get("note", "").partition(":")[0]] += 1
    assert len(payload) == 2090
    assert dict(failed) == FAILED_ROWS
    assert {k: notes[k] for k in NOTES} == NOTES
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == DIGEST


def test_a_passing_ledger_certifies_its_root_set(ledgered):
    # README: a set whose positive part is not the root system's either has
    # a simple reflection that escapes it, which two_of_three_sums reports,
    # or fails exponents_agree; so a passing ledger's set is the true one.
    # The root system here is the Cartan-only reflection closure.  And
    # main_relation holds d to the symmetrizer, so a passing ledger's form
    # is the true one too.
    closures = {}
    wrong = passing = 0
    for name, rs, ledger in ledgered:
        if all(c["pass"] for c in ledger["checks"].values()):
            passing += 1
            assert rs.form.d == R.symmetrizer(rs.cartan).d, name
        if rs.cartan not in closures:
            closures[rs.cartan] = reflection_closure(rs.cartan)
        if {r.coeffs for r in rs.positive_roots()} == closures[rs.cartan]:
            continue
        wrong += 1
        checks = ledger["checks"]
        escaped = checks["two_of_three_sums"].get("note", "").startswith("not Weyl-stable")
        assert escaped or not checks["exponents_agree"]["pass"], name
    assert wrong == 1850 and passing == 121
