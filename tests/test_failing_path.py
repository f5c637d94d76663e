"""The failing path pinned as GOLDEN pins the passing one: the ledger JSON
of a seeded corpus of corrupted systems, hashed.

A deliberate change to what a failing ledger reports changes the digest
and is logged in CHANGES.md; the per-row failure counts and the error and
blocked note counts tell such a change apart by row."""

import collections
import hashlib
import json
import random

import rootsys as R

from oracles import edited, relabel, swap_one_root, truncated, with_doubles, wrong_d

TYPES = ("A3", "A5", "B3", "B5", "C3", "C4", "D4", "D5", "E6", "F4", "G2", "E7")
RELABELLINGS = 9  # seeded, besides the Bourbaki labelling

DIGEST = "ed6ebf79878a7ada59ae10982fb2b92e196b815ffd5d750cdc2b52f235c746a0"
FAILED_ROWS = {
    "exponents_agree": 1070,
    "main_relation": 1337,
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


def corrupted_corpus(system):
    """(name, system) pairs: for each type, under its own labelling and
    seeded relabellings, a root swapped for a non-root at every height that
    has one a unit away, a seeded root dropped at every height below the
    top, a truncation at every height that holds a single root, a seeded
    wrong symmetrizer, and the roots with their doubles."""
    rng = random.Random(31)
    out = []
    for label in TYPES:
        base = system(label)
        for v in range(RELABELLINGS + 1):
            rs = base if v == 0 else relabel(base, rng.sample(range(base.rank), base.rank))
            tag = f"{label}/{v}"
            for h in range(1, rs.max_height + 1):
                try:
                    out.append((f"{tag} swap {h}", swap_one_root(rs, h)))
                except AssertionError:  # every move of a simple root is a root
                    pass
                if h < rs.max_height:
                    c = rng.choice(rs.layer(h)).coeffs
                    out.append((f"{tag} drop {h}", edited(rs, drop=[c])))
                if rs.layer_sizes[h] == 1:
                    out.append((f"{tag} cut {h}", truncated(rs, h)))
            d = tuple(rng.randint(1, 3) for _ in range(rs.rank))
            out.append((f"{tag} d {d}", wrong_d(rs, d)))
            out.append((f"{tag} doubles", with_doubles(rs)))
    return out


def test_failing_path_digest(system):
    payload = []
    failed, notes = collections.Counter(), collections.Counter()
    for name, rs in corrupted_corpus(system):
        ledger = R.build_ledger(rs).to_json_dict()
        payload.append([name, ledger])
        for row, res in ledger["checks"].items():
            failed[row] += not res["pass"]
            notes[res.get("note", "").partition(":")[0]] += 1
    assert len(payload) == 2090
    assert dict(failed) == FAILED_ROWS
    assert {k: notes[k] for k in NOTES} == NOTES
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == DIGEST
