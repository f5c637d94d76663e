"""The mutation catalogue: hand-made faults in the package, each with the
tests that must catch it.

Each entry of MUTANTS is (file under src/rootsys, the exact old text, the
new text, the node ids that must fail).  The node ids run once on an
unedited copy of ``src`` first, and must pass there.  Then, for each entry,
``src`` is copied to a temporary directory, that one edit is made in the
copy, and each of the entry's node ids runs in its own pytest process, one
after another, with PYTHONPATH pointing at the copy.  The checkout itself
is never edited.  The script exits 1 when an old text does not occur
exactly once in its file, or when a node id does not fail on its mutant:
only pytest's exit 1, a test failure, counts, so a node id that names no
test survives.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # a coefficient of 9 refused: COEFFICIENT_CAP itself must be accepted
    (
        "roots.py",
        "if max(r) > COEFFICIENT_CAP:",
        "if max(r) >= COEFFICIENT_CAP:",
        [
            "tests/test_roots.py::test_a_coefficient_at_the_cap_is_accepted",
            "tests/test_verify.py::test_tall_hand_built_tops_match_tuple_oracles",
        ],
    ),
    # an orbit inside span(Delta_J) holds its negatives: its size doubles
    (
        "scans.py",
        "pos.append((b, 2 * size))",
        "pos.append((b, size))",
        [
            "tests/test_verify.py::test_weyl_orbits_match_the_signed_closure",
            "tests/test_verify.py::test_stabilizer_reduction",
        ],
    ),
    # the triple scan's positive window one height short at its top
    (
        "scans.py",
        "lo, hi = max(1, -H - s), max(0, min(H, H - s))",
        "lo, hi = max(1, -H - s), max(0, min(H, H - s - 1))",
        [
            "tests/test_verify.py::test_height_window_matches_the_full_scan",
            "tests/test_verify.py::test_two_of_three_differential_oracle",
        ],
    ),
    # coxeter_traces' fields sized without the off-diagonal spread
    (
        "exponents.py",
        "abs(1 - row[i]) + sum(abs(row[j]) for j in cols if j != i)",
        "abs(1 - row[i])",
        ["tests/test_exponents.py::test_coxeter_exponents_rejects_affine_matrix"],
    ),
    # enumerate_roots admits R = 127, which 16-bit pairing fields cannot hold
    (
        "roots.py",
        "(reach + 1) << 8 >= 1 << 15",
        "(reach + 1) << 8 > 1 << 15",
        ["tests/test_roots.py::test_enumeration_refuses_rows_past_16_bit_pairing_fields[rows0]"],
    ),
    # main_relation passes a form whose d is not the symmetrizer's
    (
        "verify.py",
        "ok = symmetrizes and cmax",
        "ok = cmax",
        [
            "tests/test_verify.py::test_main_relation_length_condition",
            "tests/test_failing_path.py::test_failing_path_digest",
        ],
    ),
    # string_descent skips the pairings of 3
    (
        "scans.py",
        "if k not in (2, 3):",
        "if k != 2:",
        [
            "tests/test_verify.py::test_string_descent_small",
            "tests/test_verify.py::test_descent_scans_match_tuple_oracles",
        ],
    ),
    # string_descent steps down k times instead of k - 1
    (
        "scans.py",
        "base = rs.signed.keys[b] - (k - 1) * ui",
        "base = rs.signed.keys[b] - k * ui",
        [
            "tests/test_verify.py::test_string_descent_small",
            "tests/test_verify.py::test_descent_scans_match_tuple_oracles",
        ],
    ),
    # no_detour counts stepping down by alpha_i twice as a detour
    (
        "scans.py",
        "if j != i and ki - u in number:",
        "if ki - u in number:",
        [
            "tests/test_verify.py::test_no_detour",
            "tests/test_verify.py::test_descent_scans_match_tuple_oracles",
        ],
    ),
    # no_detour applies to roots that can also step down by another simple root
    (
        "scans.py",
        "if p != 3 or droppable != [i]:",
        "if p != 3:",
        ["tests/test_verify.py::test_no_detour"],
    ),
    # long_pair_positive lets an inner product of 0 pass
    (
        "scans.py",
        "if (-product if b >= len(pvs) else product) <= 0 and",
        "if (-product if b >= len(pvs) else product) < 0 and",
        ["tests/test_verify.py::test_long_pair_positive_fails_on_wrong_d"],
    ),
    # long_pair_positive fixes its first root to the short representatives too
    (
        "scans.py",
        "if norm[r] != top:",
        "if norm[r] > top:",
        [
            "tests/test_verify.py::test_long_pair_positive",
            "tests/test_verify.py::test_stabilizer_reduction",
        ],
    ),
    # long_pair_positive forgets to negate the product for a negative partner
    (
        "scans.py",
        "(-product if b >= len(pvs) else product)",
        "product",
        ["tests/test_verify.py::test_long_pair_positive_fails_on_wrong_d"],
    ),
    # the package imports dataclasses again, and inspect with it
    (
        "verify.py",
        "from typing import Iterable, NamedTuple, Sequence",
        "import dataclasses\nfrom typing import Iterable, NamedTuple, Sequence",
        ["tests/test_import_weight.py::test_import_loads_neither_dataclasses_nor_inspect"],
    ),
    # a gated value takes assignment after its gate
    (
        "cartan.py",
        "raise AttributeError(f\"cannot assign to field {name!r}\")",
        "object.__setattr__(self, name, value)",
        ["tests/test_cartan.py::test_gated_classes_are_set_once_by_their_gate"],
    ),
    # CartanMatrix compares and shows its nonzero pattern too
    (
        "cartan.py",
        '_compared = ("rows",)',
        '_compared = ("rows", "nonzero")',
        ["tests/test_cartan.py::test_nonzero_pattern_follows_the_rows"],
    ),
    # hand-built pairings packed with the sign of the Cartan columns flipped
    (
        "roots.py",
        "bias - sum(map(mul, r, columns))",
        "bias + sum(map(mul, r, columns))",
        [
            "tests/test_roots.py::test_handed_over_table_matches_cartan_rows",
            "tests/test_roots.py::test_root_stores_a_tuple",
        ],
    ),
    # a hand-built root listed twice is taken
    (
        "roots.py",
        "        if len(self._positive_keys) != self.num_positive:\n"
        '            raise InvalidArgumentError("a root is listed twice")\n',
        "",
        ["tests/test_verify.py::test_constructor_rejects_malformed_layers"],
    ),
    # Root's gate takes a negative coefficient
    (
        "roots.py",
        "if not coeffs or min(coeffs) < 0:",
        "if not coeffs:",
        ["tests/test_roots.py::test_root_rejects_bad_coeffs"],
    ),
    # a hand-built system keeps the layers it was given, which its caller
    # can still edit
    (
        "roots.py",
        "        layers = tuple(map(tuple, layers))\n",
        "",
        ["tests/test_roots.py::test_root_systems_hold_only_tuples"],
    ),
    # pickle protocols 0 and 1 rebuild a Root by tuple.__new__, past its gate
    (
        "roots.py",
        "    def __reduce__(self):  # pickle protocols 0 and 1 would skip the gate\n"
        "        return Root, (tuple(self),)\n",
        "",
        ["tests/test_roots.py::test_a_root_is_its_checked_tuple"],
    ),
    # a RootSystem takes assignment, so a cached table can outlive its label
    (
        "roots.py",
        "    __setattr__ = Frozen.__setattr__\n",
        "",
        ["tests/test_roots.py::test_root_systems_refuse_assignment"],
    ),
    # an empty or partial ledger passes
    (
        "verify.py",
        "self.checks.keys() == ROW_NAMES and ",
        "",
        ["tests/test_verify.py::test_a_ledger_passes_only_with_every_row"],
    ),
    # exponents_agree compares the Coxeter numbers alone
    (
        "verify.py",
        "ok = (rep_a.exponents, rep_a.coxeter_number) == (rep_b.exponents, rep_b.coxeter_number)",
        "ok = rep_a.coxeter_number == rep_b.coxeter_number",
        ["tests/test_cli.py::test_reports_agree_helper"],
    ),
    # mark_chain lets the affine vertex miss a terminal when c_max = 1
    (
        "verify.py",
        "if set(ext[0]) != terminals:",
        "if not set(ext[0]) <= terminals:",
        ["tests/test_failing_path.py::test_failing_path_digest"],
    ),
    # chains_coincide ignores the order of the mark chain
    (
        "verify.py",
        "if steps[: len(path)] != path:",
        "if sorted(steps[: len(path)]) != sorted(path):",
        ["tests/test_verify.py::test_chains_coincide_fails_each_way"],
    ),
    # step_multiset takes any negative turn pairing
    (
        "verify.py",
        "if turn != -3:",
        "if turn > 0:",
        ["tests/test_verify.py::test_step_multiset_and_differences_fail_on_edited_chains"],
    ),
    # step_multiset lets a repeated step into the head in case 1
    (
        "verify.py",
        "if len(set(head)) != len(head):",
        "if False:",
        ["tests/test_verify.py::test_step_multiset_and_differences_fail_on_edited_chains"],
    ),
    # step_multiset skips the prefix chain of a case-2 chain with m = 3
    (
        "verify.py",
        "elif first == 1 and m >= 3:",
        "elif first == 1 and m > 3:",
        ["tests/test_verify.py::test_step_multiset_and_differences_fail_on_edited_chains"],
    ),
    # step_nonramification lets a vertex of degree 3 through
    (
        "verify.py",
        "for v in vertices if len(ext[v]) > 2]",
        "for v in vertices if len(ext[v]) > 3]",
        [
            "tests/test_verify.py::test_every_row_can_fail",
            "tests/test_failing_path.py::test_failing_path_digest",
        ],
    ),
    # differences takes any vector with a 2 for twice a simple root
    (
        "verify.py",
        "ok = sorted(diff) == [0] * (len(diff) - 1) + [2]",
        "ok = max(diff) == 2",
        ["tests/test_verify.py::test_step_multiset_and_differences_fail_on_edited_chains"],
    ),
    # lengths stops one root short in case 2
    (
        "verify.py",
        "hi = m - 2 if top.case == 1 else m - 1",
        "hi = m - 2",
        ["tests/test_failing_path.py::test_failing_path_digest"],
    ),
    # _trailing reads any matrix off a host, block or not
    (
        "roots.py",
        "if k > n or cartan.rows != tuple(row[n - k :] for row in rs.cartan.rows[n - k :]):",
        "if k > n:",
        [
            "tests/test_roots.py::test_trailing_refuses_a_matrix_that_is_not_the_block[B]",
            "tests/test_roots.py::test_trailing_refuses_a_matrix_that_is_not_the_block[D]",
        ],
    ),
    # _trailing keeps one pairing field past the block, against alpha_(n-k)
    (
        "roots.py",
        "below, mask = 1 << 8 * k, (1 << 16 * k) - 1",
        "below, mask = 1 << 8 * k, (1 << 16 * (k + 1)) - 1",
        ["tests/test_roots.py::test_trailing_blocks_equal_their_enumeration"],
    ),
]


def _run(src: Path, node: str) -> int:
    """pytest's exit code for one node id, importing rootsys from src; the
    ini file's ``pythonpath`` would put the checkout's own src first."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        command + ["-o", "pythonpath=", node], cwd=ROOT, env=env, stdout=subprocess.DEVNULL
    ).returncode


def _copy(to: Path) -> Path:
    src = to / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp) / "clean")
        for node in dict.fromkeys(node for *_, nodes in MUTANTS for node in nodes):
            if _run(clean, node) != 0:
                problems.append(f"{node} does not pass on the unedited source")
        for k, (name, old, new, nodes) in enumerate(MUTANTS):
            src = _copy(Path(tmp) / str(k))
            path = src / "rootsys" / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                problems.append(f"{name}: {old!r} occurs {text.count(old)} times, not once")
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            for node in nodes:
                code = _run(src, node)
                verdict = "fails" if code == 1 else f"exit {code}"
                print(f"{name}: {old!r} -> {new!r}: {node} {verdict}")
                if code != 1:
                    problems.append(f"{name}: {old!r} -> {new!r} survives {node} (exit {code})")
    for problem in problems:
        print("error:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
