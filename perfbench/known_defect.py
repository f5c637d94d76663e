"""Reproducer for a verifier defect found while sizing the defects workload.

    PYTHONPATH=src python3 perfbench/known_defect.py

Dropping one positive root (instead of swapping it for a non-root of the
same height) makes ``build_ledger`` raise ``InvalidArgumentError`` from
``dual_partition`` before any check runs, although its docstring promises
that batch runs always complete and report failures as data.  The
benchmark's defects workload therefore swaps roots, and counts any raise
as a wrong verdict, never as a pass.

Exit status: 1 while the defect reproduces, 0 once every case below comes
back as a failed ledger.
"""

from __future__ import annotations

import sys

import reference

from rootsys import (
    InvalidArgumentError,
    RootSystem,
    build_ledger,
    enumerate_roots,
    validate_cartan,
)

CASES = (("E6", 3), ("G2", 2), ("F4", 4), ("D8", 5))


def drop_one_root(label: str, height: int) -> RootSystem:
    rs = enumerate_roots(validate_cartan(reference.type_data(label).cartan), None)
    layers = list(rs.layers)
    layers[height] = layers[height][1:]
    return RootSystem(rs.cartan, rs.form, tuple(layers), None)


def main() -> int:
    raised = 0
    for label, height in CASES:
        try:
            ledger = build_ledger(drop_one_root(label, height))
        except InvalidArgumentError as exc:
            raised += 1
            print(f"{label}, one root of height {height} dropped: build_ledger raised {exc}")
        else:
            print(f"{label}, one root of height {height} dropped: ledger passed={ledger.passed}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
