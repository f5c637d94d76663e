import functools
import types

import pytest

import rootsys as R
from rootsys.cartan import nonzero_pattern

from oracles import corrupted_corpus


@functools.lru_cache(maxsize=None)
def built(label: str) -> R.RootSystem:
    return R.build_system(label)


@pytest.fixture(scope="session")
def system():
    """Cached builder: system('G2') -> enumerated RootSystem."""
    return built


@pytest.fixture(scope="session")
def corrupted_ledgers(system):
    """(name, system, ledger) for each system of oracles.corrupted_corpus,
    built and ledgered once for the whole session."""
    return [(name, rs, R.build_ledger(rs)) for name, rs in corrupted_corpus(system)]


def sweep_labels(max_rank: int = 12) -> list[str]:
    """Every type in the verification sweep: rank >= 2 up to the cap."""
    return [str(t) for t in R.all_types(max_rank) if t.rank >= 2]


def small_labels() -> list[str]:
    """All types of rank <= 4, the exhaustive-oracle domain."""
    return [str(t) for t in R.all_types(4)]


def with_identity_block(rows, rank):
    """rows, then 2 on the diagonal up to the given rank, 0 elsewhere."""
    n = len(rows)
    return tuple(
        tuple(rows[i][j] if max(i, j) < n else 2 * (i == j) for j in range(rank))
        for i in range(rank)
    )


def stand_in(rows):
    """The fields that enumerate_roots and the Coxeter functions read, for
    rows that CartanMatrix refuses, the nonzero pattern from the package's
    own helper: how their guards are shown able to fail."""
    return types.SimpleNamespace(rows=rows, rank=len(rows), nonzero=nonzero_pattern(rows))
