"""Reference data the benchmark scores outputs against, derived from the
classification tables (Bourbaki, *Lie*, ch. VI, plates I-IX) and never
from rootsys itself.

For every irreducible type: its Cartan matrix, highest root, exponents,
Coxeter number h and number of positive roots, all under the Bourbaki
labeling and the convention a[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i).
"""

from __future__ import annotations

from dataclasses import dataclass

# A check may report a sample instead of an exhaustive scan only on a system
# with more signed roots than this, and never on fewer triples than
# MIN_SAMPLED_TRIPLES.  Both are the program's thresholds when the benchmark
# was defined, so sampling may shrink but never spread or thin out.
SAMPLED_SIGNED_ROOTS_ABOVE = 240
MIN_SAMPLED_TRIPLES = 100_000

# The defects workload corrupts three seeded draws of each of these types.
DEFECT_TYPES = ("E6", "E7", "E8", "F4", "G2", "B8", "C8", "D8", "A10", "B12", "D12")
DEFECT_DRAWS = 3

_EXCEPTIONAL = {
    # label: (highest root, exponents)
    "E6": ((1, 2, 2, 3, 2, 1), (1, 4, 5, 7, 8, 11)),
    "E7": ((2, 2, 3, 4, 3, 2, 1), (1, 5, 7, 9, 11, 13, 17)),
    "E8": ((2, 3, 4, 6, 5, 4, 3, 2), (1, 7, 11, 13, 17, 19, 23, 29)),
    "F4": ((2, 3, 4, 2), (1, 5, 7, 11)),
    "G2": ((3, 2), (1, 5)),
}


@dataclass(frozen=True)
class TypeData:
    label: str
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    highest_root: tuple[int, ...]
    exponents: tuple[int, ...]
    h: int
    num_positive: int

    @property
    def c_max(self) -> int:
        return max(self.highest_root)

    @property
    def m2(self) -> int:
        return self.exponents[1]

    @property
    def case(self) -> int:
        # The paper's dichotomy: c_max = m2 - 2 only for G2, else m2 - 1.
        return 1 if self.label == "G2" else 2

    @property
    def may_be_sampled(self) -> bool:
        return 2 * self.num_positive > SAMPLED_SIGNED_ROOTS_ABOVE


def _cartan(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i - 1][j - 1], a[j - 1][i - 1] = aij, aji

    if family == "G":
        edge(1, 2, -3, -1)  # alpha_1 short: its row carries the -3
    elif family == "D":
        for i in range(1, n - 1):
            edge(i, i + 1)
        edge(n - 2, n)
    elif family == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
            if j <= n:
                edge(i, j)
    else:
        for i in range(1, n):
            edge(i, i + 1)
        if family == "B":
            edge(n - 1, n, -1, -2)  # alpha_n short
        elif family == "C":
            edge(n - 1, n, -2, -1)  # alpha_n long
        elif family == "F":
            edge(2, 3, -1, -2)  # alpha_3, alpha_4 short
    return tuple(tuple(row) for row in a)


def type_data(label: str) -> TypeData:
    family, n = label[0], int(label[1:])
    if label in _EXCEPTIONAL:
        theta, exps = _EXCEPTIONAL[label]
        h = exps[-1] + 1
        npos = sum(exps)
    elif family == "A":
        theta, exps, h, npos = (1,) * n, tuple(range(1, n + 1)), n + 1, n * (n + 1) // 2
    elif family in "BC":
        twos = (2,) * (n - 1)
        theta = (1,) + twos if family == "B" else twos + (1,)
        exps, h, npos = tuple(range(1, 2 * n, 2)), 2 * n, n * n
    elif family == "D":
        theta = (1,) + (2,) * (n - 3) + (1, 1)
        exps = tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
        h, npos = 2 * n - 2, n * (n - 1)
    else:
        raise ValueError(f"no reference data for {label}")
    return TypeData(label, family, n, _cartan(family, n), theta, exps, h, npos)


def sweep_labels(max_rank: int) -> list[str]:
    """Every irreducible type of rank <= max_rank, B2 and C2 both included."""
    labels = [f"A{n}" for n in range(1, max_rank + 1)]
    labels += [f"B{n}" for n in range(2, max_rank + 1)]
    labels += [f"C{n}" for n in range(2, max_rank + 1)]
    labels += [f"D{n}" for n in range(4, max_rank + 1)]
    labels += [f"E{n}" for n in (6, 7, 8) if n <= max_rank]
    labels += [l for l in ("F4", "G2") if int(l[1]) <= max_rank]
    return labels


def self_check(labels) -> None:
    """Tie the tables together by identities that hold for every type, so a
    typo in one of them cannot pass as reference data."""
    for label in labels:
        t = type_data(label)
        ok = (
            len(t.exponents) == t.rank
            and len(t.highest_root) == t.rank
            and sum(t.highest_root) == t.h - 1 == t.exponents[-1]
            and sum(t.exponents) == t.num_positive
            and all(a + b == t.h for a, b in zip(t.exponents, reversed(t.exponents)))
            and (t.rank < 2 or t.c_max == t.m2 - (2 if t.case == 1 else 1))
        )
        if not ok:
            raise RuntimeError(f"reference tables disagree with themselves on {label}")
