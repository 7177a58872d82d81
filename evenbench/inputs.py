"""Workload inputs: the fixed sizes, budgets and the seeded rational sequences.

Only trees-rational draws from the seed: four sequences of nonzero
rationals +-p/q with p, q uniform in 101..999.  The other workloads are
deterministic functions of their sizes, so the seed changes nothing there.
This module is imported by the fresh interpreters that measure set-up time
and peak memory, so it stays free of heavy imports.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("recursion", "trees-odd", "trees-rational")

SEQUENCES = 4  # rational sequences per trees-rational operation
SEQUENCE_LENGTH = 24  # positions supplied, more than any tree-route probe reaches
SCALE = Fraction(7, 3)  # factor of the trees-rational scaling check
REPLAY_MAX = 7  # largest k checked against the per-tree replay

# name -> (full size, smoke size).  "k" is the fixed size of the timed
# operation, "budget_s" the wall-clock budget of the max-k probe, "cap" the
# largest k a probe tries, "first" the route's first valid k, where its
# probe starts.  Each tree-route budget sits near the geometric mean of the
# fast-phase times of the last k that fits and the first that does not, so
# that neither a slow phase nor a small gain flips max_k.
SIZES = {
    "recursion": {"k": (40, 8), "budget_s": (0.3, 0.05), "cap": (240, 30), "first": (1, 1)},
    "trees-odd": {"k": (10, 5), "budget_s": (0.32, 0.02), "cap": (24, 8), "first": (2, 2)},
    "trees-rational": {"k": (9, 5), "budget_s": (0.24, 0.02), "cap": (24, 8), "first": (1, 1)},
}

# Timed operations per round.
SOLVES_PER_ROUND = {"recursion": 3, "trees-odd": 8, "trees-rational": 6}

# The traced run adds to each round one small operation of every workload
# and a traced `python -m evenzeta verify --suite all --max-k 3` process
# ("cli"), so that every layer metric is measured on every workload.
COVERAGE = {"recursion": 12, "trees-odd": 6, "trees-rational": 6, "cli": 3}


def rational_sequences(seed: int) -> list[list[Fraction]]:
    rng = random.Random(seed)
    return [
        [
            Fraction(rng.choice((-1, 1)) * rng.randint(101, 999), rng.randint(101, 999))
            for _ in range(SEQUENCE_LENGTH)
        ]
        for _ in range(SEQUENCES)
    ]


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    """Everything a workload's operations take as input."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    pick = 1 if smoke else 0
    out = {"workload": workload, "seed": seed}
    out.update((key, pair[pick]) for key, pair in SIZES[workload].items())
    out["solves"] = 1 if smoke else SOLVES_PER_ROUND[workload]
    if workload == "trees-rational":
        out["sequences"] = rational_sequences(seed)
    return out
