"""Deterministic random helpers for the workload generators.

Every generator takes an explicit seed and builds its own ``random.Random``
so that test runs and benchmark sweeps are exactly reproducible.
"""

from __future__ import annotations

import random

_SYLLABLES = [
    "bar", "ought", "able", "pri", "pres", "ese", "anti", "cally", "ation", "eing",
]


def make_rng(seed: int) -> random.Random:
    """A fresh deterministic generator for the given seed."""
    return random.Random(seed)


def tpcc_last_name(number: int) -> str:
    """The TPC-C customer last-name syllable encoding of a number 0..999."""
    number %= 1000
    return (
        _SYLLABLES[number // 100]
        + _SYLLABLES[(number // 10) % 10]
        + _SYLLABLES[number % 10]
    )


def iso_date(rng: random.Random, year: int) -> str:
    """A uniform ISO date inside the given year (28-day months for simplicity)."""
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"
