"""Bulk seeding of numpy PCG64 streams (see :func:`pcg64_states`)."""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def pcg64_states(seeds: Iterable[int]) -> List[Tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``np.random.default_rng(seed)`` for
    each seed in *seeds* (each ``0 <= seed < 2**64``): numpy's
    ``SeedSequence`` hashing as wrapping ``uint32`` array arithmetic over
    all seeds at once, then PCG64's seeding step per seed.
    """
    values = np.fromiter(seeds, dtype=np.uint64)
    zero = np.zeros(values.size, dtype=np.uint32)
    # A missing entropy word hashes like a zero word, so every seed
    # below 2**64 can take two words, low first, and two zeros.
    words = [(values & _MASK32).astype(np.uint32), (values >> 32).astype(np.uint32),
             zero, zero]
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * 0x931E8875 & _MASK32
        value = value * const
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
                pool[dst] = mixed ^ (mixed >> 16)
    const = 0x8B51F9DD
    out = []
    for index in range(8):
        value = pool[index % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    # Little-endian word pairs: the initial state (a, b), the stream (c, d).
    a, b, c, d = ((out[2 * k] | out[2 * k + 1] << 32).tolist() for k in range(4))
    pairs = []
    for high, low, inc_high, inc_low in zip(a, b, c, d):
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        state = (inc + (high << 64 | low)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc
        pairs.append((state & _MASK128, inc))
    return pairs
