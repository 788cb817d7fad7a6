"""Deterministic RNG derivation.

Every randomized stage derives its generator from the master seed plus a
stable path of stage names and indices, so any stage can be re-run in
isolation and results never depend on execution order or thread count.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed(master: int, *path: int | str) -> int:
    """A stable child seed for (master, path). Strings hash via crc32."""
    parts = [int(master)]
    for part in path:
        parts.append(zlib.crc32(part.encode("utf-8")) if isinstance(part, str) else int(part))
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])
