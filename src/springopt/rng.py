"""Deterministic random streams.

Every source of randomness in a run is a named, independent stream derived
from one 64-bit seed via a counter-based generator (Philox).  A seed is an
integer (``int`` or ``np.integer``, not ``bool``) in [0, 2**64): each such seed
names its own streams, and nothing else is one.  Streams never
interact: drawing more batches does not shift the SARAH coin, etc., which is
what makes traces bit-reproducible across platforms and refactors.
"""

from __future__ import annotations

import numpy as np

from .core import is_integer

# Fixed purpose -> stream index map.  Extending the table is fine; reordering
# existing entries breaks seed reproducibility.  Index 3 is retired (it seeded
# the power method's start vectors) and is never reused, so no later purpose
# reads a stream an older run drew from.
STREAMS = {
    "batch_x": 0,
    "batch_y": 1,
    "sarah_coin": 2,
    "lip_batch": 4,
}


def is_seed(seed) -> bool:
    """True when ``seed`` is an integer in [0, 2**64), ``bool`` excluded."""
    return is_integer(seed) and 0 <= int(seed) < 2**64


def stream_rng(seed: int, purpose: str) -> np.random.Generator:
    """Return the named Philox stream for ``purpose`` under ``seed``."""
    try:
        idx = STREAMS[purpose]
    except KeyError:
        raise ValueError(f"unknown RNG purpose {purpose!r}; known: {sorted(STREAMS)}")
    if not is_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(idx,))
    return np.random.Generator(np.random.Philox(ss))
