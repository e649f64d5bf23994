"""Reproducible random streams.

Every stochastic routine derives its generators from (master seed, stream
index), so re-runs are bit-identical. A routine may draw many replicates
from one stream, as the Monte Carlo harness in ``restorers`` does; its
replicates are then fixed by their order in that stream.
"""

from __future__ import annotations

import numpy as np


def stream_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Generator for a named stream under a master seed.

    The key (master_seed, *stream) is seeded as a ``SeedSequence`` of 32-bit
    words, which pads a key shorter than four words with zeros: (1, 2),
    (1, 2, 0) and (1, 2, 0, 0) give the same numbers, (1, 2, 0, 0, 0) does
    not, and an int of 2**32 or more is several words ((2**32,) equals
    (0, 1)). Keys of one run must therefore differ by more than trailing
    zeros.
    """
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(s) for s in stream)))
