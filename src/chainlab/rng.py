"""Reproducible random streams.

Every stochastic routine derives its generators from (master seed, stream
index), so re-runs are bit-identical. A routine may draw many replicates
from one stream, as the Monte Carlo harness in ``restorers`` does; its
replicates are then fixed by their order in that stream.
"""

from __future__ import annotations

import numpy as np


def stream_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Generator for a named stream under a master seed."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(s) for s in stream)))
