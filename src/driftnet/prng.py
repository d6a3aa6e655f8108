"""Single source of pseudo-randomness for the whole package.

Every stochastic component (stream generation, attachment sampling,
rewiring) draws from a generator built here. The algorithm is pinned to
PCG64 with a 64-bit integer seed so that any run can be reproduced
bit-for-bit from its seed alone. Do not swap the bit generator without
bumping the major version: recorded experiment outputs would silently
stop being reproducible.
"""

from __future__ import annotations

import numpy as np

# Mixing constant for deriving independent sub-seeds from one experiment
# seed (golden-ratio increment, as in splitmix64).
SEED_STREAM_GAP = 0x9E3779B97F4A7C15


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-wide generator (PCG64) for a 64-bit seed.

    Parameters
    ----------
    seed : int
        Any integer; reduced modulo 2**64, so seeds that differ by a
        multiple of 2**64 give the same draws. A run's seeds are kept
        in [0, 2**64) by ``ExperimentConfig.validate``.
    """
    return np.random.Generator(np.random.PCG64(int(seed) % 2**64))


def derive_seed(seed: int, stream: int) -> int:
    """Deterministically derive the seed of an auxiliary random stream.

    Used to give an algorithm its own generator, decoupled from the data
    stream that shares the same experiment seed.
    """
    return (int(seed) + (stream + 1) * SEED_STREAM_GAP) % 2**64
