"""Seeded counter-based random number streams.

All sampling in the library goes through :func:`rng_for` so that every
operation is bit-reproducible from an explicit integer seed, and derived
streams (per sample, per repeat) are independent and order-insensitive.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rng_for", "GEN_DATA_STREAM", "MC_BASELINE_STREAM", "UQ_STREAM"]

# First subkey of the streams of each command that draws model inputs, so
# that ``gen-data``, ``mc-baseline`` and ``uq`` given the same seed never
# draw the same inputs: sample i is ``rng_for(seed, <command's stream>, i)``,
# and ``uq`` repeat j draws its inputs from ``rng_for(seed, UQ_STREAM, j, 0)``
# and its posterior realization from ``rng_for(seed, UQ_STREAM, j, 1)``.
GEN_DATA_STREAM = 1
MC_BASELINE_STREAM = 2
UQ_STREAM = 3


def rng_for(seed: int, *subkeys: int) -> np.random.Generator:
    """Generator backed by the Philox counter-based bit generator.

    ``subkeys`` derive independent child streams, e.g. ``rng_for(seed, i)``
    for sample ``i`` of a batch; the same ``(seed, subkeys)`` always yields
    the same stream regardless of evaluation order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in subkeys))
    return np.random.Generator(np.random.Philox(ss))
