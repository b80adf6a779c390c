"""The package's copy of numpy's default_rng uniform stream."""

import numpy as np
import pytest

from cayley_potts._pcg64 import PCG64

SEEDS = [0, 1, 11, 999, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11]


@pytest.mark.parametrize("shape", [(6, 2), (12, 1), (24, 4)])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_numpy(seed, shape):
    # three draws in turn from one generator, as verify's trials take
    # them; numpy is the reference, so each numpy version re-checks it
    reference, stream = np.random.default_rng(seed), PCG64(seed)
    for _ in range(3):
        expected = reference.uniform(-2.0, 2.0, size=shape)
        drawn = np.reshape(stream.uniform(-2.0, 2.0, shape[0] * shape[1]),
                           shape)
        assert drawn.tobytes() == expected.tobytes()
