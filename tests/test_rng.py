import numpy as np
import pytest

from hcskit import ConfigError, rng


@pytest.mark.parametrize(
    "seed, index, error, message",
    [
        # seeds are refused by check_seed, the one statement of their range
        (2**64, 0, ConfigError, "seed must fit in 64 unsigned bits, got 18446744073709551616"),
        (-1, 0, ConfigError, "seed must be a non-negative int, got -1"),
        (0, 2**32, ValueError, "stream index out of range: 4294967296"),
        (0, -1, ValueError, "stream index out of range: -1"),
    ],
    ids=["seed-2**64", "seed-negative", "index-2**32", "index-negative"],
)
def test_substream_key_out_of_range(seed, index, error, message):
    with pytest.raises(error) as excinfo:
        rng.substream(seed, rng.DOMAIN_SIMULATOR, index)
    assert str(excinfo.value) == message


def test_substream_keys_at_the_limits():
    first = rng.substream(2**64 - 1, rng.DOMAIN_SIMULATOR, 2**32 - 1).integers(2**62, size=4)
    again = rng.substream(2**64 - 1, rng.DOMAIN_SIMULATOR, 2**32 - 1).integers(2**62, size=4)
    other = rng.substream(2**64 - 1, rng.DOMAIN_LEVEL_BASE, 2**32 - 1).integers(2**62, size=4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
