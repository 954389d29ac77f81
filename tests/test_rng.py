"""Substreams against numpy's own SeedSequence seeding."""

import numpy as np
import pytest

from xlma.errors import ConfigurationError
from xlma.rng import _key, substream, substreams

SEEDS = [0, 7, 2**32 + 3, 2**64 - 1]
INDICES = [0, 1, 2**32 - 1]


def reference(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed] + [_key(p) for p in path]))


def first_draws(rng):
    return np.concatenate([rng.random(3), rng.standard_normal(4), rng.uniform(0.0, 2.0, 2)])


@pytest.mark.parametrize("seed", SEEDS)
class TestAgainstSeedSequence:
    def test_batched_states_and_draws(self, seed):
        for t, rng in zip(INDICES, substreams(seed, "mc", indices=INDICES)):
            ref = reference(seed, "mc", t)
            assert rng.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(first_draws(rng), first_draws(ref))

    @pytest.mark.parametrize("path", [("validate",), ("mc", 2**32 - 1), ("mc", 2**32),
                                      ("visibility", 3), ("a", "b", 2**70), ()])
    def test_single_path(self, seed, path):
        rng, ref = substream(seed, *path), reference(seed, *path)
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(first_draws(rng), first_draws(ref))


def test_batch_equals_one_at_a_time():
    streams = substreams(11, "mc", indices=np.arange(300))
    for t, rng in enumerate(streams):
        np.testing.assert_array_equal(first_draws(rng), first_draws(substream(11, "mc", t)))


def test_index_at_or_above_two_to_the_32_refused():
    with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*32\)"):
        next(substreams(7, "mc", indices=[0, 2**32]))


def test_negative_seed_refused():
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        substream(-1, "mc")


def test_no_indices_no_streams():
    assert list(substreams(7, "mc", indices=[])) == []
