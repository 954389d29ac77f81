"""Substreams against numpy's own SeedSequence seeding."""

import numpy as np
import pytest

from xlma.errors import ConfigurationError
from xlma.rng import DRAW_BLOCK_WORDS, _key, substream, substreams, uniforms

SEEDS = [0, 7, 2**32 + 3, 2**64 - 1]
INDICES = [0, 1, 2**32 - 1]
# 3 and 60: one and twenty visibility samples of 3 coordinates; 3000: the
# 1000 samples of the "visibility-oracle" purpose.
COUNTS = [3, 60, 600, 3000]


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("purpose", ["visibility", "visibility-oracle"])
def test_uniforms_equal_generator_draws(seed, count, purpose):
    got = uniforms(seed, purpose, indices=INDICES, count=count)
    want = [substream(seed, purpose, t).random(count) for t in INDICES]
    assert got.shape == (len(INDICES), count)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [60, 3000])
def test_uniforms_across_row_blocks(count):
    indices = np.arange(3 * max(DRAW_BLOCK_WORDS // count, 1) + 1)
    got = uniforms(11, "visibility", indices=indices, count=count)
    for row, rng in zip(got, substreams(11, "visibility", indices=indices)):
        assert np.array_equal(row, rng.random(count))


def test_uniforms_no_indices_no_rows():
    assert uniforms(7, "visibility", indices=[], count=60).shape == (0, 60)


def first_substream(seed, *path, indices):
    return next(substreams(seed, *path, indices=indices))


def three_uniforms(seed, *path, indices):
    return uniforms(seed, *path, indices=indices, count=3)


@pytest.mark.parametrize("draw", [first_substream, three_uniforms])
@pytest.mark.parametrize("indices, match", [
    ([1.5, 2.0], "must be integers"),
    ([[1, 2]], "one-dimensional"),
    (3, "one-dimensional"),
    ([True, False], "list of integers"),
    (["1"], "list of integers"),
    ([-1], r"\[0, 2\*\*32\)"),
])
def test_bad_indices_refused(draw, indices, match):
    with pytest.raises(ConfigurationError, match=match):
        draw(7, "x", indices=indices)


def test_integral_float_indices_pass():
    got = uniforms(7, "x", indices=[1.0, 2.0], count=3)
    assert np.array_equal(got, uniforms(7, "x", indices=[1, 2], count=3))
