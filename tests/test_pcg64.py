"""The seeded point stream: pelab.pcg64 against numpy.random, bit for bit."""

import random

import numpy as np
import pytest
from oracles import sample_points

from pelab import pcg64
from pelab.cmd_verify import _radial_window, _sample_points
from pelab.limits import RescaledProfile, rho1_limit

# 0 and the word and pool edges: one entropy word up to 2^32 - 1, two from
# 2^32, four at 2^128 - 1 and five at 2^128, so SeedSequence's last loop runs
# on 2^128 and on 2^200 + 12345 (seven words).
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 12345]


def _reference(seed, count):
    return np.random.default_rng(seed).random(count)


@pytest.mark.parametrize("seed", EDGE_SEEDS, ids=str)
def test_stream_equals_default_rng(seed):
    assert np.array_equal(pcg64.random(seed, 41), _reference(seed, 41))


def test_stream_equals_default_rng_on_sweep_row_seeds():
    # row idx of sweep --verify --seed s draws from s * 100003 + idx
    for seed in (0, 5, 2**40):
        for idx in (0, 1, 99):
            assert np.array_equal(pcg64.random(seed * 100003 + idx, 20), _reference(seed * 100003 + idx, 20))


def test_stream_equals_default_rng_on_random_big_seeds():
    rng = random.Random(2027)
    for _ in range(60):
        seed = rng.getrandbits(rng.randrange(1, 400))
        count = rng.randrange(1, 30)
        assert np.array_equal(pcg64.random(seed, count), _reference(seed, count)), (seed, count)


@pytest.mark.parametrize("count", [1, 7, pcg64._CHUNK + 1])
def test_draws_are_prefixes_of_the_stream(count):
    # a count that is not a multiple of 4, and one that ends a double into the second chunk
    assert np.array_equal(pcg64.random(3, count), _reference(3, count))
    assert np.array_equal(pcg64.random(3, count), pcg64.random(3, 2 * pcg64._CHUNK)[:count])


def test_draw_meets_every_rotation():
    # the XSL-RR output rotates by the top 6 bits of the state; rot = 0 must not shift by 64
    state, inc = pcg64._seeded(11)
    rotations = set()
    for _ in range(4000):
        state = (state * pcg64._MULTIPLIER + inc) % 2**128
        rotations.add(state >> 122)
    assert rotations == set(range(64))
    draw = pcg64.random(11, 4000)
    assert np.array_equal(draw, _reference(11, 4000))
    assert draw.min() >= 0.0 and draw.max() < 1.0


@pytest.mark.parametrize("seed, count", [(0, 1), (7, 50), (4 * 100003 + 2, 130)])
def test_page_pope_points_equal_the_numpy_random_draw(seed, count):
    window = _radial_window(1.0)
    assert np.array_equal(_sample_points(seed, count, *window), sample_points(seed, count, *window))


def test_rescaled_points_equal_the_numpy_random_draw():
    rho1 = RescaledProfile(1, 2, rho1_limit(1).derived_sq).rho1
    window = (1.1 * rho1, 5.0 * rho1)
    assert np.array_equal(_sample_points(3, 20, *window), sample_points(3, 20, *window))
