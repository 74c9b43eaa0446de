from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vvcantor.rng import (GOLDEN, Xoshiro256StarStar, Xoshiro256StarStarLanes,
                          categorical_index, cumulative_probs, stream_seed,
                          stream_seeds)
from conftest import ScalarXoshiro256StarStar, scalar_stream_seed, splitmix64_next


def test_splitmix64_reference_vector():
    # published first outputs for a zero-seeded splitmix64; a stream seed is
    # one step from master + (id + 1) * GOLDEN
    state, out = splitmix64_next(0)
    assert out == 0xE220A8397B1DCDAF
    state, out = splitmix64_next(state)
    assert out == 0x6E789E6AA1B965F4
    assert stream_seeds(-GOLDEN, [0, 1]).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_stream_seeds_differ_and_repeat():
    a = stream_seed(42, 0)
    b = stream_seed(42, 1)
    assert a != b
    assert a == stream_seed(42, 0)
    assert stream_seed(43, 0) != a
    with pytest.raises(ValueError):
        stream_seed(42, -1)
    with pytest.raises(OverflowError):
        stream_seeds(42, [-1])


def test_generator_determinism():
    g1 = Xoshiro256StarStar(12345)
    g2 = Xoshiro256StarStar(12345)
    assert [g1.next_u64() for _ in range(10)] == [g2.next_u64() for _ in range(10)]


def test_uniform_range_and_randint_bounds():
    g = Xoshiro256StarStar(7)
    draws = [g.uniform() for _ in range(10_000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.45 < sum(draws) / len(draws) < 0.55
    g = Xoshiro256StarStar(8)
    ints = [g.randint(3) for _ in range(3000)]
    assert set(ints) == {0, 1, 2}


def test_categorical_walks_cumulative_sums():
    g = Xoshiro256StarStar(9)
    assert all(categorical_index(cumulative_probs([1.0]), g.uniform()) == 0
               for _ in range(10))
    counts = [0, 0, 0]
    cum = cumulative_probs([0.2, 0.5, 0.3])
    for _ in range(30_000):
        counts[categorical_index(cum, g.uniform())] += 1
    assert abs(counts[0] / 30_000 - 0.2) < 0.02
    assert abs(counts[1] / 30_000 - 0.5) < 0.02


# Reference C xoshiro256** outputs from the state (1, 2, 3, 4).
STATE_1234 = (1, 2, 3, 4)
OUTPUTS_1234 = [11520, 0, 1509978240, 1215971899390074240]


def test_known_answer_from_state_1234():
    oracle = ScalarXoshiro256StarStar(0)
    oracle._s = list(STATE_1234)
    assert [oracle.next_u64() for _ in OUTPUTS_1234] == OUTPUTS_1234
    g = Xoshiro256StarStar(0)
    g._s[:4, 0] = STATE_1234
    assert [g.next_u64().item() for _ in OUTPUTS_1234] == OUTPUTS_1234


def test_lane_known_answer_beside_a_different_lane():
    other = (5, 6, 7, 8)
    g = ScalarXoshiro256StarStar(0)
    g._s = list(other)
    lanes = Xoshiro256StarStarLanes([0, 0])
    lanes._s[:4] = np.array([STATE_1234, other], np.uint64).T
    got = [lanes.next_u64().tolist() for _ in OUTPUTS_1234]
    assert [a for a, _ in got] == OUTPUTS_1234
    assert [b for _, b in got] == [g.next_u64() for _ in OUTPUTS_1234]


@pytest.mark.parametrize("master", [0, 1, 2 ** 64 - 1])
def test_stream_seeds_match_scalar(master):
    ids = [0, 1, 2, 1000, 2 ** 63, 2 ** 64 - 2]  # master + (id + 1) * GOLDEN wraps
    assert stream_seeds(master, ids).tolist() == [scalar_stream_seed(master, i) for i in ids]


def test_masked_lanes_follow_their_scalar_streams():
    """A lane advances only on the draws its mask selects, and the all-zero
    state fallback holds per lane."""
    seeds = [scalar_stream_seed(3, i) for i in range(12)] + [0]
    lanes = Xoshiro256StarStarLanes(seeds)
    scalar = [ScalarXoshiro256StarStar(s) for s in seeds]
    pick = np.random.default_rng(0)
    for step in range(60):
        mask = None if step % 3 == 0 else pick.random(len(seeds)) < 0.5
        u = lanes.uniforms([mask])[0]
        for k, g in enumerate(scalar):
            if mask is None or mask[k]:
                assert u[k] == g.uniform()
    u = lanes.uniforms([None, np.arange(len(seeds)) % 2 == 0, None])
    for k, g in enumerate(scalar):
        assert u[0, k] == g.uniform()
        if k % 2 == 0:
            assert u[1, k] == g.uniform()
        assert u[2, k] == g.uniform()


@pytest.mark.parametrize("dtype", [bool, np.uint64])
def test_lanes_outside_a_mask_draw_zero(dtype):
    """A bool or 0/1 integer mask selects the same lanes, and every lane it
    leaves out draws exactly 0, which ``LevelDraws`` turns into the table's
    0 past a system's maps."""
    seeds = [scalar_stream_seed(5, i) for i in range(9)]
    lanes = Xoshiro256StarStarLanes(seeds)
    scalar = [ScalarXoshiro256StarStar(s) for s in seeds]
    for step in range(20):
        mask = np.random.default_rng(step).random(len(seeds)) < 0.5
        u = lanes.uniforms([mask.astype(dtype)])[0]
        assert (u[~mask] == 0.0).all()
        assert u[mask].tolist() == [g.uniform() for g, m in zip(scalar, mask) if m]


class _FixedDraw(ScalarXoshiro256StarStar):
    """An oracle generator whose every uniform draw is ``u``."""

    __slots__ = ("u",)

    def uniform(self) -> float:
        return self.u


@pytest.mark.parametrize("probs", [(0.7, 0.2, 0.1), (0.5, 0.0, 0.5)])
def test_lane_categorical_walks_like_scalar(probs):
    cum = cumulative_probs(probs)
    assert cum.tolist() == list(accumulate(probs))
    if probs == (0.7, 0.2, 0.1):
        assert cum[-1] == 0.9999999999999999  # a draw can pass the last sum
    us = np.concatenate((cum, np.nextafter(cum, 0.0), [1.0 - 2.0 ** -53, 0.0]))
    g, want = _FixedDraw(0), []
    for u in us.tolist():
        g.u = u
        want.append(g.categorical(probs))
    assert categorical_index(cum, us).tolist() == want
    assert [categorical_index(cum, u) for u in us.tolist()] == want


_OPS = st.one_of(
    st.tuples(st.just("uniform")),
    st.tuples(st.just("randint"), st.integers(1, 7)),
    st.tuples(st.just("categorical"),
              st.sampled_from([(1.0,), (0.7, 0.2, 0.1), (0.5, 0.0, 0.5), (0.25, 0.75)])))


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), ops=st.lists(_OPS, max_size=40))
def test_one_lane_draws_match_oracle(seed, ops):
    """The one-lane generator's scalar draws, and ``categorical_index`` of
    one ``uniform``, are the Python-int oracle's, values and types."""
    lane, oracle = Xoshiro256StarStar(seed), ScalarXoshiro256StarStar(seed)
    for name, *args in ops:
        want = getattr(oracle, name)(*args)
        if name == "categorical":
            got = int(categorical_index(cumulative_probs(*args), lane.uniform()))
        else:
            got = getattr(lane, name)(*args)
        assert got == want and type(got) is type(want)
