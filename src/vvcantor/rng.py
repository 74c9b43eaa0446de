"""Deterministic 64-bit random number generation.

All randomness in the package flows through one documented scheme so that a
(master seed, stream id) pair fully determines every draw:

* per-stream seeds come from a single splitmix64 output step applied to
  ``master + (stream_id + 1) * GOLDEN`` (mod 2^64),
* each stream is a xoshiro256** generator whose 4-word state is expanded
  from its stream seed with four successive splitmix64 steps.

Draw primitives are documented precisely because consumers promise a fixed
draw order (see the tree construction and Monte Carlo modules).

``Xoshiro256StarStarLanes`` runs many streams in lockstep over a uint64
state with one column per lane. Lane k reproduces the draws of
``Xoshiro256StarStar(seeds[k])`` exactly: a draw with a mask advances only
the lanes where the mask is set, so a lane that skips a draw (a missing map
slot, say) stays where its scalar stream would be. The uint64 arithmetic
wraps mod 2^64 and relies on NEP 50 promotion (numpy >= 2), under which
``uint64 array op Python int`` stays uint64.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns ``(new_state, output)``."""
    state = (state + GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def stream_seed(master_seed: int, stream_id: int) -> int:
    """Derive the 64-bit seed of stream ``stream_id`` from the master seed."""
    if stream_id < 0:
        raise ValueError("stream_id must be non-negative")
    state = (master_seed + (stream_id + 1) * GOLDEN) & MASK64
    _, out = splitmix64_next(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 state expansion.

    ``uniform`` returns a double in [0, 1) built from the top 53 bits;
    ``randint(n)`` is ``floor(uniform() * n)``; ``categorical(p)`` walks the
    cumulative sums of ``p`` with one ``uniform`` draw. These definitions are
    part of the reproducibility contract.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = seed & MASK64
        s = []
        for _ in range(4):
            state, word = splitmix64_next(state)
            s.append(word)
        if not any(s):  # all-zero state is invalid for xoshiro
            s[0] = GOLDEN
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2^-53

    def randint(self, n: int) -> int:
        """Uniform integer in ``{0, ..., n-1}``."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.uniform() * n)

    def categorical(self, probs) -> int:
        """Index drawn according to the probability vector ``probs``."""
        u = self.uniform()
        acc = 0.0
        last = 0
        for idx, p in enumerate(probs):
            acc += p
            last = idx
            if u < acc:
                return idx
        return last


def cumulative_probs(probs) -> np.ndarray:
    """The running sums that ``categorical`` walks, added left to right."""
    return np.fromiter(accumulate(probs, initial=0.0), np.float64)[1:]


def categorical_index(cum: np.ndarray, u) -> np.ndarray:
    """``categorical``'s index for each draw ``u`` given the running sums
    ``cum``: the first i with ``u < cum[i]``, else the last index (the sums
    may end below 1)."""
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.shape[0] - 1)


def _splitmix64_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``splitmix64_next`` on a uint64 array of states."""
    state = state + GOLDEN
    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return state, z ^ (z >> 31)


def stream_seeds(master_seed: int, stream_ids) -> np.ndarray:
    """``stream_seed`` for each of the non-negative ``stream_ids``, as uint64."""
    ids = np.asarray(stream_ids, np.uint64)
    return _splitmix64_lanes(np.uint64(master_seed & MASK64) + (ids + 1) * GOLDEN)[1]


# Per-lane operands of one step: s1 * 5, s1 << 17, rotl(s3, 45) and
# rotl(s1 * 5, 7) (left, then right shift amounts), and the final * 9.
_STEP_OPERANDS = np.array([5, 17, 45, 7, 19, 57, 9], np.uint64)[:, None]


class Xoshiro256StarStarLanes:
    """``Xoshiro256StarStar`` over a uint64 state with one column per lane:
    lane k is the generator seeded with ``seeds[k]``, all-zero fallback
    included.

    ``next_u64(mask)`` and ``uniform(mask)`` draw for every lane but
    advance only the lanes where ``mask`` is set; the values of the other
    lanes are meaningless. ``uniforms(masks)`` makes one such draw per mask,
    in order. ``keep(sel)`` drops the lanes not selected.

    A step is nine in-place numpy calls. Rows 0-3 of the state hold the
    words and row 4 holds ``s1 * 5``, so one shift-or pair rotates it and
    s3 together. With few lanes a numpy call costs far more than its
    arithmetic, and slicing, broadcasting and Python-int operands each add
    to that cost, so ``_bind`` makes the row views, the scratch rows and a
    full row of every operand once per lane set.
    """

    __slots__ = ("_s", "_s1", "_s2", "_s01", "_s23", "_s32", "_rot", "_w",
                 "_t", "_r", "_five", "_shift17", "_rotl", "_rotr", "_nine")

    def __init__(self, seeds):
        state = np.asarray(seeds, np.uint64)
        s = np.empty((5, state.shape[0]), np.uint64)
        for k in range(4):
            state, s[k] = _splitmix64_lanes(state)
        s[0, ~s[:4].any(axis=0)] = GOLDEN
        self._bind(s)

    def _bind(self, s: np.ndarray) -> None:
        self._s = s
        self._s1, self._s2, self._w = s[1], s[2], s[4]
        self._s01, self._s23, self._s32, self._rot = s[:2], s[2:4], s[3:1:-1], s[3:]
        self._t = np.empty(s.shape[1], np.uint64)
        self._r = np.empty((2, s.shape[1]), np.uint64)
        ops = np.repeat(_STEP_OPERANDS, s.shape[1], axis=1)
        self._five, self._shift17, self._nine = ops[0], ops[1], ops[6]
        self._rotl, self._rotr = ops[2:4], ops[4:6]

    def keep(self, sel) -> None:
        self._bind(np.ascontiguousarray(self._s[:, sel]))  # rows stay contiguous

    def next_u64(self, mask=None, out=None) -> np.ndarray:
        if mask is not None:
            old = self._s.copy()
        np.multiply(self._s1, self._five, self._w)
        np.left_shift(self._s1, self._shift17, self._t)
        np.bitwise_xor(self._s23, self._s01, self._s23)  # s2 ^= s0, s3 ^= s1
        np.bitwise_xor(self._s01, self._s32, self._s01)  # s0 ^= s3, s1 ^= s2
        np.bitwise_xor(self._s2, self._t, self._s2)
        np.left_shift(self._rot, self._rotl, self._r)
        np.right_shift(self._rot, self._rotr, self._rot)
        np.bitwise_or(self._rot, self._r, self._rot)
        if mask is not None:
            np.copyto(self._s, old, where=~mask)
        return np.multiply(self._w, self._nine, out)

    def uniform(self, mask=None) -> np.ndarray:
        return (self.next_u64(mask) >> 11) * 1.1102230246251565e-16  # 2^-53

    def uniforms(self, masks) -> np.ndarray:
        """``uniform(mask)`` for each of ``masks`` in turn (None: every
        lane), one row per mask."""
        out = np.empty((len(masks), self._s.shape[1]), np.uint64)
        for row, mask in zip(out, masks):
            self.next_u64(mask, row)
        return (out >> 11) * 1.1102230246251565e-16
