"""Deterministic 64-bit random number generation.

All randomness in the package flows through one documented scheme so that a
(master seed, stream id) pair fully determines every draw:

* per-stream seeds come from a single splitmix64 output step applied to
  ``master + (stream_id + 1) * GOLDEN`` (mod 2^64),
* each stream is a xoshiro256** generator (Blackman & Vigna 2021) whose
  4-word state is expanded from its stream seed with four successive
  splitmix64 steps.

Draw primitives are documented precisely because consumers promise a fixed
draw order (see the tree construction and Monte Carlo modules).

There is one generator, ``Xoshiro256StarStarLanes``: many streams in
lockstep over a uint64 state with one column per lane. A draw with a mask
advances only the lanes where the mask is set, so a lane that skips a draw
(a missing map slot, say) stays where its own stream would be.
``Xoshiro256StarStar`` is its one-lane case, with scalar draws. The uint64
arithmetic wraps mod 2^64 and relies on NEP 50 promotion (numpy >= 2),
under which ``uint64 array op Python int`` stays uint64.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def stream_seed(master_seed: int, stream_id: int) -> int:
    """Derive the 64-bit seed of stream ``stream_id`` from the master seed."""
    if stream_id < 0:
        raise ValueError("stream_id must be non-negative")
    return int(stream_seeds(master_seed, [stream_id])[0])


def cumulative_probs(probs) -> np.ndarray:
    """The running sums that ``categorical_index`` walks, added left to
    right."""
    return np.fromiter(accumulate(probs, initial=0.0), np.float64)[1:]


def categorical_index(cum: np.ndarray, u) -> np.ndarray:
    """The categorical draw for each uniform ``u`` given the running sums
    ``cum`` of a probability vector: the first i with ``u < cum[i]``, else
    the last index (the sums may end below 1). This definition is part of
    the reproducibility contract."""
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.shape[0] - 1)


def _splitmix64_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One splitmix64 step on a uint64 array of states; returns
    ``(new_state, output)``."""
    state = state + GOLDEN
    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return state, z ^ (z >> 31)


def stream_seeds(master_seed: int, stream_ids) -> np.ndarray:
    """The seed of each of the non-negative ``stream_ids``, as uint64; a
    negative Python int id raises ``OverflowError``."""
    ids = np.asarray(stream_ids, np.uint64)
    return _splitmix64_lanes(np.uint64(master_seed & MASK64) + (ids + 1) * GOLDEN)[1]


# Per-lane operands of one step: s1 * 5, s1 << 17, rotl(s3, 45) and
# rotl(s1 * 5, 7) (left, then right shift amounts), and the final * 9.
_STEP_OPERANDS = np.array([5, 17, 45, 7, 19, 57, 9], np.uint64)[:, None]


class Xoshiro256StarStarLanes:
    """xoshiro256** over a uint64 state with one column per lane: lane k is
    the stream with seed ``seeds[k]``. An all-zero state, which xoshiro
    cannot leave, gets ``GOLDEN`` as its first word.

    ``next_u64(mask)`` draws for every lane but advances only the lanes
    where ``mask`` (bool, or 0 and 1) is set; the other lanes draw 0.
    ``uniforms(masks)`` makes one such draw per mask, in order. ``keep(sel)``
    drops the lanes not selected.

    A step is nine in-place numpy calls. Rows 0-3 of the state hold the
    words and row 4 holds ``s1 * 5``, so one shift-or pair rotates it and
    s3 together. With few lanes a numpy call costs far more than its
    arithmetic, and slicing, broadcasting and Python-int operands each add
    to that cost, so ``_bind`` makes the row views, the scratch rows and a
    full row of every operand once per lane set. The operand rows are
    leading slices of ``_ops``, rebuilt only once fewer than half its
    columns remain: lanes retire at nearly every level of a Monte Carlo
    draw, and the rows then never hold more than twice the live lanes.
    A masked step saves the words, steps every lane, and writes back
    ``old + (new - old) * mask`` (mod 2^64) in three plain passes: on
    20,000 lanes a masked ``copyto`` takes about four times as long.
    """

    __slots__ = ("_s", "_s1", "_s2", "_s01", "_s23", "_s32", "_rot", "_w", "_t", "_r",
                 "_words", "_old", "_old_words", "_ops", "_five", "_shift17", "_rotl",
                 "_rotr", "_nine")

    def __init__(self, seeds):
        state = np.asarray(seeds, np.uint64)
        s = np.empty((5, state.shape[0]), np.uint64)
        for k in range(4):
            state, s[k] = _splitmix64_lanes(state)
        s[0, ~s[:4].any(axis=0)] = GOLDEN
        self._ops = _STEP_OPERANDS[:, :0]
        self._bind(s)

    def _bind(self, s: np.ndarray) -> None:
        n = s.shape[1]
        self._s = s
        self._s1, self._s2, self._w = s[1], s[2], s[4]
        self._s01, self._s23, self._s32, self._rot = s[:2], s[2:4], s[3:1:-1], s[3:]
        self._t = np.empty(n, np.uint64)
        self._r = np.empty((2, n), np.uint64)
        self._old = np.zeros((5, n), np.uint64)
        self._words, self._old_words = s[:4], self._old[:4]
        if not n <= self._ops.shape[1] < 2 * n:
            self._ops = np.repeat(_STEP_OPERANDS, n, axis=1)
        ops = self._ops[:, :n]
        self._five, self._shift17, self._nine = ops[0], ops[1], ops[6]
        self._rotl, self._rotr = ops[2:4], ops[4:6]

    def keep(self, sel) -> None:
        self._bind(np.ascontiguousarray(self._s[:, sel]))  # rows stay contiguous

    def next_u64(self, mask=None, out=None) -> np.ndarray:
        if mask is not None:
            np.copyto(self._old_words, self._words)
        np.multiply(self._s1, self._five, self._w)
        np.left_shift(self._s1, self._shift17, self._t)
        np.bitwise_xor(self._s23, self._s01, self._s23)  # s2 ^= s0, s3 ^= s1
        np.bitwise_xor(self._s01, self._s32, self._s01)  # s0 ^= s3, s1 ^= s2
        np.bitwise_xor(self._s2, self._t, self._s2)
        np.left_shift(self._rot, self._rotl, self._r)
        np.right_shift(self._rot, self._rotr, self._rot)
        np.bitwise_or(self._rot, self._r, self._rot)
        if mask is not None:
            # old + (new - old) * mask, mod 2^64; row 4 of old is 0, so a
            # lane outside the mask outputs 0.
            np.subtract(self._s, self._old, out=self._s)
            np.multiply(self._s, mask, out=self._s)
            np.add(self._s, self._old, out=self._s)
        return np.multiply(self._w, self._nine, out)

    def uniforms(self, masks) -> np.ndarray:
        """Doubles in [0, 1) from the top 53 bits of ``next_u64(mask)``, for
        each of ``masks`` in turn (None: every lane), one row per mask."""
        out = np.empty((len(masks), self._s.shape[1]), np.uint64)
        for row, mask in zip(out, masks):
            self.next_u64(mask, row)
        np.right_shift(out, 11, out=out)
        return out * 1.1102230246251565e-16  # 2^-53


class Xoshiro256StarStar(Xoshiro256StarStarLanes):
    """The stream with seed ``seed``: one lane, with scalar draws.

    ``uniform`` returns a double in [0, 1) built from the top 53 bits;
    ``randint(n)`` is ``floor(uniform() * n)``. A categorical draw is
    ``categorical_index`` of one ``uniform``. These definitions are part of
    the reproducibility contract.
    """

    __slots__ = ()

    def __init__(self, seed: int):
        super().__init__([seed & MASK64])

    def uniform(self) -> float:
        return self.uniforms([None]).item()

    def randint(self, n: int) -> int:
        """Uniform integer in ``{0, ..., n-1}``."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.uniform() * n)
