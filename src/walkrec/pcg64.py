"""numpy's default_rng((seed, a, b)) streams, many at once, as array code.

``np.random.default_rng((seed, a, b))`` seeds a PCG64 generator through a
SeedSequence over the entropy words of seed, a and b.  Pcg64Streams holds
one such generator per (a, b) pair as uint64 arrays and advances them all
together, so a million streams cost a few array operations per draw
instead of a million Generator objects.  Every draw equals the matching
Generator's ``random()`` bit for bit.

A draw makes no new arrays: the 128-bit LCG step, emulated in 32-bit
limbs, the XSL-RR output and the conversion to doubles run as ufuncs
with ``out=`` and in-place operators on the state and four scratch
arrays made with the streams, and write into a caller's output array.
Their constants are numpy scalars, since a Python int operand is
converted again on every call.

SeedSequence mixes 32-bit words with multiplier constants that do not
depend on the data, so every constant is a Python int and only the mixed
words are arrays.  Both a and b must be below 2**32: each is then one
entropy word, as the walk sampler's start codes and walk indices are.
"""

import numpy as np

__all__ = ["Pcg64Streams"]

_M32 = 0xFFFFFFFF
# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier, as (high, low) words and low's 32-bit limbs
_U64 = np.uint64
_MUL_HI, _MUL_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)
_MUL_LO0, _MUL_LO1 = _U64(int(_MUL_LO) & _M32), _U64(int(_MUL_LO) >> 32)
_LOW32, _11, _32, _58, _64 = _U64(_M32), _U64(11), _U64(32), _U64(58), _U64(64)
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _words(n):
    "The uint32 entropy words of a non-negative int, least significant first."
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def _hash_steps(init, mult, count):
    "(new, old) constant of each of count steps h -> h * mult (mod 2**32) from init."
    out = []
    for _ in range(count):
        out.append((init * mult & _M32, init))
        init = out[-1][0]
    return out


def _hashmix(value, k, prev):
    "SeedSequence's hashmix: value ^ prev, times k, xor-shifted (array or int)."
    value = (value ^ prev) * k & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    "SeedSequence's mix of two 32-bit words, each an int or a uint32 array."
    r = ((x * _MIX_L & _M32) - (y * _MIX_R & _M32)) & _M32
    return r ^ (r >> 16)


def _pool(entropy):
    """SeedSequence's 4-word pool from a list of entropy words.

    Each word is an int or a uint32 array; constants advance exactly as in
    mix_entropy, whose sequence of hashmix calls does not depend on data.
    """
    n_hash = _POOL + _POOL * (_POOL - 1) + _POOL * max(len(entropy) - _POOL, 0)
    steps = iter(_hash_steps(_INIT_A, _MULT_A, n_hash))

    def hashmix(value):
        return _hashmix(value, *next(steps))

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


class Pcg64Streams:
    """One PCG64 stream per element of (a, b), as default_rng((seed, a, b)) makes it.

    Args:
        seed: non-negative int, any size.
        a, b: equal-length integer arrays, every value in [0, 2**32).
    """

    def __init__(self, seed, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        for name, x in (("a", a), ("b", b)):
            if x.size and not (x.min() >= 0 and x.max() <= _M32):
                raise ValueError(f"{name} must be in [0, 2**32)")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        pool = _pool([*_words(seed), a.astype(np.uint32), b.astype(np.uint32)])
        # generate_state(4, uint64): 8 hashed uint32 words, pairs little-endian
        state = [_hashmix(pool[i % _POOL], *step).astype(np.uint64)
                 for i, step in enumerate(_hash_steps(_INIT_B, _MULT_B, 8))]
        initstate_hi, initstate_lo, initseq_hi, initseq_lo = (
            state[2 * j] | (state[2 * j + 1] << 32) for j in range(4))
        # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1; state = 0, step
        # (state = inc), add initstate, step
        self._inc_hi = (initseq_hi << 1) | (initseq_lo >> 63)
        self._inc_lo = (initseq_lo << 1) | 1
        self._lo = self._inc_lo + initstate_lo
        self._hi = self._inc_hi + initstate_hi + (self._lo < initstate_lo)
        self._scratch = tuple(np.empty(len(self._lo), dtype=np.uint64) for _ in range(4))
        self._carry = np.empty(len(self._lo), dtype=bool)
        self._step()

    def _step(self):
        "state = state * MUL + inc (mod 2**128), for every stream, in place."
        hi, lo = self._hi, self._lo
        a0, a1, mid, t = self._scratch
        hi *= _MUL_LO
        np.multiply(lo, _MUL_HI, out=t)
        hi += t
        # plus the high word of lo * MUL_LO, by 32-bit limbs (lo = a1 * 2**32 + a0),
        # as in Hacker's Delight's mulhu: no sum below can pass 2**64
        np.bitwise_and(lo, _LOW32, out=a0)
        np.right_shift(lo, _32, out=a1)
        np.multiply(a0, _MUL_LO0, out=t)
        t >>= _32
        np.multiply(a1, _MUL_LO0, out=mid)
        t += mid  # a1 * MUL_LO0 plus the carry word of a0 * MUL_LO0
        np.bitwise_and(t, _LOW32, out=mid)
        t >>= _32
        a0 *= _MUL_LO1
        mid += a0
        mid >>= _32
        a1 *= _MUL_LO1
        hi += a1
        hi += t
        hi += mid
        lo *= _MUL_LO
        lo += self._inc_lo
        hi += self._inc_hi
        np.less(lo, self._inc_lo, out=self._carry)
        hi += self._carry

    def next_uint64(self, out=None):
        """Advance every stream once; the 64-bit outputs (XSL-RR of the new state),
        written into out, a uint64 array of one element a stream, when given, else
        into a new array; either is returned."""
        self._step()
        x, rot, t, _ = self._scratch
        np.bitwise_xor(self._hi, self._lo, out=x)
        np.right_shift(self._hi, _58, out=rot)
        np.right_shift(x, rot, out=t)
        np.subtract(_64, rot, out=rot)  # numpy shifts by 64 or more to 0, so rot = 0 works
        out = np.left_shift(x, rot, out=out)
        out |= t
        return out

    def random(self, out=None):
        """Advance every stream once; the doubles in [0, 1) Generator.random() draws,
        written into out, a float64 array of one element a stream, when given, else
        into a new array; either is returned."""
        bits = self.next_uint64(self._scratch[3])
        bits >>= _11
        return np.multiply(bits, _TO_UNIT, out=out)
