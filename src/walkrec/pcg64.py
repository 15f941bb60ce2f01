"""numpy's default_rng((seed, a, b)) streams, many at once, as array code.

``np.random.default_rng((seed, a, b))`` seeds a PCG64 generator through a
SeedSequence over the entropy words of seed, a and b.  Pcg64Streams holds
one such generator per (a, b) pair as uint64 arrays and advances them all
together, so a million streams cost a few array operations per draw
instead of a million Generator objects.  Every draw equals the matching
Generator's ``random()`` bit for bit.

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
_MUL_HI, _MUL_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MUL_LO0, _MUL_LO1 = _MUL_LO & _M32, _MUL_LO >> 32


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


def _mulhi(a, b0, b1):
    "High 64 bits of the uint64 array a times the constant b1 * 2**32 + b0."
    a0, a1 = a & _M32, a >> 32
    lo_lo = a0 * b0
    hi_lo = a1 * b0
    lo_hi = a0 * b1
    mid = (lo_lo >> 32) + (hi_lo & _M32) + (lo_hi & _M32)
    return a1 * b1 + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


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
        self._step()

    def _step(self):
        "state = state * MUL + inc (mod 2**128), for every stream."
        hi, lo = self._hi, self._lo
        hi *= _MUL_LO
        hi += lo * _MUL_HI
        hi += _mulhi(lo, _MUL_LO0, _MUL_LO1)
        lo *= _MUL_LO
        lo += self._inc_lo
        hi += self._inc_hi
        hi += lo < self._inc_lo

    def next_uint64(self):
        "Advance every stream once; the 64-bit outputs (XSL-RR of the new state)."
        self._step()
        x = self._hi ^ self._lo
        rot = self._hi >> 58
        return (x >> rot) | (x << ((64 - rot) & 63))

    def random(self):
        "Advance every stream once; the doubles in [0, 1) Generator.random() draws."
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)
