"""The doubles of numpy's default generator, drawn without importing numpy's random package.

``random(seed, count)`` equals numpy's ``default_rng(seed).random(count)``
bit for bit: numpy's SeedSequence hashes the seed into a 4-word pool, the
pool seeds a PCG64 generator (O'Neill 2014, a 128-bit LCG with the XSL-RR
128/64 output), and each double is the top 53 bits of one output.
Importing the random package would load all of its bit generators, the
legacy mtrand and OpenSSL's hashlib for this one draw.  The LCG step runs
on Python integers, in chunks; the output permutation and the conversion
run on uint64 arrays.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
# SeedSequence's hash and mix constants (bit_generator.pyx of numpy's random package)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_CHUNK = 1024  # doubles per pass, so that few Python integers are alive at once


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash; each call steps the hash constant it closes over."""

    def hashed(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashed


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _seeded(seed: int) -> tuple[int, int]:
    """(state, increment) of PCG64(SeedSequence(seed)) before its first output."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (entropy + [0] * _POOL)[:_POOL]]
    for src in range(_POOL):  # every pool word into every other, so late bits reach early ones
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight hashed words, paired little-endian
    generate = _hasher(_INIT_B, _MULT_B)
    words = [generate(pool[i % _POOL]) for i in range(8)]
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    # pcg_setseq_128_srandom_r: state 0, step, add the initial state, step
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _MASK128
    return (((u64[0] << 64 | u64[1]) + inc) * _MULTIPLIER + inc) & _MASK128, inc


def random(seed: int, count: int) -> np.ndarray:
    """The first count doubles in [0, 1) of numpy's default_rng(seed), for an integer seed >= 0."""
    state, inc = _seeded(seed)
    out = np.empty(count)
    for start in range(0, count, _CHUNK):
        states = []
        for _ in range(min(_CHUNK, count - start)):
            state = (state * _MULTIPLIER + inc) & _MASK128
            states.append(state)
        halves = np.frombuffer(b"".join([s.to_bytes(16, "little") for s in states]), dtype="<u8").reshape(-1, 2)
        lo, hi = halves[:, 0], halves[:, 1]
        rot = hi >> 58  # state >> 122
        xored = hi ^ lo
        rotated = xored >> rot | xored << ((64 - rot) & 63)  # rotate right; rot = 0 must not shift by 64
        out[start : start + len(states)] = (rotated >> 11) * 2.0**-53
    return out
