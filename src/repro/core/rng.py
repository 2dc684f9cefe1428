"""Seeded randomness helpers.

Every stochastic code path in the package draws from a
:class:`numpy.random.Generator` created here, so experiments are
bit-for-bit reproducible given a seed.  Child generators are derived with
:func:`spawn`, which folds a string tag into the parent seed sequence so
that adding a new consumer of randomness does not perturb existing ones.

:func:`spawn` builds a ``SeedSequence``, a ``PCG64`` and a ``Generator``
per call, which dominates callers that make only a few draws per stream.
Such callers derive many streams at once with :func:`spawn_states`: it
re-implements numpy's ``SeedSequence`` hash mixing and the ``PCG64``
seeding step on ``uint32``/``uint64`` arrays, giving one row of four
``uint64`` words per tag, and :func:`reseed` loads a row into one
reusable generator.  A reseeded generator is in exactly the state
``spawn(seed, tag)`` returns, so its draws are the same bytes — batching
changes what a stream costs, never what it yields.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["make_rng", "spawn", "derive_seed", "spawn_states", "reseed"]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an ``int`` seed, an existing generator (returned unchanged),
    or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: int, tag: str) -> int:
    """Deterministically derive a child seed from ``seed`` and ``tag``.

    Uses CRC32 of the tag so that distinct tags give independent streams
    and the mapping is stable across runs and platforms.
    """
    return (int(seed) * 1_000_003 + zlib.crc32(tag.encode("utf-8"))) % (2**63)


def spawn(seed: int, tag: str) -> np.random.Generator:
    """Return a generator seeded from ``derive_seed(seed, tag)``."""
    return np.random.default_rng(derive_seed(seed, tag))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, as (high, low) words
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(0xFFFFFFFF)


def _hash_consts(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The ``(xor, multiply)`` constant pairs of ``n`` successive hash
    steps: each step XORs with the running constant, advances it, then
    multiplies by the advanced one.  They do not depend on the data."""
    out = []
    const = init
    for _ in range(n):
        advanced = (const * mult) & 0xFFFFFFFF
        out.append((np.uint32(const), np.uint32(advanced)))
        const = advanced
    return out


# SeedSequence.mix_entropy makes POOL_SIZE + POOL_SIZE*(POOL_SIZE-1)
# hashmix calls for entropy of at most POOL_SIZE words; generate_state
# makes 8 hash steps for the 4 uint64 words PCG64 asks for
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (32-bit limbs)."""
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    b0, b1 = b & _LOW32, b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def spawn_states(seed: int, tags: Iterable[str]) -> np.ndarray:
    """PCG64 states of ``spawn(seed, tag)`` for every tag, in one pass.

    Returns a ``(len(tags), 4)`` ``uint64`` array; row ``i`` holds
    ``(state_high, state_low, inc_high, inc_low)`` of the generator
    ``spawn(seed, tags[i])`` returns, ready for :func:`reseed`.
    """
    base = (int(seed) * 1_000_003) % (2**63)
    crcs = np.fromiter(
        (zlib.crc32(tag.encode("utf-8")) for tag in tags), dtype=np.uint64
    )
    # derive_seed: base < 2**63 and crc < 2**32, so the sum fits a uint64
    seeds = (np.uint64(base) + crcs) & np.uint64(2**63 - 1)
    n = len(seeds)

    # SeedSequence(seed): the seed's uint32 words, low first.  A seed
    # below 2**32 is one word and the pool's missing words hash as 0,
    # so every seed mixes as [low, high, 0, 0].
    words = [
        (seeds & _LOW32).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        np.zeros(n, dtype=np.uint32),
        np.zeros(n, dtype=np.uint32),
    ]
    consts = iter(_MIX_CONSTS)
    pool = [_hashmix(word, next(consts)) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))

    # generate_state(4, uint64): 8 uint32 words cycled from the pool,
    # paired little-endian into uint64 words
    out32 = [
        _hashmix(pool[i % _POOL_SIZE], _STATE_CONSTS[i]).astype(np.uint64)
        for i in range(8)
    ]
    init_hi, init_lo, seq_hi, seq_lo = (
        out32[2 * k] | (out32[2 * k + 1] << np.uint64(32)) for k in range(4)
    )

    # pcg64_set_seed: inc = (initseq << 1) | 1; state = 0; step;
    # state += initstate; step   (step: state = state * MULT + inc)
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    s_lo = inc_lo + init_lo
    s_hi = inc_hi + init_hi + (s_lo < inc_lo).astype(np.uint64)
    prod_lo = s_lo * _PCG_MULT_LO
    prod_hi = _mulhi64(s_lo, _PCG_MULT_LO) + s_hi * _PCG_MULT_LO + s_lo * _PCG_MULT_HI
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo).astype(np.uint64)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


def reseed(
    generator: np.random.Generator, row: Sequence[int] | np.ndarray
) -> np.random.Generator:
    """Load one :func:`spawn_states` row into ``generator`` (a PCG64
    generator, reused across streams) and return it."""
    state_hi, state_lo, inc_hi, inc_lo = row
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (int(state_hi) << 64) | int(state_lo),
            "inc": (int(inc_hi) << 64) | int(inc_lo),
        },
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator
