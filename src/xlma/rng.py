"""Named, splittable random streams derived from a single master seed.

Every stochastic component draws from its own substream keyed by a
(purpose, index...) path, so e.g. visibility sampling for grid ``k`` and
Monte Carlo trial ``t`` are independently reproducible and insensitive to
evaluation order or parallel scheduling.

Substream ``(seed, *path)`` is numpy's
``default_rng(SeedSequence([seed, *keys]))``: a string part is keyed by the
first 8 bytes of its SHA-256, an integer part is itself. This module does
not build a ``SeedSequence`` per stream: it runs ``SeedSequence``'s pool
mixing and ``generate_state(4, uint64)`` itself, in uint32 arithmetic that
works alike on Python ints (one stream) and on numpy arrays (one lane per
stream), and hands the words to ``PCG64``, which seeds from them natively.
``substreams`` forms the words of many trailing indices in one pass;
``substream`` is the same computation for a single path.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import ConfigurationError

MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's pool size and hash constants (bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715


@functools.cache
def _name_key(name: str) -> int:
    # Stable across processes/platforms, unlike hash().
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")


def _key(part: str | int) -> int:
    return _name_key(part) if isinstance(part, str) else int(part)


def _words(value: int) -> list:
    """``value`` as SeedSequence reads an entropy integer: little-endian
    uint32 words, at least one."""
    if value < 0:
        raise ConfigurationError(f"substream seeds and keys must be >= 0, got {value}")
    words = [value & MASK32]
    while value > MASK32:
        value >>= 32
        words.append(value & MASK32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """init, init*mult, init*mult**2, ... (mod 2**32), count + 1 values."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & MASK32)
    return tuple(out)


def _seed_words(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(8, uint32)`` for entropy words
    that are Python ints or equal-shape uint32 arrays.

    The hash constants depend only on the number of words, so every lane
    takes the same steps; masking each product keeps Python ints in 32 bits
    and leaves wrapped uint32 arrays as they are.
    """
    n_hashes = POOL_SIZE * POOL_SIZE + POOL_SIZE * max(0, len(entropy) - POOL_SIZE)
    consts = _hash_constants(INIT_A, MULT_A, n_hashes)
    steps = zip(consts, consts[1:])

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = ((MIX_MULT_L * x & MASK32) - (MIX_MULT_R * y & MASK32)) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    consts = _hash_constants(INIT_B, MULT_B, 8)
    out = []
    for i in range(8):
        value = (pool[i % POOL_SIZE] ^ consts[i]) * consts[i + 1] & MASK32
        out.append(value ^ value >> 16)
    return out


def _states(words: list) -> np.ndarray:
    """Seed states, (4,) uint64 for one stream or (streams, 4) for arrays,
    from ``_seed_words``' 8 uint32 words, paired little-endian as
    ``SeedSequence.generate_state`` pairs them."""
    lanes = np.ascontiguousarray(np.array(words, dtype="<u4").T)
    return lanes.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seeded_type() -> type:
    """A seed sequence type whose ``generate_state(4, uint64)`` is given.

    Made on first use, because importing ``numpy.random`` costs more than
    loading a scenario, which draws nothing.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's generate_state(4, uint64) is precomputed")
            return self.state

    return Seeded


def _generator(state: np.ndarray) -> np.random.Generator:
    """A PCG64 generator seeded from (4,) uint64 ``generate_state`` words."""
    return np.random.Generator(np.random.PCG64(_seeded_type()(state)))


def _prefix(master_seed: int, path) -> list:
    words = _words(int(master_seed))
    for part in path:
        words += _words(_key(part))
    return words


def substream(master_seed: int, *path: str | int) -> np.random.Generator:
    """Generator for the substream identified by ``path`` under ``master_seed``."""
    return _generator(_states(_seed_words(_prefix(master_seed, path))))


def substreams(master_seed: int, *path: str | int, indices):
    """Yield ``substream(master_seed, *path, t)`` for each t in ``indices``.

    Every stream's seed words are formed in one vectorized pass, each index
    as one entropy word, so indices must lie in [0, 2**32).
    """
    index = np.asarray(indices)
    if index.size and not (index.min() >= 0 and index.max() <= MASK32):
        raise ConfigurationError(
            f"substreams indices must lie in [0, 2**32), got {index.min()}..{index.max()}"
        )
    words = _seed_words(_prefix(master_seed, path) + [index.astype(np.uint32)])
    for state in _states(words):
        yield _generator(state)
