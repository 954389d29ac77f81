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
stream). ``substream`` and ``substreams`` hand the words to numpy's
``PCG64`` (Monte Carlo and ``xlma validate`` draw from these Generators).
``uniforms`` runs PCG64 itself: it seeds every stream from the same words
and forms the first doubles of each in uint64 arithmetic, bit for bit what
the Generator's ``random`` gives. Visibility samples come from it, so a
command that draws nothing else (``plan``, ``map``, ``benchmark``) never
imports ``numpy.random``, whose import costs about 13-14 ms and 1.9 MB.
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
# PCG64's 128-bit LCG multiplier (numpy's pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
# Words of each uint64 temporary of ``uniforms`` (64 kB): a whole-array pass
# holds several (streams, count) temporaries at once.
DRAW_BLOCK_WORDS = 8192


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


def _stream_keys(indices) -> np.ndarray:
    """``indices`` as uint32 entropy words, one per stream: a one-dimensional
    list of integers in [0, 2**32). Integral floats such as ``5.0`` pass."""
    index = np.asarray(indices)
    if index.ndim != 1 or index.dtype.kind not in "iuf":
        raise ConfigurationError(
            f"substream indices must be a one-dimensional list of integers, "
            f"got {index.dtype} of shape {index.shape}"
        )
    if index.size and not (index.min() >= 0 and index.max() <= MASK32):
        raise ConfigurationError(
            f"substreams indices must lie in [0, 2**32), got {index.min()}..{index.max()}"
        )
    keys = index.astype(np.uint32)
    if not np.array_equal(keys, index):
        raise ConfigurationError("substream indices must be integers")
    return keys


def substreams(master_seed: int, *path: str | int, indices):
    """Yield ``substream(master_seed, *path, t)`` for each t in ``indices``.

    Every stream's seed words are formed in one vectorized pass, each index
    as one entropy word, so indices must be integers in [0, 2**32).
    """
    words = _seed_words(_prefix(master_seed, path) + [_stream_keys(indices)])
    for state in _states(words):
        yield _generator(state)


def _mulhi(x, y):
    """The high words of the 128-bit products of uint64 arrays ``x`` and
    ``y``, from 32-bit limbs: every partial product and sum fits 64 bits."""
    x_lo, x_hi = x & MASK32, x >> 32
    y_lo, y_hi = y & MASK32, y >> 32
    mid = x_hi * y_lo + (x_lo * y_lo >> 32)
    mid2 = x_lo * y_hi + (mid & MASK32)
    return x_hi * y_hi + (mid >> 32) + (mid2 >> 32)


def _mul128(x_hi, x_lo, y_hi, y_lo):
    """(x * y) mod 2**128 for 128-bit values as (high, low) uint64 words."""
    return _mulhi(x_lo, y_lo) + x_hi * y_lo + x_lo * y_hi, x_lo * y_lo


def _add128(x_hi, x_lo, y_hi, y_lo):
    """(x + y) mod 2**128 for 128-bit values as (high, low) uint64 words."""
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo


def _split(values) -> np.ndarray:
    """128-bit Python ints as (2, len) uint64: high words, then low words."""
    return np.array([[v >> 64 for v in values], [v & MASK64 for v in values]], np.uint64)


@functools.cache
def _jumps(count: int) -> np.ndarray:
    """(4, count) uint64 words, read-only: A_n = MULT**n and
    B_n = MULT**(n-1) + ... + 1 (mod 2**128) for n = 1..count, high word
    first, so that n PCG64 steps take state s to A_n * s + B_n * inc."""
    a, b = [], []
    step_a, step_b = 1, 0
    for _ in range(count):
        step_a, step_b = step_a * PCG_MULT & MASK128, (step_b * PCG_MULT + 1) & MASK128
        a.append(step_a)
        b.append(step_b)
    words = np.concatenate([_split(a), _split(b)])
    words.flags.writeable = False
    return words


def uniforms(master_seed: int, *path: str | int, indices, count: int) -> np.ndarray:
    """(len(indices), count) float64: row i is
    ``substream(master_seed, *path, indices[i]).random(count)``, bit for bit.

    PCG64 as numpy seeds it from the ``generate_state(4, uint64)`` words
    (initstate, initseq), high word first: inc = 2 * initseq + 1, then from
    state 0 one step, add initstate, one step. Draw n is the XSL-RR output
    of the state n steps on, s_n = A_n * s_0 + B_n * inc (mod 2**128), as
    ``(x >> 11) * 2**-53``. Every draw of every stream is formed at once, in
    blocks of rows whose uint64 temporaries hold ``DRAW_BLOCK_WORDS``
    words. Indices are checked as in ``substreams``.
    """
    states = _states(_seed_words(_prefix(master_seed, path) + [_stream_keys(indices)]))
    init_hi, init_lo, seq_hi, seq_lo = states.T
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    mult_hi, mult_lo = _split([PCG_MULT])
    s0_hi, s0_lo = _add128(*_mul128(*_add128(inc_hi, inc_lo, init_hi, init_lo),
                                    mult_hi, mult_lo), inc_hi, inc_lo)
    a_hi, a_lo, b_hi, b_lo = _jumps(count)
    out = np.empty((len(states), count))
    rows = max(DRAW_BLOCK_WORDS // max(count, 1), 1)
    for first in range(0, len(states), rows):
        block = slice(first, first + rows)
        hi, lo = _add128(*_mul128(s0_hi[block, None], s0_lo[block, None], a_hi, a_lo),
                         *_mul128(inc_hi[block, None], inc_lo[block, None], b_hi, b_lo))
        rot = hi >> 58
        hi ^= lo
        lo = hi >> rot | hi << (64 - rot & 63)
        np.multiply(lo >> 11, 2.0**-53, out=out[block])
    return out
