"""Channel realizations: single-tap Rician block fading, received power, estimates.

Every channel is a block array: one ``(2, n_tx)`` matrix per coherence
block, shape ``(n_blocks, 2, n_tx)``.  Both channel models are flat in
frequency, so one matrix stands for every subcarrier of its block; only
an estimate with error spans the band, shape ``(n_blocks, n_sc, 2, n_tx)``.

Random streams: block ``b`` of drop ``seed`` draws its scattered fading
and its estimation error from what ``np.random.default_rng([tag, seed, b])``
would draw.  One generator per block costs a ``SeedSequence``, a ``PCG64``
and a ``Generator`` per block, so :func:`block_streams` derives the
streams of many blocks at once, exactly:

1. ``SeedSequence([tag, seed, b]).generate_state(4, np.uint64)`` is
   restated over a column of block ids.  The entropy words are ``tag``,
   the 32-bit words of ``seed`` (least significant first; 0 is the one
   word ``[0]``) and ``b``; NumPy's ``hashmix`` and ``mix`` fold them into
   a pool of 4 words, in 32-bit arithmetic.  The hash constants do not
   depend on the data, so every block takes the same array operations,
   and the words shared by all blocks stay Python ints until they meet
   the block column.
2. The four words seed PCG64 as ``PCG64`` does (O'Neill 2014,
   ``pcg_setseq_128_srandom_r``): ``inc = (initseq << 1) | 1``, one step
   from state 0, add ``initstate``, one more step.
3. Each block's ``(state, inc)`` is set on one reused ``PCG64`` through
   its public ``state`` setter, and the same ``standard_normal`` draws
   follow.

``tests/test_channel.py::TestBlockStreams`` compares steps 1 and 2 with
NumPy itself (``test_words_match_seed_sequence``,
``test_states_match_default_rng``), so a NumPy release that changed
either fails there before any golden output moves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Leading stream tags keep the independent random streams of one seed
# (LOS phase, scattered fading, estimation noise) from colliding.
_LOS_STREAM = 11
_NLOS_STREAM = 12
_EST_STREAM = 13

# SeedSequence's constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` with its own running hash constant.

    Takes a Python int or a ``uint64`` array of 32-bit words; masking
    keeps each product below 2^64 and each result below 2^32.
    """
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _seed_words(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(8, np.uint32)``, one entry per word."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]


def _int_words(n: int) -> list[int]:
    """The 32-bit words SeedSequence takes an int as, least significant first."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@dataclass(frozen=True, eq=False)
class BlockStreams:
    """One random stream per block, and the one generator that draws them all.

    ``states[i]`` is the PCG64 state ``default_rng([tag, seed,
    block_ids[i]])`` starts from.  Slicing selects blocks and keeps the
    generator, so a caller that draws a few blocks at a time derives the
    streams once.  Not for concurrent use: the generator is shared.
    """

    states: list
    gen: np.random.Generator

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, index: slice) -> BlockStreams:
        return BlockStreams(self.states[index], self.gen)

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        """``standard_normal((2,) + shape)`` from each stream: the real parts,
        then the imaginary parts, of ``shape`` complex normals.

        One ``standard_normal`` call per block consumes the stream exactly
        as two calls of ``shape`` would.  Returns shape ``(len(self), 2) + shape``.
        """
        buf = np.empty((len(self.states), 2) + shape)
        bit_generator = self.gen.bit_generator
        for state, row in zip(self.states, buf):
            bit_generator.state = state
            self.gen.standard_normal(out=row)
        return buf


def block_streams(tag: int, seed: int, block_ids) -> BlockStreams:
    """The streams ``default_rng([tag, seed, b])`` of each ``b`` in ``block_ids``, in bulk.

    ``seed`` is any non-negative int; block ids lie in ``[0, 2**32)``,
    which every block of a parsed scenario does (``MAX_N_SLOTS`` is far
    below).  Raises ``ValueError`` naming the argument otherwise.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ids = np.asarray(block_ids)
    one_word_ints = ids.size == 0 or (ids.dtype.kind in "iu"
                                      and ids.min() >= 0 and ids.max() <= _MASK32)
    if ids.ndim != 1 or not one_word_ints:
        raise ValueError(f"block_ids must be a sequence of integers in [0, 2**32), "
                         f"got {block_ids!r}")
    words = _seed_words([tag, *_int_words(seed), ids.astype(np.uint64)])
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = (
        (words[k] | words[k + 1] << 32).tolist() for k in range(0, 8, 2))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(initstate_hi, initstate_lo, initseq_hi, initseq_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return BlockStreams(states, np.random.Generator(np.random.PCG64(0)))


def estimate_streams(seed: int, block_ids) -> BlockStreams:
    """Estimation-error streams of blocks ``block_ids`` of drop ``seed``."""
    return block_streams(_EST_STREAM, seed, block_ids)


def rice1_blocks(seed: int, k_factor: float, n_tx: int, block_ids) -> np.ndarray:
    """Single-tap Rician block-fading draws, one ``(2, n_tx)`` matrix per block.

    The line-of-sight component is the all-ones matrix carrying one
    uniform phase drawn per ``seed`` (shared by all blocks of a drop);
    the scattered component is redrawn i.i.d. CN(0, 1) per
    ``(seed, block_id)``, so a block's draw does not depend on which other
    blocks are drawn with it.  Entry powers satisfy ``E|h|^2 == 1`` for
    every K factor.  Returns shape ``(len(block_ids), 2, n_tx)``.
    """
    if k_factor < 0:
        raise ValueError(f"k_factor must be >= 0, got {k_factor}")
    if n_tx not in (2, 4):
        raise ValueError(f"n_tx must be 2 or 4, got {n_tx}")
    buf = block_streams(_NLOS_STREAM, seed, block_ids).normals((2, n_tx))
    scat = buf[:, 0] + 1j * buf[:, 1]
    theta = np.random.default_rng([_LOS_STREAM, seed]).uniform(0.0, 2.0 * np.pi)
    los = np.full((2, n_tx), np.exp(1j * theta), dtype=np.complex128)
    scat /= np.sqrt(2.0)
    h = np.sqrt(k_factor / (k_factor + 1.0)) * los + np.sqrt(1.0 / (k_factor + 1.0)) * scat
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    return h


def block_rx_power(h: np.ndarray) -> np.ndarray:
    """Mean received power per transmit antenna of each block, shape ``(n_blocks,)``:
    the mean of ``|h|^2`` over the one matrix every subcarrier of the block holds.
    The sum over the count is the bits of ``np.mean``, without its Python overhead."""
    return (np.abs(h) ** 2).sum(axis=(1, 2)) / (h.shape[1] * h.shape[2])


def estimate_blocks(h: np.ndarray, est_error_var: float, streams: BlockStreams | None,
                    n_sc: int) -> np.ndarray:
    """Channel estimate seen by the UE for each block ``h[i]``.

    Adds i.i.d. CN(0, est_error_var) perturbation to every entry of every
    one of the ``n_sc`` subcarriers, drawn from ``streams[i]``: for block
    ``b`` of drop ``seed``, that is ``estimate_streams(seed, [b])``, so a
    block's estimate does not depend on which other blocks are estimated
    with it.  ``streams`` is not read, and may be None, when the error
    variance is zero.  Returns the subcarriers that need evaluating,
    shape ``(n_blocks, n_eval, 2, n_tx)``: one per block when the error
    variance is zero (the estimate is the flat channel itself), else all
    ``n_sc``.  A negative or non-finite ``est_error_var``, an ``n_sc`` below
    1 or, at a positive variance, missing streams raise ``ValueError``.
    """
    if not 0.0 <= est_error_var < np.inf:
        raise ValueError(f"est_error_var must be finite and >= 0, got {est_error_var}")
    if n_sc < 1:
        raise ValueError(f"n_sc must be >= 1, got {n_sc}")
    if est_error_var == 0:
        return h[:, None]
    if streams is None:
        raise ValueError("streams must be given when est_error_var > 0")
    if len(streams) != len(h):
        raise ValueError(f"need one stream per block: {len(streams)} streams, {len(h)} blocks")
    # Each part in one pass, buf * scale + h: the bits of the complex
    # normals scaled and added to h as complex arrays.
    buf = streams.normals((n_sc,) + h.shape[1:])
    scale = np.sqrt(est_error_var / 2.0)
    est = np.empty(buf[:, 0].shape, dtype=np.complex128)
    for part, normals, mean in ((est.real, buf[:, 0], h.real), (est.imag, buf[:, 1], h.imag)):
        np.multiply(normals, scale, out=part)
        part += mean[:, None]
    return est


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from integer parts (e.g. run seed, drop)."""
    seq = np.random.SeedSequence(list(parts))
    return int(seq.generate_state(1, np.uint64)[0])
