"""Type I single-panel precoder codebooks for 2 and 4 antenna ports.

The 4-port panel is a (N1, N2) = (2, 1) cross-polarized array with
oversampling O1 = 4, giving eight DFT beams ``v_l = [1, exp(j*pi*l/4)]``
and QPSK co-phasing ``phi_n = j^n`` between polarizations.  The 2-port
codebook is the standard small set (four rank-1 vectors, two rank-2
matrices).  Every precoder satisfies ``trace(W^H W) == 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np


class ConfigurationError(ValueError):
    """Raised for an unsupported (ports, rank) codebook request."""


SUPPORTED = {(2, 1), (2, 2), (4, 1), (4, 2)}

# 4-port panel: N1=2, N2=1, O1=4 -> eight azimuth DFT beams.
N_BEAMS_4PORT = 8


@dataclass(frozen=True, eq=False)
class PrecoderCodebook:
    """The precoders of one (ports, rank) as two read-only arrays.

    Row ``k`` of ``keys``, shape ``(n, 4)``, is the index
    ``(i11, i12, i13, i2)`` of ``precoders[k]``, shape ``(n, ports, rank)``.
    ``i12`` is always 0 for the panel shapes supported here (single row,
    no second-dimension oversampling); ``i13`` selects the beam offset of
    the second layer and is nonzero only for 4 ports at rank 2.  Rows are
    in enumeration order, lexicographic in the key; that order defines
    the deterministic tie-break of the PMI search.
    """

    ports: int
    rank: int
    keys: np.ndarray
    precoders: np.ndarray

    @cached_property
    def columns(self) -> np.ndarray:
        """Every precoder's columns side by side, layer by layer: column
        ``l * n + k``, of shape ``(ports, rank * n)``, is layer ``l`` of
        ``precoders[k]``.  Built on first use, C-contiguous and read-only."""
        columns = np.ascontiguousarray(self.precoders.transpose(1, 2, 0)).reshape(self.ports, -1)
        columns.setflags(write=False)
        return columns


def _beam(l: int) -> np.ndarray:
    """DFT beam ``v_l = [1, exp(j*pi*l/4)]`` of the 2-element panel row."""
    return np.array([1.0, np.exp(1j * np.pi * l / 4.0)], dtype=np.complex128)


def _precoder(ports: int, rank: int, i11: int, i13: int, i2: int) -> np.ndarray:
    """Precoding matrix of one index, shape ``(ports, rank)``, with
    ``trace(W^H W) == 1``; at rank 2 the two columns are orthogonal."""
    phi = 1j ** i2
    if ports == 2:
        if rank == 1:
            return np.array([[1.0], [phi]], dtype=np.complex128) / math.sqrt(2.0)
        return np.array([[1.0, 1.0], [phi, -phi]], dtype=np.complex128) / 2.0
    v = _beam(i11)
    if rank == 1:
        return np.concatenate([v, phi * v]).reshape(4, 1) / 2.0
    vp = _beam(i11 + 4 * i13)
    top = np.stack([v, vp], axis=1)
    bot = np.stack([phi * v, -phi * vp], axis=1)
    return np.vstack([top, bot]) / math.sqrt(8.0)


@lru_cache(maxsize=None)
def build_codebook(ports: int, rank: int) -> PrecoderCodebook:
    """Enumerate the full codebook for ``(ports, rank)``.

    Sizes: 32 entries for 4 ports at either rank, 4 for 2 ports rank 1,
    2 for 2 ports rank 2.  Raises :class:`ConfigurationError` for any
    other combination.  Built once per process and shared, so both of
    its arrays are read-only.
    """
    if (ports, rank) not in SUPPORTED:
        raise ConfigurationError(f"unsupported codebook: ports={ports}, rank={rank}")
    n_i11 = N_BEAMS_4PORT if ports == 4 else 1
    n_i13 = 2 if (ports, rank) == (4, 2) else 1
    n_i2 = 4 if rank == 1 else 2
    keys = np.array(list(product(range(n_i11), [0], range(n_i13), range(n_i2))))
    precoders = np.stack([_precoder(ports, rank, i11, i13, i2)
                          for i11, _, i13, i2 in keys.tolist()])
    keys.setflags(write=False)
    precoders.setflags(write=False)
    return PrecoderCodebook(ports, rank, keys, precoders)


def build_codebook_set(ports: int) -> dict[tuple[int, int], PrecoderCodebook]:
    """Both rank codebooks for ``ports``, keyed by ``(ports, rank)``."""
    return {(ports, r): build_codebook(ports, r) for r in (1, 2)}
