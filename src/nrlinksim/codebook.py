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
from functools import lru_cache
from typing import Iterator

import numpy as np


class ConfigurationError(ValueError):
    """Raised for an unsupported (ports, rank) codebook request."""


SUPPORTED = {(2, 1), (2, 2), (4, 1), (4, 2)}

# 4-port panel: N1=2, N2=1, O1=4 -> eight azimuth DFT beams.
N_BEAMS_4PORT = 8


@dataclass(frozen=True)
class PmiIndex:
    """Codebook index tuple ``(i11, i12, i13, i2)`` with its context.

    ``i12`` is always 0 for the panel shapes supported here (single row,
    no second-dimension oversampling); ``i13`` selects the beam offset of
    the second layer and is meaningful only for 4 ports at rank 2.
    """

    i11: int
    i12: int
    i13: int
    i2: int
    rank: int
    ports: int

    def __post_init__(self):
        if (self.ports, self.rank) not in SUPPORTED:
            raise ConfigurationError(
                f"unsupported codebook: ports={self.ports}, rank={self.rank}"
            )
        if self.i12 != 0:
            raise ValueError(f"i12 must be 0, got {self.i12}")
        if self.ports == 2:
            if self.i11 != 0:
                raise ValueError(f"i11 must be 0 for 2 ports, got {self.i11}")
            if self.i13 != 0:
                raise ValueError(f"i13 must be 0 for 2 ports, got {self.i13}")
            n_cophase = 4 if self.rank == 1 else 2
        else:
            if not 0 <= self.i11 < N_BEAMS_4PORT:
                raise ValueError(f"i11 must be in [0, 8), got {self.i11}")
            if self.rank == 1:
                if self.i13 != 0:
                    raise ValueError(f"i13 must be 0 for rank 1, got {self.i13}")
                n_cophase = 4
            else:
                if self.i13 not in (0, 1):
                    raise ValueError(f"i13 must be 0 or 1, got {self.i13}")
                n_cophase = 2
        if not 0 <= self.i2 < n_cophase:
            raise ValueError(f"i2 must be in [0, {n_cophase}), got {self.i2}")

    def key(self) -> tuple[int, int, int, int]:
        """The bare index tuple, in lexicographic-comparison order."""
        return (self.i11, self.i12, self.i13, self.i2)


def _beam(l: int) -> np.ndarray:
    """DFT beam ``v_l = [1, exp(j*pi*l/4)]`` of the 2-element panel row."""
    return np.array([1.0, np.exp(1j * np.pi * l / 4.0)], dtype=np.complex128)


def _cophase(n: int) -> complex:
    """QPSK co-phasing factor ``phi_n = j^n``."""
    return 1j ** n


def precoder_for(idx: PmiIndex) -> np.ndarray:
    """Precoding matrix for one codebook index, shape ``(ports, rank)``.

    The matrix is normalized so that ``trace(W^H W) == 1``; at rank 2 the
    two columns are mutually orthogonal by construction.
    """
    phi = _cophase(idx.i2)
    if idx.ports == 2:
        if idx.rank == 1:
            w = np.array([[1.0], [phi]], dtype=np.complex128) / math.sqrt(2.0)
        else:
            w = np.array([[1.0, 1.0], [phi, -phi]], dtype=np.complex128) / 2.0
    else:
        v = _beam(idx.i11)
        if idx.rank == 1:
            w = np.concatenate([v, phi * v]).reshape(4, 1) / 2.0
        else:
            vp = _beam(idx.i11 + 4 * idx.i13)
            top = np.stack([v, vp], axis=1)
            bot = np.stack([phi * v, -phi * vp], axis=1)
            w = np.vstack([top, bot]) / math.sqrt(8.0)
    w.setflags(write=False)
    return w


class PrecoderCodebook:
    """Ordered, immutable collection of precoders for one (ports, rank).

    Entries are kept in enumeration order (lexicographic in the index
    tuple); that order defines the deterministic tie-break of the PMI
    search.
    """

    def __init__(self, ports: int, rank: int,
                 entries: list[tuple[PmiIndex, np.ndarray]]):
        self.ports = ports
        self.rank = rank
        self.entries: tuple[tuple[PmiIndex, np.ndarray], ...] = tuple(entries)
        # Every precoder in enumeration order, shape (n_entries, ports, rank).
        self.precoders = np.stack([w for _, w in self.entries])
        self.precoders.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[PmiIndex, np.ndarray]]:
        return iter(self.entries)


@lru_cache(maxsize=None)
def build_codebook(ports: int, rank: int) -> PrecoderCodebook:
    """Enumerate the full codebook for ``(ports, rank)``.

    Sizes: 32 entries for 4 ports at either rank, 4 for 2 ports rank 1,
    2 for 2 ports rank 2.  Raises :class:`ConfigurationError` for any
    other combination.  Built once per process and shared: its indices
    are frozen, its entries a tuple and its precoders read-only.
    """
    if (ports, rank) not in SUPPORTED:
        raise ConfigurationError(f"unsupported codebook: ports={ports}, rank={rank}")
    indices: list[PmiIndex] = []
    if ports == 2:
        for i2 in range(4 if rank == 1 else 2):
            indices.append(PmiIndex(0, 0, 0, i2, rank, ports))
    elif rank == 1:
        for i11 in range(N_BEAMS_4PORT):
            for i2 in range(4):
                indices.append(PmiIndex(i11, 0, 0, i2, rank, ports))
    else:
        for i11 in range(N_BEAMS_4PORT):
            for i13 in range(2):
                for i2 in range(2):
                    indices.append(PmiIndex(i11, 0, i13, i2, rank, ports))
    return PrecoderCodebook(ports, rank, [(idx, precoder_for(idx)) for idx in indices])


def build_codebook_set(ports: int) -> dict[tuple[int, int], PrecoderCodebook]:
    """Both rank codebooks for ``ports``, keyed by ``(ports, rank)``."""
    return {(ports, r): build_codebook(ports, r) for r in (1, 2)}
