"""Scenario configuration: defaults, JSON parsing, strict validation.

A scenario is the single source of truth for one simulated system:
antenna geometry, resource grid, channel model, noise model, CSI
reporting options, PHY-abstraction knobs, and run lengths.  Parsing is
strict — unknown keys and out-of-range values are rejected with the
offending field named — so golden files cannot silently drift.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .channel import rice1_blocks, snr_noise_variance
from .csi import CsiConfig

# Largest NR resource grid (TS 38.211 section 4.4.2).
MAX_N_PRB = 275
# Longest drop, 500 s of 0.5 ms slots: a drop keeps a few n_slots-long arrays,
# so a larger value is refused here, not by a MemoryError mid-run.  It also
# bounds the other slot counts, which mean nothing more beyond one drop and
# would otherwise overflow int64 mid-run.
MAX_N_SLOTS = 10 ** 6
# Most (report, block) pairs one drop may hold, as bounded by
# _harq_pair_bound: each costs a few hundred bytes in drop_csi and run_harq.
# A Rician drop of 10^6 slots at the default fields needs 3 * 10^5.
MAX_HARQ_PAIRS = 2 ** 19


class RankCaps(Mapping):
    """Effective-SINR ceiling (dB) of each rank: an immutable mapping,
    hashable, and equal to any mapping with the same items."""

    def __init__(self, caps: Mapping[int, float]):
        self._caps = dict(caps)

    def __getitem__(self, rank: int) -> float:
        return self._caps[rank]

    def __iter__(self):
        return iter(self._caps)

    def __len__(self) -> int:
        return len(self._caps)

    def __hash__(self) -> int:
        return hash(frozenset(self._caps.items()))

    def __repr__(self) -> str:
        return f"RankCaps({self._caps!r})"


# Rank-dependent effective-SINR ceilings (dB) modeling the fixed receiver
# impairment floor; rank 2 pays an extra inter-layer penalty.
DEFAULT_SINR_CAP_DB = RankCaps({1: 19.0, 2: 16.0})


class ScenarioError(ValueError):
    """Raised when a scenario document fails validation."""


@dataclass(frozen=True)
class ChannelModel:
    """Channel model selection: a fixed matrix or single-tap Rician fading."""

    kind: str  # "fixed" | "rice1"
    # Stored as complex rows, immutable and compared by value; np.asarray
    # turns it back into an array.
    matrix: tuple[tuple[complex, ...], ...] | None = None
    k_factor: float = 1.0
    coherence_slots: int = 10

    def __post_init__(self):
        if self.kind not in ("fixed", "rice1"):
            raise ScenarioError(f"channel.type must be 'fixed' or 'rice1', got {self.kind!r}")
        if self.kind == "fixed" and self.matrix is None:
            raise ScenarioError("channel.matrix is required for a fixed channel")
        if self.matrix is not None:
            try:
                m = np.asarray(self.matrix)
            except ValueError:  # ragged
                m = np.empty(0)
            if m.ndim != 2 or m.size == 0 or m.dtype.kind not in "iufc":
                raise ScenarioError(f"channel.matrix must be a nonempty 2-D matrix of numbers, "
                                    f"got {self.matrix!r}")
            object.__setattr__(self, "matrix", tuple(map(tuple, m.astype(np.complex128).tolist())))
        if self.kind == "fixed" and not np.all(np.isfinite(self.matrix)):
            raise ScenarioError("channel.matrix entries must be finite")
        if not 0 <= self.k_factor < inf:
            raise ScenarioError(f"channel.k_factor must be finite and >= 0, got {self.k_factor}")
        _integer(self.coherence_slots, "channel.coherence_slots")
        if not 1 <= self.coherence_slots <= MAX_N_SLOTS:
            raise ScenarioError(f"channel.coherence_slots must be in [1, {MAX_N_SLOTS}], "
                                f"got {self.coherence_slots}")


def _snr_in_range(snr_db: float) -> bool:
    """Whether ``10^(snr_db / 10)`` is a positive finite float."""
    try:
        return 0.0 < 10.0 ** (snr_db / 10.0) < inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class NoiseModel:
    """Receiver-noise selection for a scenario.

    Modes: ``noise_free``; ``snr`` (per-antenna SNR target in dB, resolved
    against each block's mean channel power); ``snr_sweep`` (list of SNR
    points, resolved the same way); ``variance`` (direct noise variance,
    independent of the channel).
    """

    mode: str = "noise_free"
    snr_db: float | None = None
    snr_db_list: tuple[float, ...] = ()
    variance: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "snr_db_list", tuple(map(float, self.snr_db_list)))
        if self.mode not in ("noise_free", "snr", "snr_sweep", "variance"):
            raise ScenarioError(f"noise.mode {self.mode!r} unknown")
        for key, owner, given in (("snr_db", "snr", self.snr_db is not None),
                                  ("snr_db_list", "snr_sweep", len(self.snr_db_list) > 0),
                                  ("variance", "variance", self.variance is not None)):
            if given and self.mode != owner:
                raise ScenarioError(f"noise.{key} applies only to mode {owner!r}")
            if not given and self.mode == owner:
                raise ScenarioError(f"noise.{key} is required for mode {owner!r}")
        # A subnormal variance overflows |det G|^2 / n in the PMI search.
        if self.variance is not None and not self.variance >= np.finfo(float).tiny:
            raise ScenarioError("noise.variance must be a positive normal float "
                                f"(>= {np.finfo(float).tiny}) for mode 'variance', "
                                f"got {self.variance}")
        if self.snr_db is not None and not _snr_in_range(self.snr_db):
            raise ScenarioError(
                f"noise.snr_db must give a positive finite linear SNR, got {self.snr_db}")
        for p in self.snr_db_list:
            if not _snr_in_range(p):
                raise ScenarioError(
                    f"noise.snr_db_list entries must give a positive finite linear SNR, "
                    f"got {p}")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified simulation setup."""

    channel: ChannelModel
    noise: NoiseModel = NoiseModel()
    csi: CsiConfig = CsiConfig()
    n_tx: int | None = None  # None: the width of a fixed matrix, else 4
    n_prb: int = 106
    n_slots: int = 2000
    n_drops: int = 20
    csi_period: int = 10
    dl_duty_factor: float = 1.0
    seed: int = 0
    est_error_var: float = 0.0
    max_harq_tx: int = 4
    # Overrides the ceilings of the ranks it names; the others keep the
    # default.  Stored as a RankCaps.
    sinr_cap_db: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_tx is None:
            object.__setattr__(self, "n_tx", len(self.channel.matrix[0])
                               if self.channel.kind == "fixed" else 4)
        object.__setattr__(self, "sinr_cap_db",
                           RankCaps({**DEFAULT_SINR_CAP_DB, **self.sinr_cap_db}))
        for name in ("n_tx", "n_prb", "n_slots", "n_drops", "csi_period", "seed", "max_harq_tx"):
            _integer(getattr(self, name), f"scenario.{name}")
        if self.n_tx not in (2, 4):
            raise ScenarioError(f"scenario.n_tx must be 2 or 4, got {self.n_tx}")
        if not 1 <= self.n_prb <= MAX_N_PRB:
            raise ScenarioError(
                f"scenario.n_prb must be in [1, {MAX_N_PRB}], got {self.n_prb}")
        for name in ("n_slots", "csi_period", "max_harq_tx"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_N_SLOTS:
                raise ScenarioError(
                    f"scenario.{name} must be in [1, {MAX_N_SLOTS}], got {value}")
        pairs = _harq_pair_bound(self.n_slots, self.coherence_slots, self.csi_period,
                                self.max_harq_tx)
        if pairs > MAX_HARQ_PAIRS:
            raise ScenarioError(
                f"scenario.max_harq_tx {self.max_harq_tx} with n_slots {self.n_slots}, "
                f"csi_period {self.csi_period} and channel.coherence_slots "
                f"{self.coherence_slots} allows up to {pairs} (report, block) pairs "
                f"per drop, above {MAX_HARQ_PAIRS}")
        if self.n_drops < 1:
            raise ScenarioError(f"scenario.n_drops must be >= 1, got {self.n_drops}")
        if not 0.0 < self.dl_duty_factor <= 1.0:
            raise ScenarioError(
                f"scenario.dl_duty_factor must be in (0, 1], got {self.dl_duty_factor}")
        if self.seed < 0:
            raise ScenarioError(f"scenario.seed must be >= 0, got {self.seed}")
        if not 0 <= self.est_error_var < inf:
            raise ScenarioError(
                f"scenario.est_error_var must be finite and >= 0, got {self.est_error_var}")
        if set(self.sinr_cap_db) != {1, 2}:
            raise ScenarioError("sinr_cap_db keys must be ranks 1 and 2")
        for r, cap in self.sinr_cap_db.items():
            if not cap > 0:
                raise ScenarioError(f"sinr_cap_db[{r}] must be > 0, got {cap}")
        if self.channel.kind == "fixed":
            m = np.asarray(self.channel.matrix)
            if m.shape != (2, self.n_tx):
                raise ScenarioError(
                    f"channel.matrix shape {m.shape} does not match "
                    f"(n_rx, n_tx) = (2, {self.n_tx})")
            if self.noise.mode in ("snr", "snr_sweep") and not np.mean(np.abs(m) ** 2) > 0.0:
                raise ScenarioError(
                    f"noise.mode {self.noise.mode!r} needs a channel.matrix with "
                    "nonzero power; use noise.mode 'variance'")

    @property
    def is_fading(self) -> bool:
        return self.channel.kind == "rice1"

    @property
    def drop_invariant_csi(self) -> bool:
        """Whether every drop has the same channel, estimate, noise levels,
        reports and pair SINRs: a fixed channel, estimated without error.
        Such drops differ only in their ACK draws."""
        return not self.is_fading and self.est_error_var == 0

    @property
    def coherence_slots(self) -> int:
        """Slots per channel block: a fixed channel is one block of ``n_slots`` slots."""
        return self.channel.coherence_slots if self.is_fading else self.n_slots

    def block_channels(self, drop_seed: int, n_blocks: int) -> np.ndarray:
        """True channel of blocks ``0 .. n_blocks - 1`` of one drop.

        Shape ``(n_blocks, 2, n_tx)``; row ``b`` is the matrix every
        subcarrier of block ``b`` holds.  A fixed channel is the same
        read-only matrix in every block.
        """
        if self.channel.kind == "fixed":
            h = np.asarray(self.channel.matrix, dtype=np.complex128)
            return np.broadcast_to(h, (n_blocks,) + h.shape)
        return rice1_blocks(drop_seed, self.channel.k_factor, self.n_tx, range(n_blocks))

    def noise_vars(self, p_rx: np.ndarray) -> np.ndarray:
        """Noise variance of each block at each noise point, given its received power.

        Shape ``(n_points, n_blocks)``, one row per ``snr_sweep`` point or else one row.
        """
        if self.noise.mode == "noise_free":
            return np.zeros((1,) + p_rx.shape)
        if self.noise.mode == "variance":
            return np.full((1,) + p_rx.shape, float(self.noise.variance))
        snrs = self.noise.snr_db_list or (self.noise.snr_db,)
        return np.array([snr_noise_variance(snr, p_rx) for snr in snrs])


def _harq_pair_bound(n_slots: int, coherence_slots: int, csi_period: int,
                    max_harq_tx: int) -> int:
    """Upper bound, in O(1), on the (report, block) pairs of one drop.

    A drop of ``B`` blocks holds at most ``R = min(B, ceil(n_slots /
    csi_period))`` reports, the ``k``-th in block ``b_k >= k``.  Its grant
    meets blocks ``b_k`` up to at most ``q = ceil((max_harq_tx - 2) /
    coherence_slots)`` past the next report's block, and never past the
    last block: the pairs number at most ``B + (R - 1)(q + 1)`` and at
    most ``sum_k (B - k)``.
    """
    blocks = -(-n_slots // coherence_slots)
    reports = min(blocks, -(-n_slots // csi_period))
    reach = -(-max(max_harq_tx - 2, 0) // coherence_slots)
    return min(blocks + (reports - 1) * (reach + 1),
               reports * blocks - reports * (reports - 1) // 2)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _check_keys(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(unknown)}")


def _is_finite_number(v) -> bool:
    """A JSON number other than NaN, +-Infinity and integers beyond the float
    range (booleans are not numbers)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return isfinite(v)
    except OverflowError:
        return False


# Readers: each checks one set JSON value's type and converts it; the
# dataclasses check ranges.  ``where`` is the dotted key named on error.

def _number(v, where: str) -> float:
    _require(_is_finite_number(v), f"{where} must be a finite number")
    return float(v)


def _integer(v, where: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{where} must be an integer")
    return v


def _string(v, where: str) -> str:
    _require(isinstance(v, str), f"{where} must be a string")
    return v


def _numbers(v, where: str) -> tuple[float, ...]:
    _require(isinstance(v, list) and v and all(_is_finite_number(p) for p in v),
             f"{where} must be a nonempty list of finite numbers")
    return tuple(float(p) for p in v)


def _parse_matrix(rows, where: str) -> list[list[complex]]:
    """Parse a matrix given as rows of numbers or [re, im] pairs."""
    _require(isinstance(rows, list) and rows, f"{where} must be a nonempty list of rows")
    out = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and row, f"{where}[{i}] must be a nonempty list")
        vals = []
        for j, cell in enumerate(row):
            if _is_finite_number(cell):
                vals.append(complex(cell))
            elif (isinstance(cell, list) and len(cell) == 2
                  and all(_is_finite_number(c) for c in cell)):
                vals.append(complex(cell[0], cell[1]))
            else:
                raise ScenarioError(
                    f"{where}[{i}][{j}] must be a finite number or an [re, im] "
                    "pair of finite numbers")
        out.append(vals)
    lens = {len(r) for r in out}
    _require(len(lens) == 1, f"{where} rows must all have the same length")
    return out


def _fields(d, readers: dict, where: str) -> dict:
    """The keys object ``d`` sets, each read by its reader; null counts as unset."""
    _require(isinstance(d, dict), f"{where} must be an object")
    _check_keys(d, readers, where)
    return {k: readers[k](v, f"{where}.{k}") for k, v in d.items() if v is not None}


# A section names its keys from its own name, as the dataclasses' messages
# do: channel.k_factor, not scenario.channel.k_factor.

def _parse_channel(d, _where: str) -> ChannelModel:
    if isinstance(d, str):
        # Shorthand: "channel": "rice1" means the model with all defaults.
        _require(d == "rice1", f"channel shorthand must be 'rice1', got {d!r}")
        d = {"type": d}
    kw = _fields(d, _CHANNEL_KEYS, "channel")
    kind = kw.pop("type", None)
    _require(kind != "fixed" or not {"k_factor", "coherence_slots"} & set(kw),
             "channel.k_factor/coherence_slots apply only to 'rice1'")
    _require(kind != "rice1" or "matrix" not in kw, "channel.matrix applies only to 'fixed'")
    return ChannelModel(kind, **kw)


def _parse_noise(d, _where: str) -> NoiseModel:
    return NoiseModel(**_fields(d, _NOISE_KEYS, "noise"))


def _parse_csi(d, _where: str) -> CsiConfig:
    return CsiConfig(**_fields(d, _CSI_KEYS, "csi"))


def _parse_caps(d, _where: str) -> dict[int, float]:
    _require(isinstance(d, dict), "sinr_cap_db must be an object")
    _check_keys(d, ("1", "2"), "sinr_cap_db")
    for key, v in d.items():
        _require(v is None or _is_finite_number(v) or v == inf,
                 f"sinr_cap_db.{key} must be a number or null")
    # An explicit null disables that rank's ceiling.
    return {int(key): inf if v is None else float(v) for key, v in d.items()}


_CHANNEL_KEYS = {"type": _string, "matrix": _parse_matrix, "k_factor": _number,
                 "coherence_slots": _integer}
_NOISE_KEYS = {"mode": _string, "snr_db": _number, "snr_db_list": _numbers,
               "variance": _number}
_CSI_KEYS = {"gamma_th": _number, "force_ri": _integer, "force_cqi": _integer}
_SCENARIO_KEYS = {
    "channel": _parse_channel, "noise": _parse_noise, "csi": _parse_csi,
    "sinr_cap_db": _parse_caps, "n_tx": _integer, "n_prb": _integer, "n_slots": _integer,
    "n_drops": _integer, "csi_period": _integer, "dl_duty_factor": _number,
    "seed": _integer, "est_error_var": _number, "max_harq_tx": _integer,
    # Accepted so that scenario files can state the numerology, which the
    # model fixes (two receive antennas, 30 kHz subcarrier spacing), and a
    # band label; none of the three is stored.
    "n_rx": _integer, "scs_khz": _integer, "band": _string,
}


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build and validate a :class:`Scenario` from a parsed JSON object."""
    try:
        kw = _fields(cfg, _SCENARIO_KEYS, "scenario")
        _require("channel" in kw, "scenario is missing required key 'channel'")
        for key, only in (("n_rx", 2), ("scs_khz", 30)):
            v = kw.pop(key, only)
            _require(v == only, f"scenario.{key} must be {only}, got {v}")
        kw.pop("band", None)
        return Scenario(**kw)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as e:
        # CsiConfig, which cannot import ScenarioError, raises ValueError.
        raise ScenarioError(str(e)) from None


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: not valid JSON: {e}") from None
    return scenario_from_dict(cfg)
