"""Scenario configuration: defaults, JSON parsing, strict validation.

A scenario is the single source of truth for one simulated system:
antenna geometry, resource grid, channel model, noise model, CSI
reporting options, PHY-abstraction knobs, and run lengths.  Validation
is strict — unknown keys and bad or out-of-range values are rejected
with the offending field named — so golden files cannot silently drift.
The dataclasses check every value, however they are built; the JSON
reader only maps a document's keys onto them.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .channel import block_rx_power, rice1_blocks
from .tables import N_CQI

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


# Value checks shared by the dataclasses; ``where`` is the field named on error.

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _real(v, where: str) -> float:
    """``v`` as a float: an int or float other than a bool, finite, and
    within the float range."""
    try:
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) and isfinite(v)
    except OverflowError:  # an int beyond the float range
        ok = False
    _require(ok, f"{where} must be a finite number")
    return float(v)


def _integer(v, where: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{where} must be an integer")
    return v


def _bounded(obj, section: str, bounds) -> None:
    """Check each field ``(name, lo, hi)`` of a dataclass's ``_bounds``: an integer
    if ``lo`` is one, else a float, in ``[lo, hi]``; None where None is its default."""
    for name, lo, hi in bounds:
        given = getattr(obj, name)
        if given is None and obj.__dataclass_fields__[name].default is None:
            continue
        where = f"{section}.{name}"
        v = _integer(given, where) if isinstance(lo, int) else _real(given, where)
        if not lo <= v <= hi:
            raise ScenarioError(f"{where} must be "
                                f"{f'>= {lo}' if hi == inf else f'in [{lo}, {hi}]'}, got {v}")
        if v is not given:
            object.__setattr__(obj, name, v)


def _owned(obj, section: str, chosen: str, owners, label: str = "") -> None:
    """Refuse a field ``(name, owner)`` set unless ``chosen`` is its owner, or unset if it is."""
    for name, owner in owners:
        if (getattr(obj, name) is not None) != (chosen == owner):
            verb = "is required for" if chosen == owner else "applies only to"
            raise ScenarioError(f"{section}.{name} {verb} {label}{owner!r}")


def _snr(v, where: str) -> float:
    """An SNR in dB whose linear ratio ``10^(v / 10)`` is a positive finite float."""
    v = _real(v, where)
    try:
        ok = 0.0 < 10.0 ** (v / 10.0) < inf
    except OverflowError:
        ok = False
    _require(ok, f"{where} must give a positive finite linear SNR, got {v}")
    return v


def _matrix(m) -> tuple[tuple[complex, ...], ...]:
    """``channel.matrix`` as complex rows: a nonempty 2-D list, tuple or array
    whose cells are finite complex numbers or reals as :func:`_real` takes them."""
    rows = m.tolist() if isinstance(m, np.ndarray) else m
    _require(isinstance(rows, (list, tuple)) and len(rows) > 0
             and all(isinstance(r, (list, tuple)) and len(r) == len(rows[0]) > 0 for r in rows),
             "channel.matrix must be a nonempty 2-D matrix of numbers")
    return tuple(tuple(_cell(c, f"channel.matrix[{i}][{j}]") for j, c in enumerate(r))
                 for i, r in enumerate(rows))


def _cell(c, where: str) -> complex:
    if isinstance(c, complex):
        return complex(_real(c.real, where), _real(c.imag, where))
    return complex(_real(c, where))


@dataclass(frozen=True)
class ChannelModel:
    """Channel model selection: a fixed matrix or single-tap Rician fading."""

    kind: str  # "fixed" | "rice1"
    # Stored as complex rows, immutable and compared by value; np.asarray
    # turns it back into an array.
    matrix: tuple[tuple[complex, ...], ...] | None = None
    # A "fixed" channel takes neither; on "rice1", None is the default below.
    k_factor: float | None = None
    coherence_slots: int | None = None
    _bounds = (("k_factor", 0.0, inf), ("coherence_slots", 1, MAX_N_SLOTS))

    def __post_init__(self):
        if self.kind not in ("fixed", "rice1"):
            raise ScenarioError(f"channel.type must be 'fixed' or 'rice1', got {self.kind!r}")
        for name, default in (("k_factor", 1.0), ("coherence_slots", 10)):
            if self.kind == "rice1" and getattr(self, name) is None:
                object.__setattr__(self, name, default)
        _owned(self, "channel", self.kind, (("matrix", "fixed"), ("k_factor", "rice1"),
                                            ("coherence_slots", "rice1")))
        if self.kind == "fixed":
            object.__setattr__(self, "matrix", _matrix(self.matrix))
            return
        _bounded(self, "channel", self._bounds)


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
    snr_db_list: tuple[float, ...] | None = None
    variance: float | None = None

    def __post_init__(self):
        if self.mode not in ("noise_free", "snr", "snr_sweep", "variance"):
            raise ScenarioError(f"noise.mode {self.mode!r} unknown")
        _owned(self, "noise", self.mode, (("snr_db", "snr"), ("snr_db_list", "snr_sweep"),
                                          ("variance", "variance")), "mode ")
        if self.snr_db is not None:
            object.__setattr__(self, "snr_db", _snr(self.snr_db, "noise.snr_db"))
        if self.snr_db_list is not None:
            _require(isinstance(self.snr_db_list, (list, tuple)) and len(self.snr_db_list) > 0,
                     "noise.snr_db_list must be a nonempty list of numbers")
            object.__setattr__(self, "snr_db_list",
                               tuple(_snr(p, "noise.snr_db_list") for p in self.snr_db_list))
        if self.variance is not None:
            v, tiny = _real(self.variance, "noise.variance"), np.finfo(float).tiny
            # Keeps |det G|^2 / n in the PMI search finite near unit channel power only.
            if not v >= tiny:
                raise ScenarioError("noise.variance must be a positive normal float "
                                    f"(>= {tiny}) for mode 'variance', got {v}")
            object.__setattr__(self, "variance", v)


@dataclass(frozen=True)
class CsiConfig:
    """UE reporting configuration.

    ``force_ri`` / ``force_cqi`` pin the corresponding report field (the
    rest of the pipeline still runs); ``gamma_th`` is the conditioning
    threshold below which a subcarrier votes for two layers.
    """

    gamma_th: float = 2.5
    force_ri: int | None = None
    force_cqi: int | None = None
    _bounds = (("gamma_th", 2.0, inf), ("force_ri", 1, 2), ("force_cqi", 0, N_CQI - 1))

    def __post_init__(self):
        _bounded(self, "csi", self._bounds)


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
    # default.  An infinite ceiling disables it.  Stored as a RankCaps.
    sinr_cap_db: Mapping[int, float] = field(default_factory=dict)
    _bounds = (("n_prb", 1, MAX_N_PRB), ("n_slots", 1, MAX_N_SLOTS), ("n_drops", 1, inf),
               ("csi_period", 1, MAX_N_SLOTS), ("seed", 0, inf), ("max_harq_tx", 1, MAX_N_SLOTS),
               ("est_error_var", 0.0, inf))

    def __post_init__(self):
        for name, cls in (("channel", ChannelModel), ("noise", NoiseModel), ("csi", CsiConfig)):
            _require(isinstance(getattr(self, name), cls),
                     f"scenario.{name} must be a {cls.__name__}")
        if self.n_tx is None:
            object.__setattr__(self, "n_tx", len(self.channel.matrix[0])
                               if self.channel.kind == "fixed" else 4)
        _require(isinstance(self.sinr_cap_db, Mapping),
                 "sinr_cap_db must be a mapping from rank to dB")
        caps = {**DEFAULT_SINR_CAP_DB, **self.sinr_cap_db}
        if set(caps) != {1, 2}:
            raise ScenarioError("sinr_cap_db keys must be ranks 1 and 2")
        for r, cap in caps.items():
            caps[r] = cap if cap == inf else _real(cap, f"sinr_cap_db[{r}]")
            if not caps[r] > 0:
                raise ScenarioError(f"sinr_cap_db[{r}] must be > 0, got {cap}")
        object.__setattr__(self, "sinr_cap_db", RankCaps(caps))
        if _integer(self.n_tx, "scenario.n_tx") not in (2, 4):
            raise ScenarioError(f"scenario.n_tx must be 2 or 4, got {self.n_tx}")
        _bounded(self, "scenario", self._bounds)
        duty = _real(self.dl_duty_factor, "scenario.dl_duty_factor")
        if not 0.0 < duty <= 1.0:
            raise ScenarioError(f"scenario.dl_duty_factor must be in (0, 1], got {duty}")
        object.__setattr__(self, "dl_duty_factor", duty)
        pairs = _harq_pair_bound(self.n_slots, self.coherence_slots, self.csi_period,
                                self.max_harq_tx)
        if pairs > MAX_HARQ_PAIRS:
            raise ScenarioError(
                f"scenario.max_harq_tx {self.max_harq_tx} with n_slots {self.n_slots}, "
                f"csi_period {self.csi_period} and channel.coherence_slots "
                f"{self.coherence_slots} allows up to {pairs} (report, block) pairs "
                f"per drop, above {MAX_HARQ_PAIRS}")
        if self.channel.kind == "fixed":
            m = np.asarray(self.channel.matrix)
            if m.shape != (2, self.n_tx):
                raise ScenarioError(
                    f"channel.matrix shape {m.shape} does not match "
                    f"(n_rx, n_tx) = (2, {self.n_tx})")
            if self.noise.mode in ("snr", "snr_sweep") and not block_rx_power(m[None])[0] > 0:
                raise ScenarioError(f"noise.mode {self.noise.mode!r} needs a channel.matrix "
                                    "with nonzero power; use noise.mode 'variance'")

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

        Shape ``(n_points, n_blocks)``, one row per ``snr_sweep`` point or else one row;
        at an SNR the variance per receive antenna is ``p_rx / 10^(snr/10)``.
        """
        if self.noise.mode == "noise_free":
            return np.zeros((1,) + p_rx.shape)
        if self.noise.mode == "variance":
            return np.full((1,) + p_rx.shape, float(self.noise.variance))
        snrs = self.noise.snr_db_list or (self.noise.snr_db,)
        return np.array([p_rx / 10.0 ** (snr / 10.0) for snr in snrs])


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


# The JSON layer does only what needs the document: unknown keys, null as
# unset, the "rice1" shorthand, [re, im] matrix cells, the "1"/"2" cap keys
# and the unstored numerology keys.  The dataclasses check every value.
# A section names its keys from its own name, as the dataclasses' messages
# do: channel.k_factor, not scenario.channel.k_factor.

def _object(d, keys, where: str) -> dict:
    _require(isinstance(d, dict), f"{where} must be an object")
    unknown = sorted(set(d) - set(keys))
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(unknown)}")
    return d


def _fields(d, keys, where: str) -> dict:
    """The keys object ``d`` sets; null counts as unset."""
    return {k: v for k, v in _object(d, keys, where).items() if v is not None}


def _keys(cls) -> tuple[str, ...]:
    """The JSON keys of dataclass ``cls``: its field names, ``kind`` as ``type``."""
    return tuple("type" if f.name == "kind" else f.name for f in fields(cls))


def _complex_cells(rows):
    """A JSON ``channel.matrix`` with each [re, im] pair cell as a complex."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        return rows
    return [[complex(*(_real(p, f"channel.matrix[{i}][{j}]") for p in c))
             if isinstance(c, list) and len(c) == 2 else c
             for j, c in enumerate(r)] for i, r in enumerate(rows)]


def _parse_channel(d) -> ChannelModel:
    if isinstance(d, str):
        # Shorthand: "channel": "rice1" means the model with all defaults.
        _require(d == "rice1", f"channel shorthand must be 'rice1', got {d!r}")
        d = {"type": d}
    kw = _fields(d, _keys(ChannelModel), "channel")
    if "matrix" in kw:
        kw["matrix"] = _complex_cells(kw["matrix"])
    return ChannelModel(kw.pop("type", None), **kw)


_SCENARIO_KEYS = _keys(Scenario) + (
    # Accepted so that scenario files can state the numerology, which the
    # model fixes (two receive antennas, 30 kHz subcarrier spacing), and a
    # band label; none of the three is stored.
    "n_rx", "scs_khz", "band",
)


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build and validate a :class:`Scenario` from a parsed JSON object."""
    kw = _fields(cfg, _SCENARIO_KEYS, "scenario")
    _require("channel" in kw, "scenario is missing required key 'channel'")
    for key, only in (("n_rx", 2), ("scs_khz", 30)):
        v = kw.pop(key, only)
        _require(_integer(v, f"scenario.{key}") == only, f"scenario.{key} must be {only}, got {v}")
    _require(isinstance(kw.pop("band", ""), str), "scenario.band must be a string")
    kw["channel"] = _parse_channel(kw["channel"])
    for key, cls in (("noise", NoiseModel), ("csi", CsiConfig)):
        if key in kw:
            kw[key] = cls(**_fields(kw[key], _keys(cls), key))
    if "sinr_cap_db" in kw:
        # An explicit null disables that rank's ceiling.
        kw["sinr_cap_db"] = {int(k): inf if v is None else v for k, v in
                             _object(kw["sinr_cap_db"], ("1", "2"), "sinr_cap_db").items()}
    return Scenario(**kw)


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, huge integers, deep nesting
        raise ScenarioError(f"{path}: not valid JSON: {e}") from None
    return scenario_from_dict(cfg)
