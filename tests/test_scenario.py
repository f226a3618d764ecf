"""Unit tests for scenario parsing, validation, and derived helpers."""

import json
import math
import pickle
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlinksim import cli
from nrlinksim.channel import block_rx_power
from nrlinksim.link import drop_channel
from nrlinksim.scenario import (DEFAULT_SINR_CAP_DB, MAX_HARQ_PAIRS, MAX_N_SLOTS, ChannelModel,
                                CsiConfig, NoiseModel, Scenario, ScenarioError, _harq_pair_bound,
                                parse_scenario, scenario_from_dict)

from conftest import SCENARIO_DIR, scenario_path

H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]


def _fixed_cfg(**extra):
    cfg = {"channel": {"type": "fixed", "matrix": H_2X4_REF}}
    cfg.update(extra)
    return cfg


class TestDefaults:
    def test_minimal_rice_shorthand(self):
        sc = scenario_from_dict({"channel": "rice1"})
        assert sc.channel.kind == "rice1"
        assert sc.channel.k_factor == 1.0
        assert sc.channel.coherence_slots == 10
        assert sc.n_prb == 106
        assert sc.n_tx == 4
        assert sc.n_slots == 2000 and sc.n_drops == 20
        assert sc.csi_period == 10
        assert sc.seed == 0
        assert sc.csi.gamma_th == 2.5
        assert sc.max_harq_tx == 4
        assert sc.sinr_cap_db == DEFAULT_SINR_CAP_DB
        assert sc.noise.mode == "noise_free"
        assert sc.dl_duty_factor == 1.0

    @pytest.mark.parametrize("channel", ["rice1", {"type": "fixed", "matrix": H_2X4_REF}],
                             ids=["rice1", "fixed"])
    def test_fixed_numerology_keys_accepted(self, channel):
        sc = scenario_from_dict({"channel": channel, "n_rx": 2, "scs_khz": 30,
                                 "band": "n78"})
        assert sc == scenario_from_dict({"channel": channel})

    def test_bad_shorthand(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rayleigh"})

    def test_fixed_matrix_pins_n_tx(self):
        sc = scenario_from_dict(_fixed_cfg())
        assert sc.n_tx == 4
        sc2 = scenario_from_dict({"channel": {"type": "fixed",
                                              "matrix": [[1, 0.5], [0.5, 1]]}})
        assert sc2.n_tx == 2


class TestValidation:
    def test_n_tx_3_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rice1", "n_tx": 3})

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="bandwidth"):
            scenario_from_dict({"channel": "rice1", "bandwidth": 100})

    def test_unknown_channel_key(self):
        with pytest.raises(ScenarioError, match="doppler"):
            scenario_from_dict({"channel": {"type": "rice1", "doppler": 5}})

    def test_unknown_noise_key(self):
        with pytest.raises(ScenarioError, match="figure"):
            scenario_from_dict({"channel": "rice1",
                                "noise": {"mode": "noise_free", "figure": 9}})

    def test_unknown_csi_key(self):
        with pytest.raises(ScenarioError, match="subband"):
            scenario_from_dict({"channel": "rice1", "csi": {"subband": True}})

    def test_missing_channel(self):
        with pytest.raises(ScenarioError, match="channel"):
            scenario_from_dict({"n_slots": 10})

    def test_fixed_needs_matrix(self):
        with pytest.raises(ScenarioError, match="matrix"):
            scenario_from_dict({"channel": {"type": "fixed"}})

    def test_rice_params_rejected_on_fixed(self):
        with pytest.raises(ScenarioError, match=r"channel\.k_factor applies only to 'rice1'"):
            scenario_from_dict({"channel": {"type": "fixed", "matrix": H_2X4_REF,
                                            "k_factor": 2.0}})

    def test_matrix_shape_crosscheck(self):
        with pytest.raises(ScenarioError, match="shape"):
            scenario_from_dict(_fixed_cfg(n_tx=2))

    def test_matrix_cell_validation(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": {"type": "fixed",
                                            "matrix": [[1, "x"], [0, 1]]}})
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": {"type": "fixed",
                                            "matrix": [[1, 2], [3]]}})

    def test_complex_matrix_cells(self):
        sc = scenario_from_dict({"channel": {"type": "fixed",
                                             "matrix": [[[0, 1], 1], [1, [0, -1]]]}})
        assert sc.channel.matrix[0][0] == 1j
        assert sc.channel.matrix[1][1] == -1j

    @pytest.mark.parametrize("field,value", [
        ("n_rx", 3), ("n_prb", 0), ("scs_khz", 15), ("n_slots", 0),
        ("n_drops", 0), ("csi_period", 0), ("dl_duty_factor", 0.0),
        ("dl_duty_factor", 1.5), ("seed", -1), ("est_error_var", -0.5),
        ("max_harq_tx", 0),
    ])
    def test_out_of_range_fields(self, field, value):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rice1", field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected_at_construction(self, value):
        with pytest.raises(ScenarioError, match=r"channel\.k_factor"):
            ChannelModel(kind="rice1", k_factor=value)
        with pytest.raises(ScenarioError, match=r"scenario\.est_error_var"):
            Scenario(channel=ChannelModel(kind="rice1"), est_error_var=value)

    def test_n_slots_bound_is_inclusive(self):
        # Parsing allocates nothing per slot, so the bound itself is cheap to accept.
        assert scenario_from_dict({"channel": "rice1", "n_slots": MAX_N_SLOTS}).n_slots \
            == MAX_N_SLOTS == 10 ** 6

    @pytest.mark.parametrize("field", ["csi_period", "max_harq_tx", "coherence_slots"])
    def test_slot_count_bounds_are_inclusive(self, field):
        if field == "coherence_slots":
            doc = {"channel": {"type": "rice1", field: MAX_N_SLOTS}}
        else:
            doc = {"channel": "rice1", field: MAX_N_SLOTS}
        assert getattr(scenario_from_dict(doc), field) == MAX_N_SLOTS

    def test_harq_pair_bound_is_inclusive(self):
        # 1023 slots with a report and a block per slot and grants that reach
        # the end of the drop: 1023 * 1024 / 2 pairs, the most below the bound.
        doc = {"channel": {"type": "rice1", "coherence_slots": 1}, "n_slots": 1023,
               "csi_period": 1, "max_harq_tx": 1023}
        assert _harq_pair_bound(1023, 1, 1, 1023) == 1023 * 1024 // 2 <= MAX_HARQ_PAIRS
        assert _harq_pair_bound(1024, 1, 1, 1024) == 1024 * 1025 // 2 > MAX_HARQ_PAIRS
        assert scenario_from_dict(doc).max_harq_tx == 1023
        with pytest.raises(ScenarioError, match="scenario.max_harq_tx"):
            scenario_from_dict(dict(doc, n_slots=1024, max_harq_tx=1024))

    def test_smallest_normal_variance_accepted(self):
        tiny = float(np.finfo(float).tiny)
        doc = {"channel": "rice1", "noise": {"mode": "variance", "variance": tiny}}
        assert scenario_from_dict(doc).noise.variance == tiny

    def test_non_integer_count_rejected(self):
        with pytest.raises(ScenarioError, match="n_slots"):
            scenario_from_dict({"channel": "rice1", "n_slots": 10.5})

    @pytest.mark.parametrize("value", [1.0, 20.5, True], ids=["integral_float", "float", "bool"])
    @pytest.mark.parametrize("where", [
        "scenario.n_tx", "scenario.n_prb", "scenario.n_slots", "scenario.n_drops",
        "scenario.csi_period", "scenario.seed", "scenario.max_harq_tx",
        "channel.coherence_slots", "csi.force_ri", "csi.force_cqi",
    ])
    def test_integer_fields_reject_non_integers_naming_the_field(self, where, value):
        section, name = where.split(".")
        build = {"scenario": lambda **kw: Scenario(channel=ChannelModel(kind="rice1"), **kw),
                 "channel": lambda **kw: ChannelModel(kind="rice1", **kw),
                 "csi": CsiConfig}[section]
        with pytest.raises(ScenarioError, match=re.escape(where) + " must be an integer"):
            build(**{name: value})

    @pytest.mark.parametrize("matrix,message", [
        *(((m, "channel.matrix must be a nonempty 2-D") for m in ((), [], [1, 2], [[1, 2], [3]],
                                                                  [[]]))),
        ([[1, "x"], [0, 1]], "channel.matrix[0][1] must be a finite number"),
        ([[True, False], [False, True]], "channel.matrix[0][0] must be a finite number"),
        ([[[1, 2]], [[3, 4]]], "channel.matrix[0][0] must be a finite number"),
    ])
    def test_bad_matrix_rejected_at_construction(self, matrix, message):
        # A bad shape is named as the matrix, a bad cell by its index.
        with pytest.raises(ScenarioError, match=re.escape(message)):
            ChannelModel(kind="fixed", matrix=matrix)

    def test_csi_field_validation(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rice1", "csi": {"force_ri": 3}})
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rice1", "csi": {"gamma_th": 1.0}})

    def test_noise_mode_validation(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rice1", "noise": {"mode": "awgn"}})
        with pytest.raises(ScenarioError, match="snr_db"):
            scenario_from_dict({"channel": "rice1", "noise": {"mode": "snr"}})
        with pytest.raises(ScenarioError, match="snr_db_list"):
            scenario_from_dict({"channel": "rice1", "noise": {"mode": "snr_sweep"}})
        with pytest.raises(ScenarioError, match="variance"):
            scenario_from_dict({"channel": "rice1", "noise": {"mode": "variance"}})


@pytest.mark.parametrize("doc,field", [
    ('{"channel": {"type": "rice1", "k_factor": NaN}}', "channel.k_factor"),
    ('{"channel": "rice1", "noise": {"mode": "snr", "snr_db": Infinity}}',
     "noise.snr_db"),
    ('{"channel": "rice1", "noise": {"mode": "variance", "variance": Infinity}}',
     "noise.variance"),
    ('{"channel": "rice1", "est_error_var": NaN}', "scenario.est_error_var"),
    ('{"channel": {"type": "fixed", "matrix": [[1, NaN], [0, 1]]}}',
     "channel.matrix[0][1]"),
    ('{"channel": {"type": "fixed", "matrix": [[1, [0, -Infinity]], [0, 1]]}}',
     "channel.matrix[0][1]"),
    ('{"channel": {"type": "fixed", "matrix": [[[true, false], 1], [0, 1]]}}',
     "channel.matrix[0][0]"),
    ('{"channel": "rice1", "noise": {"mode": "snr_sweep", "snr_db_list": [0, NaN]}}',
     "noise.snr_db_list"),
    ('{"channel": "rice1", "n_tx": 4.0}', "scenario.n_tx"),
    ('{"channel": {"type": "fixed", "matrix": [[0, 0], [0, 0]]},'
     ' "noise": {"mode": "snr", "snr_db": 10}}', "channel.matrix"),
    ('{"channel": "rice1", "n_rx": 3}', "scenario.n_rx"),
    ('{"channel": "rice1", "scs_khz": 15}', "scenario.scs_khz"),
    ('{"channel": "rice1", "band": 5}', "scenario.band"),
    ('{"channel": "rice1", "noise": {"mode": "snr", "snr_db": 4000}}', "noise.snr_db"),
    ('{"channel": "rice1", "noise": {"mode": "snr", "snr_db": -4000}}', "noise.snr_db"),
    ('{"channel": "rice1", "noise": {"mode": "snr_sweep", "snr_db_list": [0, 4000]}}',
     "noise.snr_db_list"),
    ('{"channel": "rice1", "noise": {"mode": "snr_sweep", "snr_db_list": [-4000]}}',
     "noise.snr_db_list"),
    ('{"channel": "rice1", "n_prb": 276}', "scenario.n_prb"),
    ('{"channel": "rice1", "n_slots": 0}', "scenario.n_slots"),
    ('{"channel": "rice1", "n_slots": 1000001}', "scenario.n_slots"),
    ('{"channel": "rice1", "n_slots": 10000000000}', "scenario.n_slots"),
    ('{"channel": "rice1", "csi_period": 100000000000000000000}', "scenario.csi_period"),
    ('{"channel": "rice1", "max_harq_tx": 100000000000000000000}', "scenario.max_harq_tx"),
    ('{"channel": {"type": "rice1", "coherence_slots": 100000000000000000000}}',
     "channel.coherence_slots"),
    ('{"channel": "rice1", "csi_period": 9223372036854775807}', "scenario.csi_period"),
    ('{"channel": "rice1", "max_harq_tx": 9223372036854775807}', "scenario.max_harq_tx"),
    ('{"channel": {"type": "rice1", "coherence_slots": 9223372036854775807}}',
     "channel.coherence_slots"),
    ('{"channel": "rice1", "csi_period": 1000001}', "scenario.csi_period"),
    ('{"channel": "rice1", "max_harq_tx": 1000001}', "scenario.max_harq_tx"),
    ('{"channel": {"type": "rice1", "coherence_slots": 1000001}}',
     "channel.coherence_slots"),
    ('{"channel": {"type": "rice1", "coherence_slots": 1}, "n_slots": 1024,'
     ' "csi_period": 1, "max_harq_tx": 1024}', "scenario.max_harq_tx"),
    ('{"channel": {"type": "rice1", "coherence_slots": 1}, "n_slots": 1000000,'
     ' "csi_period": 1}', "scenario.max_harq_tx"),
    ('{"channel": "rice1", "noise": {"mode": "variance", "variance": 1e-310}}',
     "noise.variance"),
    ('{"channel": "rice1", "noise": {"mode": "variance", "variance": 5e-324}}',
     "noise.variance"),
    ('{"channel": "rice1", "noise": {"snr_db": 10}}',
     "noise.snr_db applies only to mode 'snr'"),
    ('{"channel": "rice1", "noise": {"mode": "snr", "snr_db": 5, "snr_db_list": [1, 2]}}',
     "noise.snr_db_list applies only to mode 'snr_sweep'"),
    ('{"channel": "rice1", "noise": {"mode": "snr", "snr_db": 5, "snr_db_list": []}}',
     "noise.snr_db_list"),
    ('{"channel": "rice1", "noise": {"mode": "snr_sweep", "snr_db_list": [1], "snr_db": 5}}',
     "noise.snr_db applies only to mode 'snr'"),
    ('{"channel": "rice1", "noise": {"mode": "variance", "variance": 1, "snr_db": 5}}',
     "noise.snr_db applies only to mode 'snr'"),
    ('{"channel": "rice1", "noise": {"mode": "noise_free", "variance": 1}}',
     "noise.variance applies only to mode 'variance'"),
    ('{"channel": "rice1", "noise": {"mode": "snr", "snr_db": 5, "variance": 1}}',
     "noise.variance applies only to mode 'variance'"),
])
def test_rejected_at_parse_naming_the_field(doc, field, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(doc, encoding="utf-8")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(p)
    assert field in str(exc.value)


# Every bounded field with its bounds, restated here rather than imported
# from the package: (section, field, lo, hi), hi None where none is set.
BOUNDED_FIELDS = [
    ("scenario", "n_prb", 1, 275),
    ("scenario", "n_slots", 1, 10 ** 6),
    ("scenario", "n_drops", 1, None),
    ("scenario", "csi_period", 1, 10 ** 6),
    ("scenario", "seed", 0, None),
    ("scenario", "max_harq_tx", 1, 10 ** 6),
    ("scenario", "est_error_var", 0.0, None),
    ("channel", "k_factor", 0.0, None),
    ("channel", "coherence_slots", 1, 10 ** 6),
    ("csi", "gamma_th", 2.0, None),
    ("csi", "force_ri", 1, 2),
    ("csi", "force_cqi", 0, 15),
]


@pytest.mark.parametrize("section,name,lo,hi", BOUNDED_FIELDS,
                         ids=[f"{s}.{n}" for s, n, _, _ in BOUNDED_FIELDS])
def test_bounded_field_takes_its_ends_and_names_its_bound_one_step_past(section, name, lo, hi):
    def parse(value):
        doc = {"channel": {"type": "rice1"}, "csi": {}}
        (doc if section == "scenario" else doc[section])[name] = value
        sc = scenario_from_dict(doc)
        return getattr(sc if section == "scenario" else getattr(sc, section), name)

    def past(v, direction):  # one integer, or one float, beyond v
        return v + direction if isinstance(lo, int) else math.nextafter(v, direction * math.inf)

    far = 10 ** 30 if isinstance(lo, int) else 1e300  # where no upper bound is set
    for v in (lo, far if hi is None else hi):
        got = parse(v)
        assert got == v and type(got) is type(lo)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    for v in [past(lo, -1)] + ([] if hi is None else [past(hi, 1)]):
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{section}.{name} must be {bound}, got {v}")):
            parse(v)


# Any JSON value: null, booleans, integers of any size, floats including
# NaN and +-Infinity (Python's json accepts both), strings, lists, objects.
_EXTREME = st.sampled_from([10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _EXTREME | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=4)


def _object(keys: dict, required=()) -> st.SearchStrategy:
    """JSON objects over ``keys``, each value from its own strategy or any value.

    Keys in ``required`` are always present, so that parsing gets past them.
    """
    values = {k: v | JSON_VALUES for k, v in keys.items()}
    return st.fixed_dictionaries({k: keys[k] for k in required},
                                 optional={k: v for k, v in values.items()
                                           if k not in required})


_NUM = st.integers(-3, 200) | st.floats(-1.0, 40.0) | _EXTREME
_CELL = _NUM | st.lists(_NUM, min_size=2, max_size=2)
SCENARIO_DOCS = _object({
    "channel": st.just("rice1") | _object({
        "type": st.sampled_from(["fixed", "rice1"]),
        "matrix": st.lists(st.lists(_CELL, min_size=1, max_size=4), min_size=1, max_size=3),
        "k_factor": _NUM, "coherence_slots": _NUM}) | JSON_VALUES,
    "noise": _object({
        "mode": st.sampled_from(["noise_free", "snr", "snr_sweep", "variance"]),
        "snr_db": _NUM, "snr_db_list": st.lists(_NUM, max_size=3), "variance": _NUM}),
    "csi": _object({"gamma_th": _NUM, "force_ri": _NUM, "force_cqi": _NUM}),
    "sinr_cap_db": _object({"1": _NUM, "2": _NUM}),
    **{k: _NUM for k in ("n_tx", "n_rx", "n_prb", "scs_khz", "n_slots", "n_drops",
                         "csi_period", "dl_duty_factor", "seed", "est_error_var",
                         "max_harq_tx")},
    "band": st.text(max_size=4),
}, required=("channel",))


@settings(max_examples=150, deadline=None)
@given(doc=SCENARIO_DOCS)
@example(doc={"channel": "rice1", "dl_duty_factor": 10 ** 400})
@example(doc={"channel": "rice1", "sinr_cap_db": {"1": -10 ** 400}})
@example(doc={"channel": {"type": "fixed", "matrix": [[1, [0, 10 ** 400]], [0, 1]]}})
def test_any_json_document_parses_or_raises_scenario_error(doc):
    try:
        sc = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert isinstance(sc, Scenario)


# Valid keyword sets for each dataclass, one for each field that only some
# settings use, so that every field is checked where it applies.
_API_BASES = {
    ChannelModel: [{"kind": "rice1"}, {"kind": "fixed", "matrix": [[1, 0.5], [0.5, 1]]}],
    NoiseModel: [{"mode": "snr", "snr_db": 5.0}, {"mode": "snr_sweep", "snr_db_list": [0, 10]},
                 {"mode": "variance", "variance": 0.1}],
    CsiConfig: [{}],
    Scenario: [{"channel": ChannelModel("rice1")},
               {"channel": ChannelModel("fixed", matrix=[[1, 0.5], [0.5, 1]])}],
}
_SECTION = {ChannelModel: "channel", NoiseModel: "noise", CsiConfig: "csi", Scenario: "scenario"}
_API_FIELDS = [(cls, base, f.name) for cls, bases in _API_BASES.items() for base in bases
               for f in fields(cls)]
# What a field's value holds, for the fields that hold numbers in a container.
_NESTED = {"matrix": lambda v: [[v, 0.5], [0.5, 1]], "snr_db_list": lambda v: [0, v],
           "sinr_cap_db": lambda v: {1: v}}
_BAD_VALUES = st.sampled_from([True, False, "3", "", [], [2.0], {}, math.nan, math.inf,
                               -math.inf, 10 ** 400, -10 ** 400, 1j, complex(2, 0)])


@st.composite
def _api_field_cases(draw):
    cls, base, name = draw(st.sampled_from(_API_FIELDS))
    value = draw(_BAD_VALUES)
    if name in _NESTED and draw(st.booleans()):
        value = _NESTED[name](value)
    return cls, base, name, value


@settings(max_examples=400, deadline=None)
@given(case=_api_field_cases())
@example(case=(NoiseModel, {"mode": "variance"}, "variance", True))
@example(case=(Scenario, {"channel": ChannelModel("rice1")}, "sinr_cap_db", {1: True}))
@example(case=(ChannelModel, {"kind": "rice1"}, "matrix", [[1, 0.5], [0.5, 1]]))
@example(case=(ChannelModel, {"kind": "fixed", "matrix": [[1, 0.5], [0.5, 1]]}, "k_factor", 5.0))
@example(case=(CsiConfig, {}, "gamma_th", "3"))
@example(case=(NoiseModel, {"mode": "snr"}, "snr_db", "3"))
@example(case=(Scenario, {"channel": ChannelModel("rice1")}, "est_error_var", "0.1"))
@example(case=(ChannelModel, {"kind": "rice1"}, "k_factor", True))
@example(case=(Scenario, {"channel": ChannelModel("rice1")}, "dl_duty_factor", True))
@example(case=(NoiseModel, {"mode": "snr_sweep"}, "snr_db_list", "12"))
@example(case=(ChannelModel, {"kind": "fixed"}, "matrix", [[1, 10 ** 400], [0, 1]]))
def test_api_field_is_accepted_or_rejected_naming_it(case):
    # Never a TypeError or OverflowError: only a ScenarioError names what is wrong.
    cls, base, name, value = case
    where = {"kind": "channel.type", "sinr_cap_db": "sinr_cap_db"}.get(
        name, f"{_SECTION[cls]}.{name}")
    try:
        cls(**{**base, name: value})
    except ScenarioError as e:
        assert where in str(e)


# Well-formed documents: every section an object of known keys, and each
# value mostly valid, else any JSON value that is wrong in its own right.
_ANY = _NUM | st.sampled_from([None, True, False, "3", [], [2.0]])


def _mostly(valid: st.SearchStrategy) -> st.SearchStrategy:
    return valid | valid | _ANY


_PAIR = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
_WELL_FORMED_DOCS = st.fixed_dictionaries({
    "channel": st.fixed_dictionaries({"type": st.just("fixed"), "matrix": _mostly(
        st.lists(st.lists(_mostly(st.floats(-2.0, 2.0) | _PAIR), min_size=2, max_size=2),
                 min_size=2, max_size=2))}) | st.fixed_dictionaries({"type": st.just("rice1")},
        optional={"k_factor": _mostly(st.floats(0.0, 10.0)),
                  "coherence_slots": _mostly(st.integers(1, 20))})}, optional={
    "noise": st.fixed_dictionaries({}, optional={
        "mode": _mostly(st.sampled_from(["noise_free", "snr", "snr_sweep", "variance"])),
        "snr_db": _mostly(st.floats(-10.0, 30.0)),
        "snr_db_list": _mostly(st.lists(_mostly(st.floats(-10.0, 30.0)), max_size=3)),
        "variance": _mostly(st.floats(1e-3, 1.0))}),
    "csi": st.fixed_dictionaries({}, optional={
        "gamma_th": _mostly(st.floats(2.0, 5.0)), "force_ri": _mostly(st.sampled_from([1, 2])),
        "force_cqi": _mostly(st.integers(0, 15))}),
    "sinr_cap_db": st.fixed_dictionaries({}, optional={
        k: _mostly(st.floats(1.0, 30.0) | st.just(math.inf)) for k in ("1", "2")}),
    "n_tx": _mostly(st.sampled_from([2, 4])), "n_prb": _mostly(st.integers(1, 275)),
    "n_slots": _mostly(st.integers(1, 100)), "n_drops": _mostly(st.integers(1, 5)),
    "csi_period": _mostly(st.integers(1, 20)), "dl_duty_factor": _mostly(st.floats(0.1, 1.0)),
    "seed": _mostly(st.integers(0, 2 ** 64)), "est_error_var": _mostly(st.floats(0.0, 1.0)),
    "max_harq_tx": _mostly(st.integers(1, 8)),
})


def _api_outcome(doc):
    """What the API calls equivalent to ``doc`` build, or their ScenarioError's
    message: the JSON-only forms (null, [re, im] cells, "1"/"2" cap keys) are
    mapped here by hand."""
    def without_nulls(d):
        return {k: v for k, v in d.items() if v is not None}
    kw = without_nulls(doc)
    channel = without_nulls(kw["channel"])
    if isinstance(channel.get("matrix"), list):
        channel["matrix"] = [[complex(*c) if isinstance(c, list) and len(c) == 2 else c
                              for c in row] if isinstance(row, list) else row
                             for row in channel["matrix"]]
    try:
        kw["channel"] = ChannelModel(channel.pop("type"), **channel)
        if "noise" in kw:
            kw["noise"] = NoiseModel(**without_nulls(kw["noise"]))
        if "csi" in kw:
            kw["csi"] = CsiConfig(**without_nulls(kw["csi"]))
        if "sinr_cap_db" in kw:
            kw["sinr_cap_db"] = {int(k): math.inf if v is None else v
                                 for k, v in kw["sinr_cap_db"].items()}
        return Scenario(**kw)
    except ScenarioError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(doc=_WELL_FORMED_DOCS)
@example(doc={"channel": {"type": "rice1"}, "noise": {"mode": "variance", "variance": True}})
@example(doc={"channel": {"type": "rice1"}, "sinr_cap_db": {"1": True}})
@example(doc={"channel": {"type": "rice1", "matrix": [[1, 0.5], [0.5, 1]]}})
@example(doc={"channel": {"type": "fixed", "matrix": [[1, 0.5], [0.5, 1]], "k_factor": 5.0}})
@example(doc={"channel": {"type": "rice1"}, "csi": {"gamma_th": "3"}})
@example(doc={"channel": {"type": "rice1"}, "noise": {"mode": "snr_sweep", "snr_db_list": []}})
@example(doc={"channel": {"type": "rice1"}, "sinr_cap_db": {"1": math.inf, "2": None}})
def test_json_document_and_api_call_agree(doc):
    assert _outcome(doc) == _api_outcome(doc)


class TestFixedChannelIsAValue:
    def test_two_parses_are_equal(self):
        path = scenario_path("csi_fixed_2x4.json")
        a, b = parse_scenario(path), parse_scenario(path)
        assert a == b
        assert hash(a.channel) == hash(b.channel)

    def test_a_changed_entry_or_seed_is_unequal(self):
        base = scenario_from_dict(_fixed_cfg())
        changed = [row[:] for row in H_2X4_REF]
        changed[1][3] = 0.9
        assert scenario_from_dict({"channel": {"type": "fixed", "matrix": changed}}) != base
        assert scenario_from_dict(_fixed_cfg(seed=1)) != base

    def test_snr_list_is_stored_as_a_tuple_of_floats(self):
        from_list = NoiseModel(mode="snr_sweep", snr_db_list=[0, 5.0, 10])
        from_tuple = NoiseModel(mode="snr_sweep", snr_db_list=(0.0, 5.0, 10.0))
        assert from_list == from_tuple
        assert from_list.snr_db_list == (0.0, 5.0, 10.0)
        assert all(type(p) is float for p in from_list.snr_db_list)
        scenario = Scenario(channel=ChannelModel(kind="rice1"), noise=from_list)
        assert hash(scenario) == hash(replace(scenario, noise=from_tuple))

    def test_matrix_cannot_be_written(self):
        sc = parse_scenario(scenario_path("csi_fixed_2x4.json"))
        with pytest.raises(TypeError):
            sc.channel.matrix[0][0] = 5
        with pytest.raises(TypeError):
            sc.channel.matrix[0] = (5, 5, 5, 5)
        assert np.array_equal(np.asarray(sc.channel.matrix), np.asarray(H_2X4_REF, complex))
        assert not sc.block_channels(0, 2).flags.writeable


class TestCaps:
    def test_partial_override(self):
        sc = scenario_from_dict({"channel": "rice1", "sinr_cap_db": {"2": 12.5}})
        assert sc.sinr_cap_db == {1: DEFAULT_SINR_CAP_DB[1], 2: 12.5}

    def test_null_disables(self):
        sc = scenario_from_dict({"channel": "rice1",
                                 "sinr_cap_db": {"1": None, "2": None}})
        assert sc.sinr_cap_db == {1: math.inf, 2: math.inf}

    def test_bad_key(self):
        with pytest.raises(ScenarioError, match="sinr_cap_db"):
            scenario_from_dict({"channel": "rice1", "sinr_cap_db": {"3": 10}})

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"channel": "rice1", "sinr_cap_db": {"1": 0}})

    def test_caps_cannot_be_written(self):
        sc = scenario_from_dict({"channel": "rice1", "sinr_cap_db": {"1": 12.0}})
        with pytest.raises(TypeError):
            sc.sinr_cap_db[1] = -5.0
        with pytest.raises(TypeError):
            DEFAULT_SINR_CAP_DB[2] = 0.0
        assert sc.sinr_cap_db == {1: 12.0, 2: DEFAULT_SINR_CAP_DB[2]}

    def test_two_parses_hash_alike(self):
        path = scenario_path("snr_sweep_rice1_2x4.json")
        a, b = parse_scenario(path), parse_scenario(path)
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        capped = scenario_from_dict({"channel": "rice1", "sinr_cap_db": {"2": 12.5}})
        assert capped != scenario_from_dict({"channel": "rice1"})


class TestDerivedHelpers:
    def test_grid_for_block_fixed(self):
        sc = scenario_from_dict(_fixed_cfg(n_prb=5))
        h = sc.block_channels(drop_seed=1, n_blocks=3)
        assert h.shape == (3, 2, 4)
        assert np.array_equal(h[2], np.asarray(H_2X4_REF, complex))
        assert sc.coherence_slots == sc.n_slots and not sc.is_fading

    def test_grid_for_block_rice(self):
        sc = scenario_from_dict({"channel": "rice1", "n_prb": 3, "n_tx": 2})
        a = sc.block_channels(drop_seed=9, n_blocks=3)
        b = sc.block_channels(drop_seed=9, n_blocks=3)
        assert np.array_equal(a, b)
        assert a.shape == (3, 2, 2)
        assert sc.coherence_slots == 10 and sc.is_fading

    def test_noise_for_modes(self):
        p_rx = block_rx_power(scenario_from_dict(_fixed_cfg()).block_channels(0, 1))
        free = scenario_from_dict(_fixed_cfg())
        assert free.noise_vars(p_rx).tolist() == [[0.0]]
        var = scenario_from_dict(_fixed_cfg(noise={"mode": "variance",
                                                   "variance": 0.25}))
        assert var.noise_vars(p_rx).tolist() == [[0.25]]
        snr = scenario_from_dict(_fixed_cfg(noise={"mode": "snr", "snr_db": 0}))
        assert snr.noise_vars(p_rx).shape == (1, 1)
        assert snr.noise_vars(p_rx)[0, 0] == pytest.approx(0.33203125)
        sweep = scenario_from_dict(_fixed_cfg(noise={"mode": "snr_sweep",
                                                     "snr_db_list": [0, 10, 0]}))
        assert sweep.noise_vars(p_rx).shape == (3, 1)
        assert sweep.noise_vars(p_rx)[:, 0] == pytest.approx([0.33203125, 0.033203125,
                                                              0.33203125])
        assert sweep.noise_vars(np.array([1.0, 2.0])).tolist() == [[1.0, 2.0], [0.1, 0.2],
                                                                   [1.0, 2.0]]


@settings(max_examples=200, deadline=None)
@given(n_slots=st.integers(1, 120), coherence=st.one_of(st.none(), st.integers(1, 30)),
       csi_period=st.integers(1, 30), max_harq_tx=st.integers(1, 125))
@example(n_slots=40, coherence=1, csi_period=1, max_harq_tx=40)
def test_harq_pair_bound_covers_the_drop(n_slots, coherence, csi_period, max_harq_tx):
    # None stands for a fixed channel: one block for the whole drop.
    channel = ({"type": "fixed", "matrix": H_2X4_REF} if coherence is None
               else {"type": "rice1", "coherence_slots": coherence})
    sc = scenario_from_dict({"channel": channel, "n_slots": n_slots, "n_drops": 1,
                             "csi_period": csi_period, "max_harq_tx": max_harq_tx})
    bound = _harq_pair_bound(n_slots, coherence or n_slots, csi_period, max_harq_tx)
    pairs = drop_channel(sc, 5).pair_report.size
    assert pairs <= bound
    if (coherence, csi_period) == (1, 1) and max_harq_tx >= n_slots:
        assert pairs == bound == n_slots * (n_slots + 1) // 2


# Every numeric key of each section; a top-level key has section None.
_NUMERIC_KEYS = [(None, k) for k in ("n_tx", "n_rx", "n_prb", "scs_khz", "n_slots", "n_drops",
                                     "csi_period", "dl_duty_factor", "seed", "est_error_var",
                                     "max_harq_tx")] + [
    ("channel", "k_factor"), ("channel", "coherence_slots"), ("noise", "snr_db"),
    ("noise", "snr_db_list"), ("noise", "variance"), ("csi", "gamma_th"),
    ("csi", "force_ri"), ("csi", "force_cqi")]
# Base documents setting every key they can to a value other than its default.
_SETTINGS = {"n_rx": 2, "n_prb": 52, "scs_khz": 30, "n_slots": 60, "n_drops": 3,
             "csi_period": 5, "dl_duty_factor": 0.5, "seed": 7, "est_error_var": 0.01,
             "max_harq_tx": 2, "noise": {"mode": "snr_sweep", "snr_db_list": [0, 10]},
             "csi": {"gamma_th": 3.0, "force_ri": 1, "force_cqi": 7}}
_BASE_DOCS = {
    "rice1": {"channel": {"type": "rice1", "k_factor": 3.0, "coherence_slots": 4},
              "n_tx": 2, **_SETTINGS},
    "fixed": {"channel": {"type": "fixed", "matrix": [[1, 0.5], [0.5, 1]]},
              "n_tx": 2, **_SETTINGS},
}


def _outcome(doc):
    """The parsed scenario, or the message of the ScenarioError raised."""
    try:
        return scenario_from_dict(doc)
    except ScenarioError as e:
        return str(e)


def _with(doc: dict, section, key: str, value) -> dict:
    """A copy of ``doc`` with ``key`` of ``section`` set to ``value``, or removed
    if ``value`` is ``...``."""
    doc = json.loads(json.dumps(doc))
    owner = doc if section is None else doc.setdefault(section, {})
    if value is ...:
        owner.pop(key, None)
    else:
        owner[key] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(sorted(_BASE_DOCS)), key=st.sampled_from(_NUMERIC_KEYS),
       dropped=st.sets(st.sampled_from(sorted(_SETTINGS))))
def test_null_is_unset_and_unset_is_the_dataclass_default(base, key, dropped):
    doc = {k: v for k, v in _BASE_DOCS[base].items() if k not in dropped}
    assert isinstance(_outcome(doc), Scenario)
    section, name = key
    absent = _outcome(_with(doc, section, name, ...))
    assert _outcome(_with(doc, section, name, None)) == absent
    if isinstance(absent, str) or name in ("n_rx", "scs_khz"):  # numerology: not stored
        return
    owner, fresh = {
        None: (absent, Scenario(absent.channel)),
        "channel": (absent.channel, ChannelModel(absent.channel.kind,
                                                 matrix=absent.channel.matrix)),
        "noise": (absent.noise, NoiseModel()),
        "csi": (absent.csi, CsiConfig()),
    }[section]
    assert getattr(owner, name) == getattr(fresh, name)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from([..., None, "", "rayleigh", "Fixed", 5, ["fixed"]]),
       matrix=st.sampled_from([..., None, H_2X4_REF]),
       extra=st.dictionaries(st.sampled_from(["k_factor", "coherence_slots"]),
                             st.integers(1, 5) | st.none()))
def test_channel_without_a_known_type_is_rejected_naming_it(kind, matrix, extra):
    channel = dict(extra)
    for key, value in (("type", kind), ("matrix", matrix)):
        if value is not ...:
            channel[key] = value
    with pytest.raises(ScenarioError, match="channel.type"):
        scenario_from_dict({"channel": channel})


class TestParseScenario:
    def test_golden_files_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = parse_scenario(path)
            assert isinstance(sc, Scenario), path.name

    def test_golden_reference_matrix(self):
        sc = parse_scenario(scenario_path("cqi_sweep_fixed_2x4.json"))
        assert sc.channel.kind == "fixed"
        assert np.array_equal(sc.channel.matrix, np.asarray(H_2X4_REF, complex))
        assert sc.csi.force_ri == 2
        assert sc.noise.mode == "noise_free"

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario(p)

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # Python's int() refuses a decimal string of more than 4,300 digits.
        p = tmp_path / "huge.json"
        p.write_text('{"channel": "rice1", "seed": ' + "1" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario(p)
        assert cli.main(["csi", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name, body", [
        ("latin1.json", b'{"channel": "rice1", "name": "caf\xe9"}'),
        ("deep.json", b"[" * 200_000),
    ])
    def test_undecodable_file_is_named(self, tmp_path, capsys, name, body):
        # A byte that is not UTF-8, and nesting past the recursion limit.
        p = tmp_path / name
        p.write_bytes(body)
        with pytest.raises(ScenarioError, match=re.escape(f"{p}: not valid JSON")):
            parse_scenario(p)
        assert cli.main(["csi", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}: not valid JSON" in err and "Traceback" not in err

    def test_non_object_document(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        with pytest.raises(ScenarioError):
            parse_scenario(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_scenario(tmp_path / "absent.json")
