"""JSON records: one writer and one reader for every record dataclass.

The key sets and tags pin the artifact format; a round trip must give back
an equal record. The reader takes numbers as JSON numbers only: a bool or a
numeric string in any numeric field of a bundled input is a ParseError.
"""

import copy
import dataclasses
import json
from importlib import resources

import pytest

from sramyield.artifacts import Record, json_value
from sramyield.devices import DeviceParams
from sramyield.errors import DomainError, ParseError
from sramyield.fitting import FitReport
from sramyield.mc import VariationSpec
from sramyield.transients import CellConfig
from sramyield.yieldmodel import DeltaVDistribution, OffsetVoltageDist, WriteTimeDistribution


def bundled(name):
    return json.loads(resources.files("sramyield.data").joinpath(name).read_text())


DEVICE_KEYS = {"i0", "k1", "k2", "lambda", "n", "vth_nominal", "polarity", "vgs_max"}
# record -> (its to_dict keys, its constant tags)
FORMAT = {
    "device": (DEVICE_KEYS, {}),
    "cell": ({"schema", "vdd", "vwl", "vddc", "c_blb", "c_q", "v_trip", "temperature_c",
              "nmos", "pmos"}, {"schema": 1}),
    "variation": ({"schema", "vth_n_mean", "vth_n_sigma", "vth_p_mean", "vth_p_sigma",
                   "offset", "seed"}, {"schema": 1}),
    "offset": ({"schema", "kind", "mu_vos", "sigma_vos"}, {"schema": 1, "kind": "offset"}),
    "delta": ({"schema", "kind", "mu_delta", "sigma_delta"},
              {"schema": 1, "kind": "access_delta"}),
    "write": ({"schema", "kind", "mu_w", "sigma_w", "t0"}, {"schema": 1, "kind": "write_time"}),
    "fit": ({"schema", "params", "max_rel_error_sat", "avg_rel_error_sat", "iterations",
             "converged", "residual_norm"}, {"schema": 1}),
}


@pytest.fixture(scope="module")
def records(device_table, default_cell, default_variation):
    return {
        "device": device_table["pch_hvt"],
        "cell": default_cell,
        "variation": default_variation,
        "offset": default_variation.offset,
        "delta": DeltaVDistribution(mu_delta=0.3, sigma_delta=0.012),
        "write": WriteTimeDistribution(mu_w=1.5, sigma_w=0.12, t0=2e-12),
        "fit": FitReport(params=device_table["nch_svt"], max_rel_error_sat=0.031,
                         avg_rel_error_sat=0.012, iterations=17, converged=True,
                         residual_norm=0.25),
    }


class TestFormat:
    @pytest.mark.parametrize("name", sorted(FORMAT))
    def test_keys_and_tags(self, records, name):
        keys, tags = FORMAT[name]
        d = records[name].to_dict()
        assert set(d) == keys
        assert {k: d[k] for k in ("schema", "kind") if k in d} == tags

    @pytest.mark.parametrize("name, field", [("cell", "nmos"), ("cell", "pmos"),
                                             ("variation", "offset"), ("fit", "params")])
    def test_nested_record_is_an_object(self, records, name, field):
        d = records[name].to_dict()
        assert d[field] == getattr(records[name], field).to_dict()
        json.dumps(d)  # plain JSON all the way down

    @pytest.mark.parametrize("name", sorted(set(FORMAT) - {"fit"}))
    def test_round_trip(self, records, name):
        record = records[name]
        assert type(record).from_dict(record.to_dict()) == record

    def test_fit_report_round_trip(self, records):
        back = FitReport.from_dict(json.loads(json.dumps(records["fit"].to_dict())))
        assert back == records["fit"]
        assert type(back.iterations) is int and back.converged is True


def numeric_paths(obj, path=()):
    """Key paths of every number in a JSON object but its "schema" tags."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from numeric_paths(value, path + (key,))
        elif isinstance(value, (int, float)) and key != "schema":
            yield path + (key,)


def with_value(obj, path, value):
    obj = copy.deepcopy(obj)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


BUNDLED_INPUTS = [
    (CellConfig, bundled("default_cell.json")),
    (VariationSpec, bundled("default_variation.json")),
    *((DeviceParams, row) for row in bundled("device_table.json").values()),
]
CASES = [(cls, obj, path) for cls, obj in BUNDLED_INPUTS for path in numeric_paths(obj)]


class TestNumberPolicy:
    def test_every_bundled_field_is_covered(self):
        # the 28 numeric fields of the bundled cell (7 + 2 * 7) and variation
        # (5 + 2 of the offset), and 7 per bundled device flavor
        assert len(CASES) == 28 + 6 * 7

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("cls, obj, path", CASES,
                             ids=[f"{cls.__name__}:{'.'.join(p)}" for cls, _, p in CASES])
    def test_number_fields_take_numbers_only(self, cls, obj, path, value):
        with pytest.raises(ParseError, match=f"{path[-1]} must be an? "):
            cls.from_dict(with_value(obj, path, value))

    @pytest.mark.parametrize("seed", [160.5, 160.0, "160", True, 1e20])
    def test_seed_takes_a_json_integer(self, seed):
        with pytest.raises(ParseError, match="seed must be an integer"):
            VariationSpec.from_dict(with_value(bundled("default_variation.json"), ("seed",), seed))

    def test_int_is_a_number(self):
        var = VariationSpec.from_dict(with_value(bundled("default_variation.json"),
                                                 ("vth_n_sigma",), 1))
        assert type(var.vth_n_sigma) is float and var.vth_n_sigma == 1.0

    @pytest.mark.parametrize("kind, value", [(float, True), (float, "1"), (int, 1.0),
                                             (int, False), (str, 1), (bool, 1), (bool, "true")])
    def test_json_value_rejects(self, kind, value):
        with pytest.raises(TypeError):
            json_value(value, kind, "x")

    def test_polarity_is_taken_as_given(self):
        row = dict(bundled("device_table.json")["nch_svt"], polarity="NMOS")
        with pytest.raises(DomainError, match="polarity"):
            DeviceParams.from_dict(row)


class TestDefaults:
    @pytest.mark.parametrize("key", ["c_blb", "c_q", "temperature_c", "v_trip"])
    def test_missing_cell_key_takes_the_field_default(self, key):
        obj = bundled("default_cell.json")
        obj.pop(key, None)
        cell = CellConfig.from_dict(obj)
        default = CellConfig.__dataclass_fields__[key].default
        assert getattr(cell, key) == (0.5 * cell.vddc if default is None else default)

    def test_null_v_trip_is_the_default(self):
        cell = CellConfig.from_dict(with_value(bundled("default_cell.json"), ("v_trip",), None))
        assert cell.v_trip == 0.5 * cell.vddc

    def test_null_required_field_is_malformed(self):
        with pytest.raises(ParseError, match="vdd must be a number, got None"):
            CellConfig.from_dict(with_value(bundled("default_cell.json"), ("vdd",), None))

    @pytest.mark.parametrize("key", ["n", "polarity", "vgs_max"])
    def test_missing_device_key_takes_the_field_default(self, key):
        row = bundled("device_table.json")["nch_svt"]
        del row[key]
        assert getattr(DeviceParams.from_dict(row), key) == \
            DeviceParams.__dataclass_fields__[key].default

    def test_missing_t0_takes_the_field_default(self):
        obj = WriteTimeDistribution(mu_w=1.5, sigma_w=0.12).to_dict()
        del obj["t0"]
        assert WriteTimeDistribution.from_dict(obj).t0 == \
            WriteTimeDistribution.__dataclass_fields__["t0"].default

    def test_missing_required_key_is_named(self):
        obj = OffsetVoltageDist(mu_vos=0.07, sigma_vos=0.003).to_dict()
        del obj["sigma_vos"]
        with pytest.raises(ParseError, match="offset JSON is missing key 'sigma_vos'"):
            OffsetVoltageDist.from_dict(obj)

    @pytest.mark.parametrize("obj", [[], "abc", 5, None])
    def test_not_an_object(self, obj):
        with pytest.raises(ParseError, match="malformed cell JSON: expected a JSON object"):
            CellConfig.from_dict(obj)

    def test_extra_keys_are_ignored(self):
        obj = dict(bundled("default_variation.json"), comment="lot 7")
        assert VariationSpec.from_dict(obj) == VariationSpec.from_dict(
            bundled("default_variation.json"))


def test_every_record_class_derives_from_record():
    for cls in (DeviceParams, CellConfig, VariationSpec, OffsetVoltageDist,
                DeltaVDistribution, WriteTimeDistribution, FitReport):
        assert issubclass(cls, Record) and dataclasses.is_dataclass(cls)
        assert "to_dict" not in vars(cls) and "from_dict" not in vars(cls)
