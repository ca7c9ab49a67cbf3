"""Declared input domains: one table of every checked numeric field.

Each row is (class, field, bound, closed): the field must be finite and,
given a bound, above it (at or above it when closed). One test holds the
table to the declarations, another holds README's domain table to it, and
the rest run its rows: NaN and both infinities, a value just past each
bound, and each closed bound itself.
"""

import dataclasses
import math
import re
import typing
from pathlib import Path

import pytest

from sramyield.devices import DeviceParams, OperatingPoint, thermal_voltage
from sramyield.errors import DomainError
from sramyield.mc import VariationSpec
from sramyield.transients import AssistConfig, CellConfig, load_default_cell
from sramyield.yieldmodel import DeltaVDistribution, OffsetVoltageDist, WriteTimeDistribution

DOMAINS = [
    (DeviceParams, "i0", 0.0, False),
    (DeviceParams, "k1", 0.0, False),
    (DeviceParams, "k2", None, False),
    (DeviceParams, "dibl", None, False),
    (DeviceParams, "vth_nominal", None, False),
    (DeviceParams, "n", 1.0, True),
    (DeviceParams, "vgs_max", 0.0, False),
    (OperatingPoint, "vgs", 0.0, True),
    (OperatingPoint, "vds", 0.0, True),
    (OperatingPoint, "temperature_c", -273.15, False),
    (CellConfig, "vdd", 0.0, False),
    (CellConfig, "vwl", 0.0, True),
    (CellConfig, "vddc", 0.0, False),
    (CellConfig, "c_blb", 0.0, False),
    (CellConfig, "c_q", 0.0, False),
    (CellConfig, "v_trip", None, False),
    (CellConfig, "temperature_c", -273.15, False),
    (AssistConfig, "wl_underdrive", 0.0, True),
    (AssistConfig, "wl_boost", 0.0, True),
    (AssistConfig, "cell_vdd_delta", None, False),
    (VariationSpec, "vth_n_mean", None, False),
    (VariationSpec, "vth_n_sigma", 0.0, False),
    (VariationSpec, "vth_p_mean", None, False),
    (VariationSpec, "vth_p_sigma", 0.0, False),
    (OffsetVoltageDist, "mu_vos", None, False),
    (OffsetVoltageDist, "sigma_vos", 0.0, False),
    (DeltaVDistribution, "mu_delta", 0.0, False),
    (DeltaVDistribution, "sigma_delta", 0.0, False),
    (WriteTimeDistribution, "mu_w", 0.0, False),
    (WriteTimeDistribution, "sigma_w", 0.0, False),
    (WriteTimeDistribution, "t0", 0.0, False),
]
CLASSES = list(dict.fromkeys(row[0] for row in DOMAINS))
NON_FINITE = [math.nan, math.inf, -math.inf]

_CELL = load_default_cell()
_VALID = {
    DeviceParams: dict(i0=1e-6, k1=0.4, k2=-0.01, dibl=0.02, vth_nominal=0.35),
    OperatingPoint: dict(vgs=0.5, vds=0.1, temperature_c=25.0),
    CellConfig: {f.name: getattr(_CELL, f.name) for f in dataclasses.fields(_CELL)},
    AssistConfig: dict(wl_underdrive=0.05, wl_boost=0.1, cell_vdd_delta=0.02),
    VariationSpec: dict(vth_n_mean=0.38, vth_n_sigma=0.02, vth_p_mean=0.38, vth_p_sigma=0.02,
                        offset=OffsetVoltageDist(mu_vos=0.07, sigma_vos=0.003), seed=160),
    OffsetVoltageDist: dict(mu_vos=0.07, sigma_vos=0.003),
    DeltaVDistribution: dict(mu_delta=0.3, sigma_delta=0.012),
    WriteTimeDistribution: dict(mu_w=1.5, sigma_w=0.12, t0=1e-12),
}


def build(cls, **overrides):
    """A valid `cls` with `overrides` applied."""
    return cls(**{**_VALID[cls], **overrides})


def fields_of(cls):
    return [field for c, field, _, _ in DOMAINS if c is cls]


def check_non_finite_rejected(cls, field, value):
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        build(cls, **{field: value})


def bound_text(bound, closed):
    return "finite" if bound is None else f"{'>=' if closed else '>'} {bound:g}"


def test_table_matches_declarations():
    declared = [(cls, f.name, *f.metadata["domain"])
                for cls in CLASSES for f in dataclasses.fields(cls) if "domain" in f.metadata]
    assert declared == DOMAINS


def test_float_fields_are_declared():
    # every float input field of these records has a row
    for cls in CLASSES:
        hints = typing.get_type_hints(cls)
        floats = [f.name for f in dataclasses.fields(cls) if hints[f.name] in (float, float | None)]
        assert floats == fields_of(cls), cls.__name__


# DeviceParams, OperatingPoint and CellConfig rows run in test_devices.py and
# test_transients.py, through check_non_finite_rejected
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cls, field", [
    (cls, field) for cls, field, _, _ in DOMAINS
    if cls not in (DeviceParams, OperatingPoint, CellConfig)])
def test_non_finite_rejected(cls, field, value):
    check_non_finite_rejected(cls, field, value)


@pytest.mark.parametrize("cls, field, bound, closed", [
    row for row in DOMAINS if row[2] is not None])
def test_value_past_the_bound_rejected(cls, field, bound, closed):
    past = [math.nextafter(bound, -math.inf), -1e300] + ([] if closed else [bound])
    for value in past:
        with pytest.raises(DomainError, match=f"^{field} must be {'>=' if closed else '>'} "):
            build(cls, **{field: value})


@pytest.mark.parametrize("cls, field, bound", [
    row[:3] for row in DOMAINS if row[3]])
def test_closed_bound_accepted(cls, field, bound):
    assert getattr(build(cls, **{field: bound}), field) == bound


def test_operating_point_at_zero_bias():
    assert build(OperatingPoint, vgs=0.0, vds=0.0) == OperatingPoint(0.0, 0.0)


def test_temperature_bound_matches_thermal_voltage():
    # T + 273.15 is exact near the bound, so the declared bound and
    # thermal_voltage's own check split the floats at the same place
    above = math.nextafter(-273.15, math.inf)
    assert build(OperatingPoint, temperature_c=above).temperature_c == above
    assert thermal_voltage(above) > 0.0
    with pytest.raises(DomainError, match="absolute zero"):
        thermal_voltage(-273.15)


def readme_domains():
    """(record, field, domain) of each field README's "Input contract" table lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("Input contract"):]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            if rows:
                break
            continue
        record, fields, domain = (cell.strip() for cell in line.strip("|").split("|"))
        rows += [(record.strip("`"), field.strip("`"), domain)
                 for field in re.split(r",\s*", fields)]
    return rows


def test_readme_table_matches_declarations():
    expected = [(cls.__name__, field, bound_text(bound, closed))
                for cls, field, bound, closed in DOMAINS]
    assert sorted(readme_domains()) == sorted(expected)
