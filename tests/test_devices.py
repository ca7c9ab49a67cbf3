"""Drain-current model tests.

Golden numbers were produced by a 40-digit mpmath evaluation of the model
formulas before this suite was written; they are asserted at double
precision here.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramyield import DeviceParams, DomainError, OperatingPoint, ParseError
from sramyield.artifacts import write_json
from sramyield.devices import (
    EXP_ARG_LIMIT,
    _current_at_zero_overdrive,
    _current_proposed,
    gate_polynomial,
    ids_classic,
    ids_proposed,
    ids_transregional,
    load_device_table,
    read_device_json,
    thermal_voltage,
)

from test_domains import NON_FINITE, check_non_finite_rejected, fields_of

VT_25C = 0.025692579121085846518  # k_B * 298.15 K / q, CODATA 2018
GOLDEN_BIAS = dict(vgs=0.6, vds=0.7)
GOLDEN_IDS_PROPOSED = 4.877974184186173e-05
GOLDEN_IDS_TRANSREGIONAL = 4.985462534687307e-05
GOLDEN_IDS_CLASSIC = 0.01471022559551356


def test_thermal_voltage_at_25c_matches_codata():
    assert thermal_voltage(25.0) == pytest.approx(VT_25C, rel=1e-15, abs=0)


def test_thermal_voltage_is_roughly_25mv_at_room_temperature():
    assert 0.024 < thermal_voltage(25.0) < 0.027


@pytest.mark.parametrize("temp_c", [-273.15, -300.0])
def test_thermal_voltage_rejects_nonphysical_temperature(temp_c):
    with pytest.raises(DomainError):
        thermal_voltage(temp_c)


class TestGatePolynomial:
    def test_zero_overdrive_gives_zero(self, device_table):
        svt = device_table["nch_svt"]
        assert gate_polynomial(svt, svt.vth_nominal, thermal_voltage(25.0)) == 0.0

    def test_one_thermal_unit_overdrive(self, device_table):
        svt = device_table["nch_svt"]
        vt = thermal_voltage(25.0)
        vgs = svt.vth_nominal + svt.n * vt
        assert gate_polynomial(svt, vgs, vt) == pytest.approx(0.1386, abs=1e-12)

    def test_two_thermal_units_overdrive(self, device_table):
        svt = device_table["nch_svt"]
        vt = thermal_voltage(25.0)
        vgs = svt.vth_nominal + 2.0 * svt.n * vt
        # 0.1414*2 - 0.0028*4
        assert gate_polynomial(svt, vgs, vt) == pytest.approx(0.2716, abs=1e-12)

    def test_accepts_array_vth(self, device_table):
        svt = device_table["nch_svt"]
        vt = thermal_voltage(25.0)
        out = gate_polynomial(svt, 0.5, vt, vth=np.array([0.3, 0.35, 0.4]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0.0)  # higher vth, lower overdrive


class TestProposedModel:
    def test_golden_point(self, device_table):
        op = OperatingPoint(temperature_c=25.0, **GOLDEN_BIAS)
        got = ids_proposed(device_table["nch_svt"], op)
        assert got == pytest.approx(GOLDEN_IDS_PROPOSED, rel=1e-13, abs=0)

    def test_zero_vds_gives_exactly_zero_for_every_flavor(self, device_table):
        for params in device_table.values():
            assert ids_proposed(params, OperatingPoint(vgs=0.6, vds=0.0)) == 0.0

    def test_monotone_in_vgs_at_fixed_vds(self, device_table):
        op_lo = OperatingPoint(vgs=0.5, vds=0.3)
        op_hi = OperatingPoint(vgs=0.6, vds=0.3)
        for params in device_table.values():
            assert ids_proposed(params, op_hi) > ids_proposed(params, op_lo)

    @pytest.mark.parametrize("flavor", [
        "nch_hvt", "pch_hvt", "nch_svt", "pch_svt", "nch_lvt", "pch_lvt",
    ])
    def test_positive_drain_slope_over_fitted_range(self, device_table, flavor):
        # finite differences at 1 mV steps, vds in (0, 0.7]
        params = device_table[flavor]
        vds = np.arange(0.001, 0.7001, 0.001)
        cur = np.array([
            ids_proposed(params, OperatingPoint(vgs=0.6, vds=float(v))) for v in vds
        ])
        assert np.all(np.diff(cur) > 0.0)

    @pytest.mark.parametrize("flavor", [
        "nch_hvt", "pch_hvt", "nch_svt", "pch_svt", "nch_lvt", "pch_lvt",
    ])
    def test_positive_gate_slope_over_fitted_range(self, device_table, flavor):
        params = device_table[flavor]
        vgs = np.arange(0.0, 0.7001, 0.001)
        cur = np.array([
            ids_proposed(params, OperatingPoint(vgs=float(v), vds=0.5)) for v in vgs
        ])
        assert np.all(np.diff(cur) > 0.0)

    def test_continuous_at_small_vds(self, device_table):
        params = device_table["nch_lvt"]
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            a = ids_proposed(params, OperatingPoint(vgs=0.5, vds=eps))
            b = ids_proposed(params, OperatingPoint(vgs=0.5, vds=2 * eps))
            gaps.append(abs(a - b))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_subthreshold_bias_returns_small_positive_current(self, device_table):
        params = device_table["nch_hvt"]  # vth 0.45
        got = ids_proposed(params, OperatingPoint(vgs=0.2, vds=0.5))
        assert 0.0 < got < params.i0


class TestBaselines:
    def test_classic_golden_point_differs_from_proposed(self, device_table):
        op = OperatingPoint(**GOLDEN_BIAS)
        classic = ids_classic(device_table["nch_svt"], op)
        assert classic == pytest.approx(GOLDEN_IDS_CLASSIC, rel=1e-13, abs=0)
        assert classic != pytest.approx(GOLDEN_IDS_PROPOSED, rel=0.5, abs=0)

    def test_classic_zero_vds_gives_zero(self, device_table):
        assert ids_classic(device_table["pch_lvt"], OperatingPoint(vgs=0.5, vds=0.0)) == 0.0

    def test_classic_approaches_i0_at_threshold_bias(self):
        params = DeviceParams(i0=1e-6, k1=0.4, k2=-0.01, dibl=0.0, vth_nominal=0.35)
        got = ids_classic(params, OperatingPoint(vgs=0.35, vds=0.5))
        assert got == pytest.approx(params.i0, rel=1e-8, abs=0)

    def test_transregional_golden_point(self, device_table):
        op = OperatingPoint(**GOLDEN_BIAS)
        got = ids_transregional(device_table["nch_svt"], op)
        assert got == pytest.approx(GOLDEN_IDS_TRANSREGIONAL, rel=1e-13, abs=0)

    def test_transregional_zero_vds_gives_zero(self, device_table):
        assert ids_transregional(device_table["nch_svt"], OperatingPoint(vgs=0.6, vds=0.0)) == 0.0

    @pytest.mark.parametrize("vds", [0.1, 0.35, 0.7])
    def test_dibl_factor_identity(self, device_table, vds):
        # proposed / transregional is exactly the drain-bias exponential
        for params in device_table.values():
            op = OperatingPoint(vgs=0.6, vds=vds)
            ratio = ids_proposed(params, op) / ids_transregional(params, op)
            expected = math.exp(params.dibl * vds / (params.n * thermal_voltage(25.0)))
            assert ratio == pytest.approx(expected, rel=1e-15, abs=0)


@st.composite
def valid_params(draw):
    # keep |k2| small against k1 so the monotonicity construction check
    # passes for any vth/n in range (largest overdrive is ~17.5 thermal units)
    k1 = draw(st.floats(0.1, 1.5))
    k2 = -draw(st.floats(0.0, 0.9)) * k1 / 40.0
    return DeviceParams(
        i0=draw(st.floats(1e-8, 1e-3)),
        k1=k1,
        k2=k2,
        dibl=draw(st.floats(-0.01, 0.1)),
        vth_nominal=draw(st.floats(0.25, 0.5)),
        n=draw(st.floats(1.0, 2.0)),
    )


@given(params=valid_params(), vgs=st.floats(0.0, 0.7))
@settings(max_examples=100, deadline=None)
def test_property_zero_vds_is_always_zero(params, vgs):
    assert ids_proposed(params, OperatingPoint(vgs=vgs, vds=0.0)) == 0.0


@given(params=valid_params(), vds=st.floats(1e-4, 0.7), vgs=st.floats(0.0, 0.7))
@settings(max_examples=100, deadline=None)
def test_property_dibl_identity_everywhere(params, vds, vgs):
    op = OperatingPoint(vgs=vgs, vds=vds)
    lhs = ids_proposed(params, op)
    rhs = ids_transregional(params, op) * math.exp(
        params.dibl * vds / (params.n * thermal_voltage(25.0))
    )
    assert lhs == pytest.approx(rhs, rel=5e-16, abs=0.0)


class TestZeroOverdriveKernel:
    """_current_at_zero_overdrive is _current_proposed at vth = vgs, bit for bit."""

    VDS = np.linspace(0.0, 0.9, 181)

    def flavors(self, device_table):
        # the bundled flavors, plus each with a negative DIBL coefficient
        params = list(device_table.values())
        return params + [dataclasses.replace(p, dibl=-abs(p.dibl) - 0.01) for p in params]

    def test_scalars_and_arrays(self, device_table):
        for temperature_c in (-40.0, 25.0, 125.0):
            vt = thermal_voltage(temperature_c)
            for params in self.flavors(device_table):
                vgs = params.vth_nominal + 0.1
                ref = _current_proposed(params, vgs, self.VDS, vt, vgs)
                assert _current_at_zero_overdrive(params, self.VDS, vt).tolist() == ref.tolist()
                assert [float(_current_at_zero_overdrive(params, v, vt))
                        for v in self.VDS.tolist()] == ref.tolist()

    def test_per_cell_columns(self, device_table):
        # (C, 1) constants against (C, N) biases, as the batched closed forms pass them
        params = self.flavors(device_table)
        cols = SimpleNamespace(**{k: np.array([getattr(p, k) for p in params])[:, None]
                                  for k in ("i0", "k1", "k2", "dibl", "n")})
        vt = np.array([thermal_voltage(t) for t in np.linspace(-40.0, 125.0, len(params))])[:, None]
        vgs = np.linspace(0.3, 0.8, len(params))[:, None]
        vds = self.VDS * np.linspace(0.5, 1.0, len(params))[:, None]
        ref = _current_proposed(cols, vgs, vds, vt, vgs)
        assert _current_at_zero_overdrive(cols, vds, vt).tolist() == ref.tolist()


@given(params=valid_params(), vds=st.floats(0.0, 0.9), vgs=st.floats(0.0, 0.9),
       temperature_c=st.floats(-40.0, 125.0))
@settings(max_examples=200, deadline=None)
def test_property_zero_overdrive_kernel_is_exact(params, vds, vgs, temperature_c):
    vt = thermal_voltage(temperature_c)
    assert _current_at_zero_overdrive(params, vds, vt) == _current_proposed(params, vgs, vds, vt, vgs)


class TestParameterValidation:
    def test_rejects_nonpositive_i0(self):
        with pytest.raises(DomainError):
            DeviceParams(i0=0.0, k1=0.4, k2=-0.01, dibl=0.02, vth_nominal=0.35)

    def test_rejects_subunit_swing_factor(self):
        with pytest.raises(DomainError):
            DeviceParams(i0=1e-6, k1=0.4, k2=-0.01, dibl=0.02, vth_nominal=0.35, n=0.9)

    def test_rejects_nonpositive_k1(self):
        with pytest.raises(DomainError):
            DeviceParams(i0=1e-6, k1=0.0, k2=-0.01, dibl=0.02, vth_nominal=0.35)

    def test_rejects_quadratic_dominating_linear(self):
        with pytest.raises(DomainError):
            DeviceParams(i0=1e-6, k1=0.1, k2=-0.1, dibl=0.02, vth_nominal=0.35)

    def test_rejects_nonmonotone_current_over_declared_range(self):
        # k1 + 2*k2*x goes negative well before vgs_max here
        with pytest.raises(DomainError, match="monotone"):
            DeviceParams(i0=1e-6, k1=0.1, k2=-0.04, dibl=0.02, vth_nominal=0.0,
                         vgs_max=0.7)

    def test_rejects_unknown_polarity(self):
        with pytest.raises(DomainError):
            DeviceParams(i0=1e-6, k1=0.4, k2=-0.01, dibl=0.02, vth_nominal=0.35,
                         polarity="finfet")

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", fields_of(DeviceParams))
    def test_rejects_non_finite_constant(self, field, value):
        check_non_finite_rejected(DeviceParams, field, value)

    def test_negative_dibl_is_allowed(self, device_table):
        assert device_table["nch_svt"].dibl < 0.0

    def test_exponent_clamp_is_sixty(self):
        assert EXP_ARG_LIMIT == 60.0


class TestOperatingPoint:
    def test_rejects_negative_biases(self):
        with pytest.raises(DomainError):
            OperatingPoint(vgs=-0.1, vds=0.5)
        with pytest.raises(DomainError):
            OperatingPoint(vgs=0.5, vds=-0.1)

    def test_rejects_temperature_below_absolute_zero(self):
        with pytest.raises(DomainError):
            OperatingPoint(vgs=0.5, vds=0.5, temperature_c=-280.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", fields_of(OperatingPoint))
    def test_rejects_non_finite_bias(self, field, value):
        check_non_finite_rejected(OperatingPoint, field, value)


class TestSerialization:
    def test_bundled_table_has_six_flavors(self, device_table):
        assert sorted(device_table) == [
            "nch_hvt", "nch_lvt", "nch_svt", "pch_hvt", "pch_lvt", "pch_svt",
        ]
        for name, params in device_table.items():
            assert params.polarity == ("nmos" if name.startswith("nch") else "pmos")

    def test_json_round_trip_preserves_every_field(self, tmp_path, device_table):
        src = device_table["pch_hvt"]
        path = tmp_path / "dev.json"
        write_json(path, src.to_dict())
        back = read_device_json(path)
        assert back == src

    def test_dibl_serializes_under_lambda_key(self, device_table):
        d = device_table["nch_lvt"].to_dict()
        assert "lambda" in d and "dibl" not in d

    def test_missing_key_raises_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"i0": 1e-6, "k1": 0.4}')
        with pytest.raises(ParseError, match="missing key"):
            read_device_json(path)

    def test_unreadable_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            read_device_json(tmp_path / "nope.json")
