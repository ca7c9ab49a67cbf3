"""Read-discharge and write-transition oracles.

Golden values marked "independent oracle" were frozen from a 40-digit
mpmath evaluation of the same balance equations (separated-variables
closed form, high-order integration for the ODE paths) done before this
suite existed; the implementation has to land on them, not the reverse.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from sramyield import transients
from sramyield.devices import DeviceParams, _current_proposed, gate_polynomial, thermal_voltage
from sramyield.errors import DomainError, ModelInapplicableError, ParseError
from sramyield.transients import (
    AssistConfig,
    CellConfig,
    _critical_ratio,
    apply_assist,
    default_write_t_max,
    delta_v_closed,
    delta_v_linearized,
    delta_v_ode,
    load_default_cell,
    read_cell_json,
    write_cell_json,
    write_time_closed,
    write_time_ode,
)

from rk4_reference import delta_v_rk4, write_time_rk4
from test_acceptance import draw_write_config

# Independent-oracle goldens, default desk cell at nominal thresholds.
DEFAULT_T_READ = 1.11e-10
DEFAULT_DV_CLOSED = 0.09992827546439512
DEFAULT_DV_ODE = 0.09988636793057157
DEFAULT_WRITE_CLOSED = 1.2147935852184221e-11
DEFAULT_WRITE_ODE_TRUTH = 1.0315710876791450e-11  # adaptive high-order integration
DEFAULT_WRITE_ODE_RK4 = 1.0315844561413406e-11  # the RK4 reference's fixed-step result
DEFAULT_WRITE_GAP = 0.1776149988378435  # closed vs exact, regression-pinned

# Same read golden for the shallow bundled flavor (large drain-factor gap).
SVT_T_READ = 1.34e-10
SVT_DV_CLOSED = 0.10057327832497122
SVT_DV_ODE = 0.09218572188800266


def weak_pmos(i0=2e-7):
    return DeviceParams(
        i0=i0, k1=0.40, k2=-0.015, dibl=0.02, vth_nominal=0.38, n=1.5,
        polarity="pmos",
    )


def make_cell(quiet_nmos, pmos=None, **overrides):
    kw = dict(nmos=quiet_nmos, pmos=pmos or weak_pmos(), vdd=0.5, vwl=0.5, vddc=0.5)
    kw.update(overrides)
    return CellConfig(**kw)


class TestCellConfig:
    def test_polarity_enforced(self, quiet_nmos):
        with pytest.raises(DomainError, match="polarity 'pmos'"):
            make_cell(quiet_nmos, pmos=quiet_nmos)
        swapped = dataclasses.replace(weak_pmos(), polarity="nmos")
        # pmos slot rejects an nmos; nmos slot rejects a pmos
        with pytest.raises(DomainError, match="polarity 'nmos'"):
            make_cell(weak_pmos(i0=1e-5), pmos=swapped and weak_pmos())

    def test_capacitances_positive(self, quiet_nmos):
        with pytest.raises(DomainError, match="capacitances"):
            make_cell(quiet_nmos, c_blb=0.0)
        with pytest.raises(DomainError, match="capacitances"):
            make_cell(quiet_nmos, c_q=-1e-15)

    def test_trip_defaults_to_half_supply(self, quiet_nmos):
        cell = make_cell(quiet_nmos, vddc=0.52)
        assert cell.v_trip == pytest.approx(0.26, rel=0, abs=0)

    def test_trip_band_boundaries(self, quiet_nmos):
        make_cell(quiet_nmos, v_trip=0.40 * 0.5)  # lower edge admitted
        make_cell(quiet_nmos, v_trip=0.62 * 0.5)  # upper edge admitted
        with pytest.raises(DomainError, match="validated band"):
            make_cell(quiet_nmos, v_trip=0.39 * 0.5)
        with pytest.raises(DomainError, match="validated band"):
            make_cell(quiet_nmos, v_trip=0.63 * 0.5)

    def test_boost_headroom(self, quiet_nmos):
        make_cell(quiet_nmos, vwl=0.7)  # exactly vdd + 0.2 is allowed
        with pytest.raises(DomainError, match="headroom"):
            make_cell(quiet_nmos, vwl=0.71)

    def test_nonpositive_rails_rejected(self, quiet_nmos):
        with pytest.raises(DomainError, match="vdd"):
            make_cell(quiet_nmos, vdd=0.0)
        with pytest.raises(DomainError, match="vwl"):
            make_cell(quiet_nmos, vwl=-0.1)

    def test_beta0_matches_nominal_polynomials(self, default_cell):
        vt = thermal_voltage(default_cell.temperature_c)
        p_n0 = gate_polynomial(default_cell.nmos, default_cell.vwl, vt)
        p_p0 = gate_polynomial(default_cell.pmos, default_cell.vddc, vt)
        assert default_cell.beta0 == pytest.approx(math.exp(p_p0 - p_n0), rel=1e-15, abs=0)

    def test_dict_round_trip(self, default_cell):
        clone = CellConfig.from_dict(default_cell.to_dict())
        assert clone.to_dict() == default_cell.to_dict()

    def test_json_file_round_trip(self, default_cell, tmp_path):
        path = tmp_path / "cell.json"
        write_cell_json(default_cell, path)
        assert read_cell_json(path).to_dict() == default_cell.to_dict()

    def test_missing_key_is_parse_error(self, default_cell, tmp_path):
        obj = default_cell.to_dict()
        del obj["vdd"]
        with pytest.raises(ParseError, match="missing key"):
            CellConfig.from_dict(obj)

    def test_garbled_file_is_parse_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_cell_json(path)

    def test_load_default_cell_is_stable(self, default_cell):
        assert load_default_cell().to_dict() == default_cell.to_dict()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["vdd", "vwl", "vddc", "c_blb", "c_q", "v_trip", "temperature_c"])
    def test_non_finite_field_rejected(self, default_cell, field, value):
        # unchecked, a NaN temperature keeps the trip-integral quadrature from converging
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            dataclasses.replace(default_cell, **{field: value})

    def test_overpowered_pullup_defers_error(self, quiet_nmos):
        # Construction succeeds; only the closed write path is unusable.
        cell = make_cell(quiet_nmos, pmos=weak_pmos(i0=1e-4))
        dv = delta_v_closed(cell, 0.38, 1e-10)
        assert 0.0 < dv < cell.vdd
        with pytest.raises(ModelInapplicableError, match="pull-up overpowers"):
            write_time_closed(cell, 0.38)
        with pytest.raises(ModelInapplicableError):
            cell.w_trip


class TestAssist:
    def test_validation(self):
        with pytest.raises(DomainError, match="wl_underdrive"):
            AssistConfig(wl_underdrive=-0.01)
        with pytest.raises(DomainError, match="wl_boost"):
            AssistConfig(wl_boost=-0.01)

    def test_identity(self, default_cell):
        out = apply_assist(default_cell, AssistConfig(), "read")
        assert (out.vwl, out.vddc) == (default_cell.vdd, default_cell.vdd)

    def test_read_underdrive_at_0v6(self, default_cell):
        base = dataclasses.replace(default_cell, vdd=0.6, vwl=0.6, vddc=0.6, v_trip=0.3)
        out = apply_assist(base, AssistConfig(wl_underdrive=0.1), "read")
        assert out.vwl == pytest.approx(0.5, abs=0)
        assert out.vddc == pytest.approx(0.6, abs=0)

    def test_write_boost_at_0v5(self, default_cell):
        out = apply_assist(default_cell, AssistConfig(wl_boost=0.025), "write")
        assert out.vwl == pytest.approx(0.525, abs=0)

    def test_supply_delta_sign_filtering(self, default_cell):
        assist = AssistConfig(cell_vdd_delta=0.05)
        assert apply_assist(default_cell, assist, "read").vddc == pytest.approx(0.55, abs=0)
        # a positive delta is a read-side boost only; writes ignore it
        assert apply_assist(default_cell, assist, "write").vddc == pytest.approx(0.5, abs=0)
        collapse = AssistConfig(cell_vdd_delta=-0.04)
        assert apply_assist(default_cell, collapse, "write").vddc == pytest.approx(0.46, abs=0)
        assert apply_assist(default_cell, collapse, "read").vddc == pytest.approx(0.5, abs=0)

    def test_error_paths(self, default_cell):
        with pytest.raises(DomainError, match="below ground"):
            apply_assist(default_cell, AssistConfig(wl_underdrive=0.6), "read")
        with pytest.raises(DomainError, match="collapses"):
            apply_assist(default_cell, AssistConfig(cell_vdd_delta=-0.26), "write")
        with pytest.raises(DomainError, match="mode"):
            apply_assist(default_cell, AssistConfig(), "refresh")

    def test_underdrive_slows_discharge(self, default_cell):
        assisted = apply_assist(default_cell, AssistConfig(wl_underdrive=0.05), "read")
        base_dv = delta_v_closed(default_cell, 0.38, DEFAULT_T_READ)
        assert delta_v_closed(assisted, 0.38, DEFAULT_T_READ) < base_dv

    def test_boost_speeds_write(self, default_cell):
        assisted = apply_assist(default_cell, AssistConfig(wl_boost=0.025), "write")
        assert write_time_closed(assisted, 0.38) < write_time_closed(default_cell, 0.38)
        t_max = default_write_t_max(default_cell)
        assert write_time_ode(assisted, 0.38, 0.38, t_max) < write_time_ode(
            default_cell, 0.38, 0.38, t_max
        )


class TestDeltaVClosed:
    def test_zero_time_is_zero(self, default_cell):
        assert delta_v_closed(default_cell, 0.38, 0.0) == 0.0

    def test_negative_time_rejected(self, default_cell):
        with pytest.raises(DomainError, match="t_read"):
            delta_v_closed(default_cell, 0.38, -1e-12)

    def test_golden_default_cell(self, default_cell):
        dv = delta_v_closed(default_cell, default_cell.nmos.vth_nominal, DEFAULT_T_READ)
        assert dv == pytest.approx(DEFAULT_DV_CLOSED, rel=1e-12, abs=0)

    def test_golden_svt_cell(self, svt_read_cell):
        dv = delta_v_closed(svt_read_cell, svt_read_cell.nmos.vth_nominal, SVT_T_READ)
        assert dv == pytest.approx(SVT_DV_CLOSED, rel=1e-12, abs=0)

    def test_doubling_time_grows_dv(self, default_cell):
        dv1 = delta_v_closed(default_cell, 0.38, DEFAULT_T_READ)
        dv2 = delta_v_closed(default_cell, 0.38, 2 * DEFAULT_T_READ)
        assert dv2 > dv1

    def test_clamped_at_vdd(self, default_cell):
        assert delta_v_closed(default_cell, 0.38, 1e-3) == default_cell.vdd

    def test_strictly_decreasing_in_vth(self, default_cell):
        grid = np.linspace(0.30, 0.46, 100)
        dv = delta_v_closed(default_cell, grid, DEFAULT_T_READ)
        assert np.all(np.diff(dv) < 0.0)

    def test_zero_dibl_is_linear_ramp(self, quiet_nmos):
        nm = dataclasses.replace(quiet_nmos, dibl=0.0)
        cell = make_cell(nm)
        vt = thermal_voltage(cell.temperature_c)
        p = gate_polynomial(nm, cell.vwl, vt, 0.40)
        t = 2e-11
        expect = nm.i0 * math.exp(p) * t / cell.c_blb
        assert delta_v_closed(cell, 0.40, t) == pytest.approx(expect, rel=1e-14, abs=0)
        # and the ramp still clamps
        assert delta_v_closed(cell, 0.40, 1.0) == cell.vdd

    def test_matches_root_finder(self, default_cell):
        # Separated-variables inverse: t(dv) must invert back to the same dv.
        nm = default_cell.nmos
        vt = thermal_voltage(default_cell.temperature_c)
        z = nm.dibl / (nm.n * vt)
        for vth in (0.33, 0.38, 0.43):
            p = gate_polynomial(nm, default_cell.vwl, vt, vth)
            scale = z * nm.i0 * math.exp(p + z * default_cell.vdd) / default_cell.c_blb

            def elapsed(dv):
                return math.expm1(z * dv) / scale

            t = DEFAULT_T_READ
            dv_closed = delta_v_closed(default_cell, vth, t)
            dv_root = brentq(
                lambda dv: elapsed(dv) - t, 0.0, default_cell.vdd, xtol=1e-15
            )
            assert dv_closed == pytest.approx(dv_root, rel=1e-9, abs=0)

    def test_array_shapes(self, default_cell):
        t = np.array([0.0, DEFAULT_T_READ, 2 * DEFAULT_T_READ])
        dv = delta_v_closed(default_cell, 0.38, t)
        assert dv.shape == (3,)
        assert dv[0] == 0.0
        assert np.all(np.diff(dv) > 0.0)


class TestDeltaVLinearized:
    def test_equals_closed_at_nominal(self, default_cell):
        vth0 = default_cell.nmos.vth_nominal
        lin = delta_v_linearized(default_cell, vth0, DEFAULT_T_READ)
        assert lin == pytest.approx(DEFAULT_DV_CLOSED, rel=1e-12, abs=0)

    def test_additive_term_is_sample_free(self, default_cell):
        nm = default_cell.nmos
        vt = thermal_voltage(default_cell.temperature_c)
        z = nm.dibl / (nm.n * vt)
        residuals = []
        for vth in (0.30, 0.36, 0.42, 0.48):
            p = gate_polynomial(nm, default_cell.vwl, vt, vth)
            lin = delta_v_linearized(default_cell, vth, DEFAULT_T_READ)
            residuals.append(lin - p / z)
        assert np.ptp(residuals) < 1e-12

    def test_requires_dibl(self, quiet_nmos):
        cell = make_cell(dataclasses.replace(quiet_nmos, dibl=0.0))
        with pytest.raises(DomainError, match="DIBL"):
            delta_v_linearized(cell, 0.38, 1e-10)


class TestDeltaVOde:
    def test_zero_time_is_zero(self, default_cell):
        assert delta_v_ode(default_cell, 0.38, 0.0) == 0.0

    def test_golden_default_cell(self, default_cell):
        dv = delta_v_ode(default_cell, default_cell.nmos.vth_nominal, DEFAULT_T_READ)
        assert dv == pytest.approx(DEFAULT_DV_ODE, rel=1e-12, abs=0)

    def test_golden_svt_cell(self, svt_read_cell):
        dv = delta_v_ode(svt_read_cell, svt_read_cell.nmos.vth_nominal, SVT_T_READ)
        assert dv == pytest.approx(SVT_DV_ODE, rel=1e-12, abs=0)

    def test_closed_gap_small_on_steep_flavor(self, default_cell):
        # The dropped drain factor costs ~0.04% here but ~9% on the shallow
        # flavor; both gaps are regression-pinned through the goldens above.
        gap = abs(DEFAULT_DV_CLOSED - DEFAULT_DV_ODE) / DEFAULT_DV_ODE
        assert gap < 5e-4

    def test_step_halving_converges(self, default_cell):
        a = delta_v_rk4(default_cell, 0.38, DEFAULT_T_READ, n_steps=4096)
        b = delta_v_rk4(default_cell, 0.38, DEFAULT_T_READ, n_steps=8192)
        assert abs(a - b) / b < 1e-9

    @pytest.mark.parametrize("cell_name,t_read", [("default_cell", DEFAULT_T_READ),
                                                  ("svt_read_cell", SVT_T_READ)])
    def test_matches_rk4_reference(self, request, cell_name, t_read):
        cell = request.getfixturevalue(cell_name)
        grid = np.linspace(0.30, 0.46, 17)
        for t in (0.1 * t_read, t_read, 10.0 * t_read):
            exact = delta_v_ode(cell, grid, t)
            assert np.max(np.abs(exact - delta_v_rk4(cell, grid, t)) / exact) < 1e-9
            # each lane is independent of the others in its call
            assert [delta_v_ode(cell, float(v), t) for v in grid] == list(exact)

    def test_full_discharge_returns_vdd(self, default_cell):
        assert delta_v_ode(default_cell, 0.30, 1e-7) == default_cell.vdd

    def test_strictly_decreasing_in_vth(self, default_cell):
        grid = np.linspace(0.30, 0.46, 100)
        dv = delta_v_ode(default_cell, grid, DEFAULT_T_READ)
        assert np.all(np.diff(dv) < 0.0)

    def test_bit_identical_reruns(self, default_cell):
        grid = np.linspace(0.32, 0.44, 7)
        a = delta_v_ode(default_cell, grid, DEFAULT_T_READ)
        b = delta_v_ode(default_cell, grid, DEFAULT_T_READ)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("oracle", [delta_v_closed, delta_v_ode])
def test_nan_read_time_rejected(default_cell, oracle):
    with pytest.raises(DomainError, match="t_read"):
        oracle(default_cell, 0.38, math.nan)
    with pytest.raises(DomainError, match="t_read"):
        oracle(default_cell, np.array([0.38, 0.39]), np.array([1e-10, math.nan]))


class TestWriteTimeClosed:
    def test_golden_default_cell(self, default_cell):
        t = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        assert t == pytest.approx(DEFAULT_WRITE_CLOSED, rel=1e-9, abs=0)

    @given(
        vth_a=st.floats(0.25, 0.55),
        vth_b=st.floats(0.25, 0.55),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefactor_scaling_identity(self, vth_a, vth_b):
        # Only the access-transistor prefactor moves with the sample, so the
        # ratio of two write times is an exact exponential of polynomial
        # differences.
        cell = load_default_cell()
        vt = thermal_voltage(cell.temperature_c)
        p_a = gate_polynomial(cell.nmos, cell.vwl, vt, vth_a)
        p_b = gate_polynomial(cell.nmos, cell.vwl, vt, vth_b)
        t_a = write_time_closed(cell, vth_a)
        t_b = write_time_closed(cell, vth_b)
        assert t_b == pytest.approx(t_a * math.exp(p_a - p_b), rel=1e-12, abs=0)

    def test_trip_near_start_voltage_shrinks_time(self, quiet_nmos):
        # With vddc raised, v_trip can legally sit just under the write start
        # voltage; the integration interval collapses and so does the time.
        wide = make_cell(quiet_nmos, vddc=0.82, v_trip=0.35)
        narrow = make_cell(quiet_nmos, vddc=0.82, v_trip=0.4999)
        t_wide = write_time_closed(wide, 0.38)
        t_narrow = write_time_closed(narrow, 0.38)
        assert t_narrow < 1e-2 * t_wide

    def test_monotone_in_vth_and_vwl(self, default_cell):
        grid = np.linspace(0.30, 0.46, 100)
        t = write_time_closed(default_cell, grid)
        assert np.all(np.diff(t) > 0.0)
        boosted = dataclasses.replace(default_cell, vwl=0.55)
        assert write_time_closed(boosted, 0.38) < write_time_closed(default_cell, 0.38)

    def test_vectorized_matches_scalar(self, default_cell):
        grid = np.array([0.34, 0.38, 0.42])
        vec = write_time_closed(default_cell, grid)
        assert vec.shape == (3,)
        for i, vth in enumerate(grid):
            assert vec[i] == write_time_closed(default_cell, float(vth))


class TestWriteTimeOde:
    def test_golden_default_cell(self, default_cell):
        t_max = default_write_t_max(default_cell)
        t = write_time_ode(
            default_cell, default_cell.nmos.vth_nominal,
            default_cell.pmos.vth_nominal, t_max,
        )
        assert t == pytest.approx(DEFAULT_WRITE_ODE_TRUTH, rel=1e-12, abs=0)

    def test_rk4_reference_golden(self, default_cell):
        t_max = default_write_t_max(default_cell)
        t = write_time_rk4(
            default_cell, default_cell.nmos.vth_nominal,
            default_cell.pmos.vth_nominal, t_max,
        )
        assert t == pytest.approx(DEFAULT_WRITE_ODE_RK4, rel=1e-12, abs=0)
        # fixed-step value sits within 0.5% of the adaptive reference
        assert abs(t - DEFAULT_WRITE_ODE_TRUTH) / DEFAULT_WRITE_ODE_TRUTH < 5e-3

    def test_closed_form_gap_is_pinned(self, default_cell):
        t_max = default_write_t_max(default_cell)
        ode = write_time_ode(default_cell, 0.38, 0.38, t_max)
        closed = write_time_closed(default_cell, 0.38)
        assert abs(closed - ode) / ode == pytest.approx(DEFAULT_WRITE_GAP, rel=1e-12, abs=0)

    def test_matches_rk4_at_c04_horizon(self):
        rng = np.random.default_rng(20260818)  # the C04 configurations
        worst = 0.0
        for _ in range(100):
            cell, vth_n, vth_p = draw_write_config(rng)
            t_max = 30.0 * write_time_closed(cell, vth_n)
            exact = write_time_ode(cell, vth_n, vth_p, t_max)
            worst = max(worst, abs(exact - write_time_rk4(cell, vth_n, vth_p, t_max)) / exact)
        assert worst < 1e-6

    @pytest.mark.parametrize("dibl", [0.02, -0.3])  # minimum of h_n/h_p at v_trip, interior
    def test_near_critical_lanes_match_quadrature(self, quiet_nmos, dibl):
        cell = make_cell(dataclasses.replace(quiet_nmos, dibl=dibl),
                         pmos=dataclasses.replace(weak_pmos(), dibl=dibl))
        nm, pm = cell.nmos, cell.pmos
        vt = thermal_voltage(cell.temperature_c)

        def drives(v):
            return (_current_proposed(nm, cell.vwl, v, vt, cell.vwl),
                    _current_proposed(pm, cell.vddc, cell.vddc - v, vt, cell.vddc))

        def slope_log_ratio(v):  # d/dv log(h_n/h_p), from the model's factors
            a_n, a_p = nm.k1 / vt, pm.k1 / vt
            return (nm.dibl / (nm.n * vt) + pm.dibl / (pm.n * vt)
                    + a_n / math.expm1(a_n * v) + a_p / math.expm1(a_p * (cell.vddc - v)))

        v_star = cell.v_trip
        if slope_log_ratio(v_star) < 0.0:
            v_star = brentq(slope_log_ratio, cell.v_trip, cell.vddc - 1e-6, xtol=1e-15)
            assert v_star > cell.v_trip + 0.1
        h_n, h_p = drives(v_star)
        r_crit = h_n / h_p
        # a grid minimum alone would overestimate an interior minimum
        assert _critical_ratio(cell, drives)[0] == pytest.approx(r_crit, rel=1e-13, abs=0)
        p_p = gate_polynomial(pm, cell.vddc, vt, 0.38)

        def lane(frac):  # vth_n putting r = exp(p_p - p_n) at frac * r_crit
            return brentq(lambda v: p_p - gate_polynomial(nm, cell.vwl, vt, v)
                          - math.log(frac * r_crit), 0.2, 1.0, xtol=1e-15, rtol=1e-15)

        fracs = [0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6]
        vth_n = np.array([lane(f) for f in fracs] + [lane(1 + 1e-9)])
        t = write_time_ode(cell, vth_n, 0.38, 1.0)
        assert t[-1] == math.inf  # just past r_crit the pull-up holds the node
        for vn, got in zip(vth_n[:-1], t[:-1]):
            p_n = gate_polynomial(nm, cell.vwl, vt, vn)
            r = math.exp(p_p - p_n)
            with warnings.catch_warnings():  # cancellation near r_crit caps quad's accuracy
                warnings.simplefilter("ignore", IntegrationWarning)
                w, _ = quad(lambda v: 1.0 / (drives(v)[0] - r * drives(v)[1]),
                            cell.v_trip, cell.vdd, epsabs=0.0, epsrel=1e-12, limit=500,
                            points=[v_star] if v_star > cell.v_trip else None)
            assert got == pytest.approx(cell.c_q * math.exp(-p_n) * w, rel=1e-9, abs=0)

    def test_quadrature_fallback_at_r_crit_is_silent(self, default_cell, monkeypatch):
        cell = default_cell
        nm, pm = cell.nmos, cell.pmos
        vt = thermal_voltage(cell.temperature_c)

        def drives(v):
            return (_current_proposed(nm, cell.vwl, v, vt, cell.vwl),
                    _current_proposed(pm, cell.vddc, np.clip(cell.vddc - v, 0.0, None),
                                      vt, cell.vddc))

        r_crit, _ = _critical_ratio(cell, drives)
        target = gate_polynomial(nm, cell.vwl, vt, 0.38) + math.log((1 - 1e-10) * r_crit)
        vth_p = brentq(lambda v: gate_polynomial(pm, cell.vddc, vt, v) - target, 0.0, 1.0,
                       xtol=1e-15, rtol=1e-15)
        calls = []
        monkeypatch.setattr(transients, "quad", lambda *a, **k: calls.append(1) or quad(*a, **k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # quad's roundoff IntegrationWarning included
            t = write_time_ode(cell, 0.38, vth_p, 1.0)
        assert calls and math.isfinite(t)

    def test_t_max_must_be_positive(self, default_cell):
        with pytest.raises(DomainError, match="t_max"):
            write_time_ode(default_cell, 0.38, 0.38, 0.0)

    def test_censoring_returns_inf(self, default_cell):
        # horizon shorter than the crossing time
        assert write_time_ode(default_cell, 0.38, 0.38, 1e-12) == math.inf
        # access device switched off entirely
        assert write_time_ode(default_cell, 5.0, 0.38, 1e-9) == math.inf

    def test_pullup_winning_at_start_censors(self, quiet_nmos):
        cell = make_cell(quiet_nmos, pmos=weak_pmos(i0=1e-3))
        assert write_time_ode(cell, 0.38, 0.38, 1e-9) == math.inf

    def test_monotone_in_vth_n(self, default_cell):
        t_max = default_write_t_max(default_cell)
        grid = np.linspace(0.32, 0.42, 50)
        t = write_time_ode(default_cell, grid, 0.38, t_max)
        assert np.all(np.isfinite(t))
        assert np.all(np.diff(t) > 0.0)
        # past the contention wall the pull-up never loses: censored, not slow
        assert write_time_ode(default_cell, 0.44, 0.38, t_max) == math.inf

    def test_weaker_pullup_writes_faster(self, default_cell):
        t_max = default_write_t_max(default_cell)
        fast = write_time_ode(default_cell, 0.38, 0.45, t_max)
        slow = write_time_ode(default_cell, 0.38, 0.31, t_max)
        assert fast < slow

    def test_broadcasting(self, default_cell):
        t_max = default_write_t_max(default_cell)
        grid = np.array([0.36, 0.38, 0.40])
        vec = write_time_ode(default_cell, grid, 0.38, t_max)
        assert vec.shape == (3,)
        for i, vth in enumerate(grid):
            assert vec[i] == write_time_ode(default_cell, float(vth), 0.38, t_max)


class TestDefaultWriteTMax:
    def test_hundredfold_nominal(self, default_cell):
        nominal = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        assert default_write_t_max(default_cell) == pytest.approx(100.0 * nominal, abs=0)
        assert default_write_t_max(default_cell, factor=30.0) == pytest.approx(
            30.0 * nominal
        )
