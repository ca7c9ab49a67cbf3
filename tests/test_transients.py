"""Read-discharge and write-transition oracles.

Golden values marked "independent oracle" were frozen from a 40-digit
mpmath evaluation of the same balance equations (separated-variables
closed form, high-order integration for the ODE paths) done before this
suite existed; the implementation has to land on them, not the reverse.
"""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar

from sramyield import transients
from sramyield.artifacts import write_json
from sramyield.cli import _sweep_cell
from sramyield.devices import (
    EXP_ARG_LIMIT,
    DeviceParams,
    _current_proposed,
    gate_polynomial,
    thermal_voltage,
)
from sramyield.errors import DomainError, ModelInapplicableError, ParseError
from sramyield.mc import draw_access_samples, draw_write_samples
from sramyield.transients import (
    AssistConfig,
    CellConfig,
    _critical_ratio,
    _fminbound,
    apply_assist,
    default_write_t_max,
    delta_v_closed,
    delta_v_ode,
    load_default_cell,
    read_cell_json,
    read_time_closed,
    write_time_closed,
    write_time_ode,
)

from rk4_reference import delta_v_rk4, write_time_rk4
from test_acceptance import draw_write_config

# Independent-oracle goldens, default desk cell at nominal thresholds.
DEFAULT_T_READ = 1.11e-10
DEFAULT_DV_CLOSED = 0.09992827546439512
DEFAULT_DV_ODE = 0.09988636793057157
DEFAULT_WRITE_ODE_TRUTH = 1.0315710876791450e-11  # adaptive high-order integration
DEFAULT_WRITE_ODE_RK4 = 1.0315844561413406e-11  # the RK4 reference's fixed-step result
DEFAULT_WRITE_RK4_T_MAX = 1.2147935852184221e-09  # the horizon that RK4 result was run to

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
        write_json(path, default_cell.to_dict())
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

    @pytest.mark.parametrize("device, dibl, vddc", [
        ("nmos", 1e5, 0.5), ("pmos", 1e5, 0.5), ("pmos", -1e5, 0.45)])
    def test_overflowing_drain_factor_rejected_at_build(self, default_cell, device, dibl,
                                                       vddc):
        # vds of the pull-up spans [vddc - vdd, vddc - v_trip]: with vddc below vdd a
        # negative lambda overflows at the vdd end
        dev = dataclasses.replace(getattr(default_cell, device), dibl=dibl)
        with pytest.raises(DomainError, match=f"^{device} drain-bias factor .* overflows"):
            dataclasses.replace(default_cell, vddc=vddc, **{device: dev})

    def test_trip_integral_on_first_read(self, default_cell, monkeypatch):
        # a build and a read-only cell never evaluate the drives; a write cell does once
        calls = []
        drives = transients._drives
        monkeypatch.setattr(transients, "_drives",
                            lambda *args: calls.append(args) or drives(*args))
        cell = dataclasses.replace(default_cell, vwl=0.6)
        assert calls == []
        assert delta_v_closed(cell, 0.38, 1e-10) > 0.0 and calls == []
        w = cell.w_trip
        assert len(calls) == 1
        assert write_time_closed(cell, 0.38) > 0.0 and cell.w_trip == w and len(calls) == 1


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


class TestReadTimeClosed:
    @pytest.mark.parametrize("dibl", [0.02, 0.0, -0.02])
    def test_round_trip(self, quiet_nmos, dibl):
        cell = make_cell(dataclasses.replace(quiet_nmos, dibl=dibl))
        for vth in (0.33, 0.38, 0.43):
            for dv in (1e-3, 0.05, 0.2, 0.45):
                t = read_time_closed(cell, vth, dv)
                assert delta_v_closed(cell, vth, t) == pytest.approx(dv, rel=1e-13, abs=0)

    def test_round_trip_with_clipped_polynomial(self, quiet_nmos):
        nm = dataclasses.replace(quiet_nmos, k2=0.0)
        cell = make_cell(nm)
        vt = thermal_voltage(cell.temperature_c)
        for vth in (-5.0, 6.0):  # gate polynomial beyond +60 and below -60
            assert abs(gate_polynomial(nm, cell.vwl, vt, vth)) > EXP_ARG_LIMIT
            t = read_time_closed(cell, vth, 0.1)
            assert delta_v_closed(cell, vth, t) == pytest.approx(0.1, rel=1e-13, abs=0)

    def test_array_matches_scalar(self, default_cell):
        vth = np.array([0.33, 0.38, 0.43])
        t = read_time_closed(default_cell, vth, 0.1)
        assert t.tolist() == [read_time_closed(default_cell, v, 0.1) for v in vth]
        assert np.all(np.diff(t) > 0.0)

    def test_golden_default_cell(self, default_cell):
        t = read_time_closed(default_cell, default_cell.nmos.vth_nominal, DEFAULT_DV_CLOSED)
        assert t == pytest.approx(DEFAULT_T_READ, rel=1e-13, abs=0)


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


class TestReadTable:
    """CellConfig.read_table: the scaled-time table every delta_v_ode call on
    a cell reads, and the lane chunks that read it."""

    # sha256 of delta_v_ode's float64 bytes on access lanes [0, 2e5) of the
    # bundled cell and variation, from the oracle that rebuilt its table on
    # every call and summed its quadrature nodes one lane array at a time.
    PINNED = {
        5e-11: "2f32e08d2856242bc9396ec63d031429ea406ea05786d067e8355a3a34796a1c",
        1.11e-10: "b555d4ce1bcb77e6d25216be8e626c4c6371d828d36fff2a4c51acf94d66c5b2",
        3e-10: "cc12ad4166df54779c01e4cbab85e87ffe22bb0965d2115b9cfa0521ff637c94",
    }

    @pytest.mark.parametrize("t_read", list(PINNED), ids=str)
    def test_bundled_lanes_are_pinned(self, default_cell, default_variation, t_read):
        vth_n, _ = draw_access_samples(default_variation, 0, 200_000)
        dv = delta_v_ode(default_cell, vth_n, t_read)
        assert hashlib.sha256(dv.tobytes()).hexdigest() == self.PINNED[t_read]

    def test_lanes_are_independent_of_chunking(self, default_cell, default_variation):
        chunk = transients._READ_CHUNK
        n = 2 * chunk + 3
        vth_n, _ = draw_access_samples(default_variation, 0, n)
        t = np.geomspace(0.1, 10.0, n) * DEFAULT_T_READ
        whole = delta_v_ode(default_cell, vth_n, t)
        for cuts in ([0, chunk, 2 * chunk, n], [0, 5, chunk + 7, n]):
            parts = [delta_v_ode(default_cell, vth_n[a:b], t[a:b])
                     for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.concatenate(parts).tolist() == whole.tolist()
        assert [delta_v_ode(default_cell, v, u) for v, u in zip(vth_n.tolist(), t.tolist())] \
            == whole.tolist()
        for i in (0, chunk - 1, chunk, n - 1):
            assert delta_v_ode(default_cell, vth_n[i:i + 1], t[i:i + 1]).tolist() == [whole[i]]
        # n = 5 * 1639: a 2-D call gives the same lanes in the same shape
        grid = delta_v_ode(default_cell, vth_n.reshape(5, -1), t.reshape(5, -1))
        assert grid.shape == (5, n // 5) and grid.ravel().tolist() == whole.tolist()

    def test_computed_once_per_cell(self, default_cell, monkeypatch):
        calls = []
        build = transients._read_table
        monkeypatch.setattr(transients, "_read_table",
                            lambda cell: calls.append(cell) or build(cell))
        cell = dataclasses.replace(default_cell)  # nothing cached yet
        first = delta_v_ode(cell, [0.36, 0.38], DEFAULT_T_READ)
        assert len(calls) == 1
        again = delta_v_ode(cell, [0.36, 0.38], DEFAULT_T_READ)
        assert delta_v_ode(cell, 0.40, 10.0 * DEFAULT_T_READ) > 0.0 and len(calls) == 1
        assert first.tolist() == again.tolist()

    @pytest.mark.parametrize("cell_name", ["default_cell", "svt_read_cell"])
    def test_holds_the_panel_integrals(self, request, cell_name):
        # recomputed as delta_v_ode once did on every call: the full model's
        # current at vth = vwl, one node at a time over all panels
        cell = request.getfixturevalue(cell_name)
        edges, table = dataclasses.replace(cell).read_table
        nm, vt = cell.nmos, thermal_voltage(cell.temperature_c)
        ref_edges = cell.vdd * np.exp2(np.linspace(0.0, -52.0, transients._READ_PANELS + 1))
        lo, hi = ref_edges[1:], ref_edges[:-1]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        acc = 0.0
        for x, w in zip(*transients._GAUSS[8]):
            acc = acc + w * (1.0 / _current_proposed(nm, cell.vwl, mid + half * x, vt, cell.vwl))
        assert edges.tolist() == ref_edges.tolist()
        assert table.tolist() == np.concatenate(([0.0], np.cumsum(half * acc))).tolist()


@pytest.mark.parametrize("oracle", [delta_v_closed, delta_v_ode])
def test_nan_read_time_rejected(default_cell, oracle):
    with pytest.raises(DomainError, match="t_read"):
        oracle(default_cell, 0.38, math.nan)
    with pytest.raises(DomainError, match="t_read"):
        oracle(default_cell, np.array([0.38, 0.39]), np.array([1e-10, math.nan]))


class TestWriteTimeClosed:
    def test_golden_default_cell(self, default_cell):
        # the exact write integral at nominal thresholds
        t = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        assert t == pytest.approx(DEFAULT_WRITE_ODE_TRUTH, rel=1e-12, abs=0)

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


class TestCellBatches:
    """The closed forms over a sequence of cells: every lane has the bits it
    gets in a call for its cell alone."""

    @staticmethod
    def cells(base, quiet_nmos):
        return [
            base,
            dataclasses.replace(base, vwl=0.45),
            dataclasses.replace(base, vddc=0.45),  # the pull-up kink on the write path
            dataclasses.replace(base, vdd=0.6, vwl=0.6, vddc=0.6, v_trip=0.3),
            dataclasses.replace(base, temperature_c=85.0),
            make_cell(quiet_nmos, vddc=0.82, v_trip=0.35),  # kink beyond vdd
            dataclasses.replace(base, nmos=dataclasses.replace(base.nmos, dibl=0.0)),
        ]

    def test_delta_v_and_read_time(self, default_cell, quiet_nmos):
        cells = self.cells(default_cell, quiet_nmos)
        vth = np.linspace(0.3, 0.46, 9)
        t = np.geomspace(2e-11, 4e-10, 9)
        per_cell_t = np.outer(np.linspace(0.5, 2.0, len(cells)), t)
        batch, shared = delta_v_closed(cells, vth, per_cell_t), delta_v_closed(cells, vth, t)
        dv = np.array([0.02, 0.1, 0.3])
        ends = read_time_closed(cells, None, dv)
        assert batch.shape == shared.shape == (len(cells), 9) and ends.shape == (len(cells), 3)
        for i, cell in enumerate(cells):
            assert batch[i].tolist() == delta_v_closed(cell, vth, per_cell_t[i]).tolist()
            assert shared[i].tolist() == delta_v_closed(cell, vth, t).tolist()
            assert ends[i].tolist() == read_time_closed(cell, None, dv).tolist()

    def test_write_time_and_trip_integral(self, default_cell, quiet_nmos):
        cells = self.cells(default_cell, quiet_nmos)
        vth = np.linspace(0.3, 0.46, 9)
        batch = write_time_closed(cells, vth)
        w = transients._trip_integrals(cells)
        for i, cell in enumerate(cells):
            fresh = dataclasses.replace(cell)  # w_trip not yet computed
            assert batch[i].tolist() == write_time_closed(fresh, vth).tolist()
            assert w[i] == fresh.w_trip

    def test_first_failing_cell_raises(self, default_cell, quiet_nmos):
        overpowered = make_cell(quiet_nmos, pmos=weak_pmos(i0=1e-4))
        with pytest.raises(ModelInapplicableError, match="pull-up overpowers"):
            write_time_closed([default_cell, overpowered, default_cell], 0.38)

    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(-10.0, 10.0),
           span=st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 5e-324, 1e-310])),
           num=st.integers(2, 1100))
    def test_linspace_is_numpys(self, start, span, num):
        ref = np.linspace(start, start + span, num)
        assert transients._linspace(start, start + span, num).tolist() == ref.tolist()
        column = np.array([[start], [start + 1.0]])
        rows = transients._linspace(column, column + span, num)
        assert rows[0].tolist() == ref.tolist()
        assert rows[1].tolist() == np.linspace(start + 1.0, start + 1.0 + span, num).tolist()


class TestWriteTimeOde:
    def test_golden_default_cell(self, default_cell):
        t_max = default_write_t_max(default_cell)
        t = write_time_ode(
            default_cell, default_cell.nmos.vth_nominal,
            default_cell.pmos.vth_nominal, t_max,
        )
        assert t == pytest.approx(DEFAULT_WRITE_ODE_TRUTH, rel=1e-12, abs=0)

    def test_rk4_reference_golden(self, default_cell):
        t = write_time_rk4(
            default_cell, default_cell.nmos.vth_nominal,
            default_cell.pmos.vth_nominal, DEFAULT_WRITE_RK4_T_MAX,
        )
        assert t == pytest.approx(DEFAULT_WRITE_ODE_RK4, rel=1e-12, abs=0)
        # fixed-step value sits within 0.5% of the adaptive reference
        assert abs(t - DEFAULT_WRITE_ODE_TRUTH) / DEFAULT_WRITE_ODE_TRUTH < 5e-3

    def test_closed_form_gap_is_pinned(self, default_cell):
        # at nominal thresholds the closed form is the exact integral
        t_max = default_write_t_max(default_cell)
        ode = write_time_ode(default_cell, 0.38, 0.38, t_max)
        closed = write_time_closed(default_cell, 0.38)
        assert closed == pytest.approx(ode, rel=1e-14, abs=0)

    def test_closed_equals_exact_at_nominal_on_c04_configs(self):
        rng = np.random.default_rng(20260818)  # the C04 configurations
        for _ in range(100):
            cell, _, _ = draw_write_config(rng)
            vth_n, vth_p = cell.nmos.vth_nominal, cell.pmos.vth_nominal
            closed = write_time_closed(cell, vth_n)
            exact = write_time_ode(cell, vth_n, vth_p, 1.0)
            assert closed == pytest.approx(exact, rel=1e-13, abs=0)

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
        assert _critical_ratio(cell)[0] == pytest.approx(r_crit, rel=1e-13, abs=0)
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
        r_crit, _ = _critical_ratio(cell)
        target = gate_polynomial(nm, cell.vwl, vt, 0.38) + math.log((1 - 1e-10) * r_crit)
        vth_p = brentq(lambda v: gate_polynomial(pm, cell.vddc, vt, v) - target, 0.0, 1.0,
                       xtol=1e-15, rtol=1e-15)
        calls = []
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *a, **k: calls.append(1) or quad(*a, **k))
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


class TestWritePath:
    """CellConfig.write_path: what every write_time_ode call on a cell shares."""

    # sha256 of write_time_ode's float64 bytes on write lanes [0, 2e5) of the
    # bundled cell and variation, from the oracle before the per-cell cache
    # and the bounded-Brent port; None is the default horizon.
    PINNED = {
        1e-11: "f307465bf9d3a7d8b34b57c2dfc1717829eae201755ba4033c8a5900696d52a4",
        2.2e-11: "81693234b87229a9ac059636ffd3c3ff749f53f36ec11eeafeffa3561b4264ce",
        None: "45d2cb457ab94304d2c953e3ead5352f138d03d15a6ccdfb8b0a120f9cb6b338",
    }

    @pytest.mark.parametrize("t_max", list(PINNED), ids=str)
    def test_bundled_lanes_are_pinned(self, default_cell, default_variation, t_max):
        vth_n, vth_p = draw_write_samples(default_variation, 0, 200_000)
        horizon = default_write_t_max(default_cell) if t_max is None else t_max
        t = write_time_ode(default_cell, vth_n, vth_p, horizon)
        assert hashlib.sha256(t.tobytes()).hexdigest() == self.PINNED[t_max]

    def test_lanes_are_independent_of_chunking(self, default_cell, default_variation):
        chunk = transients._WRITE_CHUNK
        n = 2 * chunk + 3
        vth_n, vth_p = draw_write_samples(default_variation, 0, n)
        t_max = default_write_t_max(default_cell)
        whole = write_time_ode(default_cell, vth_n, vth_p, t_max)
        assert np.isinf(whole).any() and np.isfinite(whole).any()
        for cuts in ([0, chunk, 2 * chunk, n], [0, 5, chunk + 7, n]):
            parts = [write_time_ode(default_cell, vth_n[a:b], vth_p[a:b], t_max)
                     for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.concatenate(parts).tolist() == whole.tolist()
        for i in (0, chunk - 1, chunk, n - 1):
            assert write_time_ode(default_cell, float(vth_n[i]), float(vth_p[i]), t_max) == whole[i]

    def test_computed_once_per_cell(self, default_cell, monkeypatch):
        calls = []
        critical = transients._critical_ratio
        monkeypatch.setattr(transients, "_critical_ratio",
                            lambda cell: calls.append(cell) or critical(cell))
        cell = dataclasses.replace(default_cell)  # nothing cached yet
        t_max = default_write_t_max(cell)
        first = write_time_ode(cell, [0.36, 0.38], 0.38, t_max)
        assert len(calls) == 1
        again = write_time_ode(cell, [0.36, 0.38], 0.38, t_max)
        assert write_time_ode(cell, 0.40, 0.38, t_max) > 0.0 and len(calls) == 1
        assert first.tolist() == again.tolist()

    def test_holds_what_write_time_ode_reads(self, default_cell):
        path = dataclasses.replace(default_cell).write_path
        r_crit, v_star = _critical_ratio(default_cell)
        cuts = [v for v in (default_cell.vddc, v_star)
                if default_cell.v_trip < v < default_cell.vdd]
        assert path.r_crit == r_crit and path.cuts == cuts
        c = transients._columns(default_cell)
        assert path.c == c
        edges = transients._write_edges(default_cell, cuts, v_star)
        assert len(path.rules) == 2
        for order, (w, h_n, h_p) in zip((8, 16), path.rules):
            nodes, ref_w = transients._composite_rule(edges, order)
            ref_n, ref_p = transients._drives(c, nodes)
            assert w.tolist() == ref_w.tolist()
            assert h_n.tolist() == ref_n.tolist() and h_p.tolist() == ref_p.tolist()


class TestFminboundPort:
    """The bounded minimiser of _critical_ratio against scipy's
    minimize_scalar(method="bounded"): x, f(x) and every evaluation point."""

    @staticmethod
    def both(f, lo, hi, xatol):
        """(port result, its evaluation points, scipy result, its points)."""
        port_calls, ref_calls = [], []
        port = _fminbound(lambda x: port_calls.append(x) or f(x), lo, hi, xatol)
        with np.errstate(all="ignore"):  # scipy's numpy scalars meet inf and nan values
            ref = minimize_scalar(lambda x: ref_calls.append(x) or f(x), bounds=(lo, hi),
                                  method="bounded", options={"xatol": xatol})
        return port, port_calls, (ref.x, ref.fun), ref_calls

    def assert_same(self, f, lo, hi, xatol):
        port, port_calls, ref, ref_calls = self.both(f, lo, hi, xatol)
        assert np.array_equal(port, ref, equal_nan=True)
        assert port_calls == ref_calls
        return port_calls

    def checked_critical_ratio(self, cells, monkeypatch):
        """_critical_ratio of each cell, every minimisation it runs checked."""
        port = transients._fminbound
        seen = []

        def checked(f, lo, hi, xatol):
            seen.append(lo)
            self.assert_same(f, lo, hi, xatol)
            return port(f, lo, hi, xatol)

        monkeypatch.setattr(transients, "_fminbound", checked)
        for cell in cells:
            _critical_ratio(cell)
        return len(seen)

    def test_bundled_cell(self, default_cell, monkeypatch):
        assert self.checked_critical_ratio([default_cell], monkeypatch) == 1

    @pytest.mark.parametrize("axis, values", [
        ("vdd", np.linspace(0.7, 0.35, 351)),  # the design benchmark's sweeps
        ("vwl", np.linspace(0.65, 0.45, 81)),
    ])
    def test_design_sweep_cells(self, default_cell, monkeypatch, axis, values):
        cells = [_sweep_cell(default_cell, axis, float(f"{v:.4f}")) for v in values]
        assert self.checked_critical_ratio(cells, monkeypatch) == len(cells)

    OBJECTIVES = {
        "quadratic": lambda x, c, s: s * s * (x - c) ** 2 - c,
        "cos": lambda x, c, s: math.cos(8.0 * s * x + c),
        "flat": lambda x, c, s: max(abs(x - c) - 0.3 * abs(s), 0.0),
        "steps": lambda x, c, s: math.floor(4.0 * (x - c) ** 2),  # ties within a step
        "monotone": lambda x, c, s: s * x,  # minimum at an end
        "exp": lambda x, c, s: math.exp(s * (x - c)),
        "constant": lambda x, c, s: c,
        "kink": lambda x, c, s: abs(s) * abs(x - c),
        "quartic": lambda x, c, s: s * s * (x - c) ** 4,
        "wall": lambda x, c, s: math.inf if x > c else (x - c + s) ** 2,  # h_p = 0 at vddc
        "nan": lambda x, c, s: math.nan if x > c else s * x,
    }

    @settings(max_examples=600, deadline=None)
    @given(kind=st.sampled_from(sorted(OBJECTIVES)), c=st.floats(-2.0, 2.0),
           s=st.floats(-3.0, 3.0), lo=st.floats(-2.0, 2.0),
           width=st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, 1e-300, 1e-12])),
           xatol=st.sampled_from([0.0, 1e-15, 1e-8, 1e-5, 0.1]))
    def test_matches_scipy_on_synthetic_objectives(self, kind, c, s, lo, width, xatol):
        objective = self.OBJECTIVES[kind]
        self.assert_same(lambda x: objective(x, c, s), lo, lo + width, xatol)

    @pytest.mark.parametrize("xatol", [1e-5, 0.1])
    def test_first_stopping_test_at_its_threshold(self, xatol):
        # brackets about 1.0787 * xatol wide stop before the first step or take it
        for width in np.linspace(1.07, 1.09, 41) * xatol:
            self.assert_same(lambda x: (x - 0.3 * xatol) ** 2, 0.0, float(width), xatol)

    def test_degenerate_bracket_evaluates_once(self):
        calls = self.assert_same(lambda x: (x - 1.0) ** 2, 0.25, 0.25, 1e-15)
        assert calls == [0.25]

    def test_evaluation_cap(self):
        # |x| with xatol = 0 shrinks towards 0 without ever meeting the tolerance
        calls = self.assert_same(abs, -1.0, 1.0, 0.0)
        assert len(calls) == transients._FMINBOUND_MAX_EVALS == 500


class TestDefaultWriteTMax:
    def test_hundredfold_nominal(self, default_cell):
        nominal = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        assert default_write_t_max(default_cell) == pytest.approx(100.0 * nominal, abs=0)
        assert default_write_t_max(default_cell, factor=30.0) == pytest.approx(
            30.0 * nominal
        )
