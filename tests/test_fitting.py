"""Parameter-extraction tests: datasets, masks, error stats, and the fitter.

The noisy-recovery bound (NOISY_RECOVERY_BOUND) is a regression pin: the
worst per-field relative error observed on the first run of the fixed-seed
noisy round trip, rounded up one digit.
"""

import contextlib
import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from sramyield import DomainError, FitOptions, IVDataset, ParseError, fitting
from sramyield.devices import load_device_table, thermal_voltage
from sramyield.fitting import (
    IV_CSV_HEADER,
    _least_squares,
    default_init,
    error_stats,
    fit_device,
    generate_iv_grid,
    mismatch_field,
    model_currents,
    read_iv_csv,
    saturation_mask,
    write_iv_csv,
)

VGS_GRID = np.round(np.arange(0.0, 0.7001, 0.01), 10)
VDS_GRID = np.round(np.arange(0.02, 0.7001, 0.02), 10)
NOISY_RECOVERY_BOUND = 0.0062  # observed 6.154e-3 worst field at seed 7
BUNDLED_IV = str(resources.files("sramyield.data").joinpath("nch_svt_iv.csv"))
# Fits of the bundled CSV from default_init(vth_nominal=0.35), without and
# with the swing factor n: every float of fit.json and the evaluation count,
# exactly, as scipy's least_squares first gave them, so that no change of
# solver or library moves fit.json silently.
BUNDLED_FITS = {
    False: {"i0": 2.2963764219979356e-05, "k1": 0.14165349469583163,
            "k2": -0.002874679976710075, "dibl": -0.0013896636446247414, "n": 1.5,
            "max_rel_error_sat": 0.03353527253475888,
            "avg_rel_error_sat": 0.012484545541686626,
            "residual_norm": 0.7872363962176288, "iterations": 7},
    True: {"i0": 2.2937380370053008e-05, "k1": 0.14185055326076737,
           "k2": -0.002882739809701571, "dibl": -0.001325928096097241,
           "n": 1.5021013273478607, "max_rel_error_sat": 0.03362821142340961,
           "avg_rel_error_sat": 0.012481864349271107,
           "residual_norm": 0.7872241732835872, "iterations": 11},
}


def make_grid(params, **kw):
    return generate_iv_grid(params, VGS_GRID, VDS_GRID, **kw)


def perturbed_init(params):
    """A +-20% starting point that stays inside the construction invariants."""
    return dataclasses.replace(
        params, i0=params.i0 * 0.8, k1=params.k1 * 1.2, k2=params.k2 * 0.8,
        dibl=params.dibl * 1.2,
    )


class TestDatasetValidation:
    def test_rejects_negative_current(self):
        with pytest.raises(DomainError, match="negative"):
            IVDataset(vgs=[0.1] * 40, vds=[0.1] * 40, ids=[-1e-9] * 40,
                      temp_c=[25.0] * 40)

    def test_rejects_bias_above_one_volt(self):
        with pytest.raises(DomainError, match="outside"):
            IVDataset(vgs=[1.2] * 40, vds=[0.1] * 40, ids=[1e-9] * 40,
                      temp_c=[25.0] * 40)

    def test_requires_a_vgs_sweep(self):
        # 40 distinct vds values but never 20 vgs points at one vds
        vds = np.linspace(0.05, 0.7, 40)
        with pytest.raises(DomainError, match="vgs sweep"):
            IVDataset(vgs=np.linspace(0, 0.7, 40), vds=vds,
                      ids=np.full(40, 1e-9), temp_c=np.full(40, 25.0))

    def test_requires_a_vds_sweep(self):
        vgs = np.linspace(0.0, 0.7, 25)
        with pytest.raises(DomainError, match="vds sweep"):
            IVDataset(vgs=vgs, vds=np.full(25, 0.5),
                      ids=np.full(25, 1e-9), temp_c=np.full(25, 25.0))

    def test_full_grid_passes(self, device_table):
        data = make_grid(device_table["nch_svt"])
        assert len(data) == VGS_GRID.size * VDS_GRID.size


class TestCsvRoundTrip:
    def test_round_trip_preserves_values_exactly(self, tmp_path, device_table):
        data = make_grid(device_table["nch_svt"], mismatch_amplitude=0.03)
        path = tmp_path / "iv.csv"
        write_iv_csv(data, path, comment="round trip fixture")
        back = read_iv_csv(path)
        assert np.array_equal(back.vgs, data.vgs)
        assert np.array_equal(back.ids, data.ids)

    def test_comment_lines_are_ignored(self, tmp_path):
        path = tmp_path / "iv.csv"
        rows = "\n".join(
            f"0.{i:02d},0.5,1e-9,25.0" for i in range(25)
        )
        extra = "\n".join(f"0.5,0.{i:02d},1e-9,25.0" for i in range(1, 25))
        path.write_text(f"# generated\nvgs,vds,ids,temp_c\n{rows}\n{extra}\n")
        data = read_iv_csv(path)
        assert len(data) == 49

    def test_wrong_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("a,b,c,d\n0.1,0.1,1e-9,25\n")
        with pytest.raises(ParseError, match="header"):
            read_iv_csv(path)

    def test_header_only_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text(",".join(IV_CSV_HEADER) + "\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_iv_csv(path)

    def test_non_numeric_cell_is_a_parse_error(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("vgs,vds,ids,temp_c\n0.1,0.1,oops,25\n")
        with pytest.raises(ParseError, match=":2:"):
            read_iv_csv(path)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            read_iv_csv(tmp_path / "absent.csv")


def with_probe_points(base_params, probes):
    """A valid grid dataset with extra (vgs, vds) probe rows prepended."""
    grid = make_grid(base_params)
    pv = np.array([p[0] for p in probes])
    pd = np.array([p[1] for p in probes])
    return IVDataset(
        vgs=np.concatenate([pv, grid.vgs]),
        vds=np.concatenate([pd, grid.vds]),
        ids=np.concatenate([np.full(len(probes), 1e-9), grid.ids]),
        temp_c=np.full(len(probes) + len(grid), 25.0),
    )


class TestSaturationMask:
    def test_point_above_pinchoff_included(self, device_table):
        svt = device_table["nch_svt"]  # vth 0.35
        data = with_probe_points(svt, [(0.6, 0.30), (0.6, 0.20)])
        mask = saturation_mask(data, svt)
        assert bool(mask[0])   # 0.30 > 0.6 - 0.35
        assert not bool(mask[1])  # 0.20 < 0.25

    def test_subthreshold_floor_is_three_thermal_voltages(self, device_table):
        svt = device_table["nch_svt"]
        floor = 3.0 * thermal_voltage(25.0)  # ~77 mV
        data = with_probe_points(svt, [(0.30, 0.10)])
        assert 0.10 > floor
        assert bool(saturation_mask(data, svt)[0])

    def test_empty_mask_is_an_error(self, device_table):
        svt = device_table["nch_svt"]
        # grid confined to vds <= 25 mV: below 3*vt everywhere, below
        # pinch-off for every above-threshold vgs
        low_vds = np.round(np.linspace(0.001, 0.025, 25), 6)
        data = generate_iv_grid(svt, VGS_GRID, low_vds)
        with pytest.raises(DomainError, match="extend the vds sweep"):
            saturation_mask(data, svt)


class TestErrorStats:
    def test_generating_params_give_zero_errors(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        max_err, avg_err = error_stats(data, lvt)
        assert max_err < 1e-12 and avg_err < 1e-12

    def test_constant_scaling_maps_to_constant_error(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        scaled = IVDataset(data.vgs, data.vds, data.ids / 1.12, data.temp_c)
        max_err, avg_err = error_stats(scaled, lvt)
        assert max_err == pytest.approx(0.12, rel=1e-12, abs=0)
        assert avg_err == pytest.approx(0.12, rel=1e-12, abs=0)

    def test_zero_current_points_excluded_with_warning(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        ids = data.ids.copy()
        ids[data.vds == np.max(data.vds)] = np.where(
            data.vgs[data.vds == np.max(data.vds)] == 0.5, 0.0,
            ids[data.vds == np.max(data.vds)])
        hacked = IVDataset(data.vgs, data.vds, ids, data.temp_c)
        with pytest.warns(UserWarning, match="zero-current"):
            max_err, avg_err = error_stats(hacked, lvt)
        assert math.isfinite(max_err) and math.isfinite(avg_err)

    def test_avg_never_exceeds_max(self, device_table):
        hvt = device_table["nch_hvt"]
        data = make_grid(hvt, mismatch_amplitude=0.03)
        max_err, avg_err = error_stats(data, hvt)
        assert 0.0 <= avg_err <= max_err


class TestFitDevice:
    def test_zero_noise_round_trip_recovers_parameters(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        report = fit_device(data, init=perturbed_init(lvt))
        assert report.converged
        for field in ("i0", "k1", "k2", "dibl"):
            got = getattr(report.params, field)
            want = getattr(lvt, field)
            assert got == pytest.approx(want, rel=1e-6, abs=0), field

    def test_noisy_round_trip_within_pinned_bound(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt, noise_sigma=0.01, seed=7)
        report = fit_device(data, init=perturbed_init(lvt))
        assert report.converged
        worst = max(
            abs(getattr(report.params, f) - getattr(lvt, f)) / abs(getattr(lvt, f))
            for f in ("i0", "k1", "k2", "dibl")
        )
        assert worst <= NOISY_RECOVERY_BOUND

    def test_idempotence_on_refit(self, device_table):
        svt = device_table["nch_svt"]
        data = make_grid(svt, mismatch_amplitude=0.03)
        first = fit_device(data, init=default_init(data, vth_nominal=0.35))
        refit_data = make_grid(first.params)
        second = fit_device(refit_data, init=first.params)
        for field in ("i0", "k1", "k2", "dibl"):
            assert getattr(second.params, field) == pytest.approx(
                getattr(first.params, field), rel=1e-6
            ), field

    def test_scale_covariance_in_log_space(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        base = fit_device(data, init=perturbed_init(lvt)).params
        scaled_data = IVDataset(data.vgs, data.vds, data.ids * 3.7, data.temp_c)
        scaled = fit_device(scaled_data, init=perturbed_init(lvt)).params
        assert scaled.i0 / base.i0 == pytest.approx(3.7, rel=1e-6, abs=0)
        assert scaled.k1 == pytest.approx(base.k1, abs=1e-6)
        assert scaled.k2 == pytest.approx(base.k2, abs=1e-6)
        assert scaled.dibl == pytest.approx(base.dibl, abs=1e-6)

    @pytest.mark.parametrize("field,true_value,bound", [("k2", 0.01, 0.0), ("dibl", 0.3, 0.2)])
    def test_bound_active_fit_reaches_the_bounded_optimum(self, device_table, field,
                                                          true_value, bound):
        # the best fit lies on a bound: the default start and the true
        # parameters (clipped into the bounds by fit_device) reach one optimum
        truth = dataclasses.replace(device_table["nch_svt"], **{field: true_value})
        data = make_grid(truth)
        reports = [fit_device(data, init=init)
                   for init in (default_init(data, vth_nominal=truth.vth_nominal), truth)]
        assert all(r.converged for r in reports)
        assert reports[0].residual_norm == pytest.approx(reports[1].residual_norm,
                                                         rel=1e-6, abs=0)
        for r in reports:
            assert getattr(r.params, field) == pytest.approx(bound, abs=1e-9)

    def test_bundled_csv_fit_is_pinned(self):
        data = read_iv_csv(BUNDLED_IV)
        for fit_n, want in BUNDLED_FITS.items():
            report = fit_device(data, init=default_init(data, vth_nominal=0.35),
                                options=FitOptions(fit_n=fit_n))
            assert report.converged
            got = {k: getattr(report.params if hasattr(report.params, k) else report, k)
                   for k in want}
            assert got == want, fit_n

    def test_running_out_of_iterations_reports_not_converged(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt, mismatch_amplitude=0.03)
        report = fit_device(data, init=perturbed_init(lvt),
                            options=FitOptions(max_iterations=1))
        assert not report.converged
        assert report.iterations == 1

    def test_all_points_below_floor_is_an_error(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        tiny = IVDataset(data.vgs, data.vds, data.ids * 1e-30, data.temp_c)
        with pytest.raises(DomainError, match="floor"):
            fit_device(tiny, init=perturbed_init(lvt))

    def test_report_error_fields_are_ordered(self, device_table):
        svt = device_table["nch_svt"]
        data = make_grid(svt, mismatch_amplitude=0.03)
        report = fit_device(data, init=default_init(data, vth_nominal=0.35))
        assert 0.0 <= report.avg_rel_error_sat <= report.max_rel_error_sat
        assert report.residual_norm >= 0.0

    def test_optional_swing_factor_fit_recovers_n(self, device_table):
        lvt = device_table["nch_lvt"]
        data = make_grid(lvt)
        init = dataclasses.replace(perturbed_init(lvt), n=1.3)
        report = fit_device(data, init=init, options=FitOptions(fit_n=True))
        assert report.converged
        assert report.params.n == pytest.approx(lvt.n, rel=1e-3, abs=0)


class TestHelpers:
    def test_default_init_centers_i0_on_top_bias_median(self, device_table):
        data = make_grid(device_table["nch_svt"])
        init = default_init(data, vth_nominal=0.35)
        top = data.vds == np.max(data.vds)
        assert init.i0 == pytest.approx(float(np.median(data.ids[top])), abs=0)
        assert (init.k1, init.k2, init.dibl) == (0.3, -0.01, 0.02)

    def test_mismatch_field_amplitude_bound(self):
        vgs, vds = np.meshgrid(VGS_GRID, VDS_GRID, indexing="ij")
        field = mismatch_field(vgs.ravel(), vds.ravel(), 0.03)
        assert np.all(field > 0.0)
        assert np.max(np.abs(field - 1.0)) <= 0.03 + 1e-12

    def test_model_currents_matches_pointwise_evaluation(self, device_table):
        svt = device_table["nch_svt"]
        data = make_grid(svt)
        out = model_currents(svt, data)
        assert out.shape == data.ids.shape
        assert np.allclose(out, data.ids, rtol=1e-12)


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rank_one(x):
    return np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1]) - 3.0])


def cliff(x):
    # NaN beyond x0 = 3, where the best fit lies just short of it
    with np.errstate(invalid="ignore"):
        return np.array([np.sqrt(3.0 - x[0]) - 0.1, x[1] - 2.0, x[0] * x[1] - 5.0])


def linear(x):
    a = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [2.0, 0.1, -0.4], [1.0, 1.0, 1.0]])
    return a @ x - np.array([5.0, -3.0, 4.0, 10.0])


def corner(x):
    a = np.array([[0.273, -0.982, -1.107], [0.2, -0.467, 0.236], [0.76, -1.649, 0.254]])
    return a @ x - np.array([3.674, -0.893, -2.432])


def decay(x):
    t = np.linspace(0.0, 3.0, 12)
    return x[0] * np.exp(-x[1] * t) + x[2] - (2.0 * np.exp(-1.3 * t) + 0.5 + 0.05 * np.sin(7 * t))


class TestLeastSquaresPort:
    """fitting._least_squares against scipy.optimize.least_squares: the same
    x, residuals, evaluation count and status, bit for bit, and the same
    residual evaluations in the same order."""

    @staticmethod
    def assert_same(fun, x0, lb, ub, max_nfev):
        port_calls, ref_calls = [], []
        port = _least_squares(lambda x: port_calls.append(x.copy()) or fun(x),
                              np.array(x0, dtype=float), lb, ub, max_nfev)
        ref = least_squares(lambda x: ref_calls.append(x.copy()) or fun(x),
                            np.array(x0, dtype=float), bounds=(lb, ub), max_nfev=max_nfev)
        assert np.array_equal(port[0], ref.x) and np.array_equal(port[1], ref.fun)
        assert port[2:] == (ref.nfev, ref.status)
        assert np.array_equal(port_calls, ref_calls)
        return port

    @pytest.fixture
    def checked_fits(self, monkeypatch):
        """Every solve that fit_device runs, checked against scipy; the list
        collects the (nfev, status) of each."""
        port, seen = fitting._least_squares, []

        def checked(fun, x0, lb, ub, max_nfev):
            seen.append(self.assert_same(fun, x0, lb, ub, max_nfev)[2:])
            return port(fun, x0, lb, ub, max_nfev)

        monkeypatch.setattr(fitting, "_least_squares", checked)
        return seen

    @pytest.mark.parametrize("vth", [0.35, 0.9, 0.2])
    def test_bundled_csv_at_every_budget(self, checked_fits, vth):
        data = read_iv_csv(BUNDLED_IV)
        for fit_n in (False, True):
            for budget in (1, 2, 3, 5, 500):
                # a budget-limited fit may fail DeviceParams' checks after the solve
                with contextlib.suppress(DomainError):
                    fit_device(data, init=default_init(data, vth_nominal=vth),
                               options=FitOptions(max_iterations=budget, fit_n=fit_n))
        assert len(checked_fits) == 10
        assert {status > 0 for _, status in checked_fits} == {False, True}

    def test_device_table_flavours(self, checked_fits, device_table):
        grids = [{}, {"noise_sigma": 0.01, "seed": 7}, {"mismatch_amplitude": 0.03}]
        for i, params in enumerate(device_table.values()):
            data = make_grid(params, **grids[i % 3])
            for init in (perturbed_init(params), default_init(data, params.vth_nominal)):
                fit_device(data, init=init, options=FitOptions(fit_n=i % 2 == 1))
        assert len(checked_fits) == 12 and all(status > 0 for _, status in checked_fits)

    @pytest.mark.parametrize("field, value", [("k2", 0.01), ("dibl", 0.3)])
    def test_bound_active_truths(self, checked_fits, device_table, field, value):
        truth = dataclasses.replace(device_table["nch_svt"], **{field: value})
        data = make_grid(truth)
        for fit_n in (False, True):
            for init in (default_init(data, vth_nominal=truth.vth_nominal), truth):
                fit_device(data, init=init, options=FitOptions(fit_n=fit_n))
        assert len(checked_fits) == 4

    @settings(max_examples=12, deadline=None)
    @given(i0=st.floats(0.5, 1.5), k1=st.floats(1.0, 1.5), k2=st.floats(0.5, 1.5),
           dibl=st.floats(0.5, 1.5), n=st.floats(1.0, 2.5), fit_n=st.booleans())
    def test_perturbed_starts(self, device_table, i0, k1, k2, dibl, n, fit_n):
        # scale factors of the true constants; k1 >= its true value keeps
        # the start's current monotone in vgs
        svt = device_table["nch_svt"]
        data = make_grid(svt, mismatch_amplitude=0.03)
        init = dataclasses.replace(svt, i0=svt.i0 * i0, k1=svt.k1 * k1, k2=svt.k2 * k2,
                                   dibl=svt.dibl * dibl, n=n)
        seen, port = [], fitting._least_squares
        with pytest.MonkeyPatch.context() as mp, contextlib.suppress(DomainError):
            mp.setattr(fitting, "_least_squares",
                       lambda *args: seen.append(self.assert_same(*args)) or port(*args))
            fit_device(data, init=init, options=FitOptions(fit_n=fit_n))
        assert len(seen) == 1

    INF = np.inf

    @pytest.mark.parametrize("fun, x0, lb, ub", [
        (rosenbrock, [2.0, 2.0], [-INF, 1.5], [INF, INF]),
        (rosenbrock, [-2.0, 1.0], [-INF, -1.0], [INF, 3.0]),
        (rosenbrock, [0.0, 0.0], [-1.0, -1.0], [0.5, 2.0]),  # starts at x = 0
        (rosenbrock, [-1.5, 3.0], [-1.5, -2.0], [2.0, 3.0]),  # starts on bounds beyond +-1
        (rank_one, [0.3, 0.2], [-INF, -5.0], [INF, INF]),  # rank-deficient Jacobian
        (cliff, [0.0, 0.0], [-INF, -5.0], [10.0, 5.0]),  # steps into NaN
        (linear, [0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        (linear, [0.1, 0.9, 0.2], [0.0, -1.0, 0.0], [3.0, 1.0, 1.0]),
        # from a corner of the box, where the scaled anti-gradient step wins
        (corner, [-0.821, 0.564, -0.653], [-0.821, -INF, -0.653], [1.952, 0.564, 2.026]),
        (decay, [1.0, 0.5, 0.0], [0.0, 0.0, -1.0], [1.5, 1.0, 0.3]),
        (decay, [0.1, 2.5, 0.2], [0.0, 0.0, -1.0], [5.0, 3.0, 0.3]),
        (decay, [0.0, 3.0, -1.0], [0.0, 0.0, -1.0], [5.0, 3.0, 0.3]),  # starts on bounds
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_synthetic_problems(self, fun, x0, lb, ub):
        for budget in (1, 2, 3, 5, 10, 100):
            self.assert_same(fun, x0, np.array(lb), np.array(ub), budget)
