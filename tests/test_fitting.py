"""Parameter-extraction tests: datasets, masks, error stats, and the fitter.

The noisy-recovery bound (NOISY_RECOVERY_BOUND) is a regression pin: the
worst per-field relative error observed on the first run of the fixed-seed
noisy round trip, rounded up one digit.
"""

import dataclasses
import math

import numpy as np
import pytest

from sramyield import DomainError, FitOptions, IVDataset, ParseError
from sramyield.devices import load_device_table, thermal_voltage
from sramyield.fitting import (
    IV_CSV_HEADER,
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
