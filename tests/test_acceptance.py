"""Acceptance gate for the workbench.

Each criterion prints exactly one PASS/FAIL line on the real stdout, so the
gate can be read off a plain pytest log without -v. Bounds are pinned here;
a FAIL means a behavioral regression, not sampling noise. Tests are ordered
and numbered C01..C11 to match the release checklist.
"""

import dataclasses
import json
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from sramyield.devices import DeviceParams
from sramyield.fitting import (
    default_init,
    error_stats,
    fit_device,
    generate_iv_grid,
    read_iv_csv,
)
from sramyield.mc import (
    VariationSpec,
    access_samples,
    characterize_access,
    characterize_write,
    run_access_mc,
    run_write_mc,
    wilson_ci,
    write_samples,
)
from sramyield.transients import (
    AssistConfig,
    CellConfig,
    apply_assist,
    delta_v_closed,
    delta_v_ode,
    write_time_closed,
    write_time_ode,
)
from sramyield.yieldmodel import (
    FOUR_SIGMA_PF,
    DeltaVDistribution,
    WriteTimeDistribution,
    access_fail_prob_fixed,
    auto_read_grid,
    delta_quantile,
    estimate_delta_params,
    estimate_write_params,
    invert_for_constraint,
    pdf_delta,
    pdf_write,
    qq_points,
    write_fail_prob,
    write_quantile,
)

MC_SEED = 424242  # decorrelated from the bundled characterization seed (160)
WRITE_ODE_GAP_BOUND = 0.0916  # regression pin; observed worst 0.091488


@pytest.fixture
def gate(capsys):
    """One PASS/FAIL line per criterion on the uncaptured terminal stream."""
    def _report(tag, ok, detail):
        line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print("\n" + line, flush=True)
        assert ok, line
    return _report


# --- C03 / C04 config generators -------------------------------------------
# Frozen draws: changing either RNG seed or any range below invalidates the
# pinned bounds in the corresponding tests.

def draw_access_config(rng):
    vdd = rng.uniform(0.5, 0.7)
    vth = rng.uniform(0.30, 0.45)
    k1 = rng.uniform(0.32, 0.55)
    k2 = -rng.uniform(0.002, k1 / 25.0)
    nm = DeviceParams(i0=10 ** rng.uniform(-5.5, -4.5), k1=k1, k2=k2,
                      dibl=rng.uniform(0.005, 0.06), vth_nominal=vth,
                      n=rng.uniform(1.2, 1.8), polarity="nmos")
    pm = DeviceParams(i0=7e-6, k1=0.40, k2=-0.015, dibl=0.02,
                      vth_nominal=0.38, polarity="pmos")
    cell = CellConfig(nmos=nm, pmos=pm, vdd=vdd, vwl=vdd, vddc=vdd,
                      c_blb=rng.uniform(30e-15, 80e-15), c_q=1e-15)
    vth_s = vth + rng.uniform(-0.03, 0.03)
    frac = rng.uniform(0.02, 0.14)
    t = brentq(lambda tt: delta_v_closed(cell, vth_s, tt) - frac * vdd, 1e-16, 1e-3)
    return cell, vth_s, t


def draw_write_config(rng):
    for _ in range(50):
        vdd = rng.uniform(0.5, 0.7)
        k1n = rng.uniform(0.35, 0.55)
        k2n = -rng.uniform(0.004, k1n / 28.0)
        nm = DeviceParams(i0=10 ** rng.uniform(-5.3, -4.7), k1=k1n, k2=k2n,
                          dibl=rng.uniform(0.005, 0.05),
                          vth_nominal=rng.uniform(0.33, 0.43),
                          n=rng.uniform(1.3, 1.7), polarity="nmos")
        k1p = rng.uniform(0.32, 0.5)
        pm = DeviceParams(i0=10 ** rng.uniform(-5.7, -5.0), k1=k1p,
                          k2=-rng.uniform(0.004, k1p / 28.0),
                          dibl=rng.uniform(0.005, 0.05),
                          vth_nominal=rng.uniform(0.33, 0.43),
                          n=rng.uniform(1.3, 1.7), polarity="pmos")
        cell = CellConfig(nmos=nm, pmos=pm, vdd=vdd, vwl=vdd, vddc=vdd,
                          c_blb=50e-15, c_q=rng.uniform(0.5e-15, 2e-15))
        rho = cell.beta0 * pm.i0 / nm.i0
        try:
            cell.w_trip
        except Exception:
            continue
        # keep the pull-up relevant but clearly dominated
        if 0.02 <= rho <= 0.45:
            return cell, rng.normal(nm.vth_nominal, 0.01), rng.normal(pm.vth_nominal, 0.01)
    raise RuntimeError("no usable write config within 50 draws")


def test_c01_density_normalization(gate):
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        mu_d = rng.uniform(0.1, 0.6)
        dd = DeltaVDistribution(mu_d, mu_d / rng.uniform(4.0, 25.0))
        total, _ = quad(lambda v: pdf_delta(dd, v), 0.0,
                        (dd.mu_delta + 10.0 * dd.sigma_delta) ** 2, limit=200)
        worst = max(worst, abs(total - 1.0))

        mu_w = rng.uniform(0.8, 2.2)
        dw = WriteTimeDistribution(mu_w, mu_w / rng.uniform(4.0, 20.0))
        hi = write_quantile(dw, 1.0 - 1e-10)
        total, _ = quad(lambda t: pdf_write(dw, t), dw.t0, 2.0 * hi,
                        points=[1.0001 * dw.t0, write_quantile(dw, 0.5)], limit=300)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 5.0
    gate("C01 density-normalization", ok,
           f"worst |integral - 1| = {worst:.3e} over 50 random pairs "
           f"(bound 1e-4, {elapsed:.2f}s < 5s)")


def test_c02_cdf_matches_density_quadrature(gate):
    dd = DeltaVDistribution(0.3, 0.012)
    dw = WriteTimeDistribution(1.5, 0.12)
    qs = np.linspace(1e-5, 1.0 - 1e-5, 100)
    worst = 0.0
    for v in delta_quantile(dd, qs):
        direct = access_fail_prob_fixed(dd, v)
        numeric, _ = quad(lambda x: pdf_delta(dd, x), 0.0, v,
                          limit=300, epsabs=1e-13)
        worst = max(worst, abs(direct - numeric))
    med = write_quantile(dw, 0.5)
    for t in write_quantile(dw, qs):
        direct = 1.0 - write_fail_prob(dw, t)
        pts = [p for p in (1.0001 * dw.t0, med) if p < t]
        numeric, _ = quad(lambda x: pdf_write(dw, x), dw.t0, t,
                          points=pts or None, limit=300, epsabs=1e-13)
        worst = max(worst, abs(direct - numeric))
    ok = worst <= 1e-8
    gate("C02 cdf-vs-quadrature", ok,
           f"worst |cdf - integral(pdf)| = {worst:.3e} at 100 points per family "
           f"(bound 1e-8)")


def test_c03_access_closed_vs_ode(gate):
    rng = np.random.default_rng(20260817)
    started = time.perf_counter()
    kept = 0
    worst = 0.0
    draws = 0
    while kept < 100 and draws < 200:
        draws += 1
        cell, vth_s, t = draw_access_config(rng)
        dv_ode = delta_v_ode(cell, vth_s, t)
        if dv_ode > 0.15 * cell.vdd:
            continue  # outside the small-discharge regime the model targets
        kept += 1
        dv_closed = delta_v_closed(cell, vth_s, t)
        worst = max(worst, abs(dv_closed - dv_ode) / dv_ode)
    elapsed = time.perf_counter() - started
    ok = kept == 100 and worst <= 0.02 and elapsed < 30.0
    gate("C03 access-closed-vs-ode", ok,
           f"worst rel gap = {worst:.4%} over {kept} in-regime configs "
           f"(bound 2%, {elapsed:.1f}s < 30s)")


def test_c04_write_closed_vs_ode(gate):
    rng = np.random.default_rng(20260818)
    worst = 0.0
    censored = 0
    for _ in range(100):
        cell, vth_n, vth_p = draw_write_config(rng)
        t_closed = write_time_closed(cell, vth_n)
        t_ode = write_time_ode(cell, vth_n, vth_p, t_max=30.0 * t_closed)
        if not np.isfinite(t_ode):
            censored += 1
            continue
        worst = max(worst, abs(t_closed - t_ode) / t_ode)
    ok = censored == 0 and worst <= WRITE_ODE_GAP_BOUND
    gate("C04 write-closed-vs-ode", ok,
           f"worst rel gap = {worst:.4%} over 100 configs, {censored} censored "
           f"(pinned bound {WRITE_ODE_GAP_BOUND:.2%})")


def test_c05_access_analytics_vs_mc(gate, default_cell, default_variation):
    started = time.perf_counter()
    grid = auto_read_grid(default_cell, default_variation.offset, 12)
    char = characterize_access(default_cell, default_variation, grid,
                               n=200, threads=4)
    mc_var = dataclasses.replace(default_variation, seed=MC_SEED)
    rows = []
    all_ok = True
    for target in (1e-2, 1e-3, 1e-4):
        t_read = invert_for_constraint(char, target, offset=default_variation.offset)
        res = run_access_mc(default_cell, mc_var, 10**6, t_read, threads=4)
        pf_mc = res.failures / res.n
        lo, hi = wilson_ci(res.failures, res.n)
        rel = abs(target - pf_mc) / pf_mc
        ok = rel <= 0.20 or lo <= target <= hi
        all_ok = all_ok and ok
        rows.append(f"{target:.0e}: rel {rel:.3f}")
    elapsed = time.perf_counter() - started
    all_ok = all_ok and elapsed < 60.0
    gate("C05 access-analytics-vs-mc", all_ok,
           f"{'; '.join(rows)} (each <= 0.20 or inside Wilson CI, "
           f"{elapsed:.1f}s < 60s)")


def test_c06_write_analytics_vs_mc(gate, default_cell, default_variation):
    started = time.perf_counter()
    dist = characterize_write(default_cell, default_variation, n=1600, threads=4)
    mc_var = dataclasses.replace(default_variation, seed=MC_SEED)
    rows = []
    all_ok = True
    for target in (1e-2, 1e-3, 1e-4):
        t_write = invert_for_constraint(dist, target)
        res = run_write_mc(default_cell, mc_var, 10**6, t_write, threads=4)
        pf_mc = res.failures / res.n
        lo, hi = wilson_ci(res.failures, res.n)
        rel = abs(target - pf_mc) / pf_mc
        ok = rel <= 0.25 or lo <= target <= hi
        all_ok = all_ok and ok
        rows.append(f"{target:.0e}: rel {rel:.3f}")
    elapsed = time.perf_counter() - started
    all_ok = all_ok and elapsed < 60.0
    gate("C06 write-analytics-vs-mc", all_ok,
           f"{'; '.join(rows)} (each <= 0.25 or inside Wilson CI, "
           f"{elapsed:.1f}s < 60s)")


def test_c07_distribution_tails_are_gaussian_in_root(gate, default_cell, default_variation):
    _, _, dv = access_samples(default_cell, default_variation, 10**6,
                              1.11e-10, threads=4)
    _, corr_access = qq_points(dv, estimate_delta_params(dv),
                               tail="low", tail_fraction=0.01)
    _, _, tw = write_samples(default_cell, default_variation, 10**6, threads=4)
    _, corr_write = qq_points(tw, estimate_write_params(tw),
                              tail="high", tail_fraction=0.01)
    ok = corr_access >= 0.995 and corr_write >= 0.995
    gate("C07 tail-qq-linearity", ok,
           f"pearson r = {corr_access:.5f} (low delta_v tail), "
           f"{corr_write:.5f} (high write tail); bound 0.995 at 1e6 samples")


def test_c08_fit_round_trip_and_measured_data(gate, device_table):
    started = time.perf_counter()
    lvt = device_table["nch_lvt"]
    vgs = np.round(np.arange(0.0, 0.7001, 0.01), 10)
    vds = np.round(np.arange(0.02, 0.7001, 0.02), 10)
    clean = generate_iv_grid(lvt, vgs, vds)
    init = dataclasses.replace(lvt, i0=lvt.i0 * 0.8, k1=lvt.k1 * 1.2,
                               k2=lvt.k2 * 0.8, dibl=lvt.dibl * 1.2)
    exact = fit_device(clean, init=init)
    worst_field = max(
        abs(getattr(exact.params, f) - getattr(lvt, f)) / abs(getattr(lvt, f))
        for f in ("i0", "k1", "k2", "dibl")
    )

    iv_path = resources.files("sramyield.data").joinpath("nch_svt_iv.csv")
    measured = read_iv_csv(str(iv_path))
    report_m = fit_device(measured, init=default_init(measured, vth_nominal=0.35))
    max_err, avg_err = error_stats(measured, report_m.params)
    elapsed = time.perf_counter() - started
    ok = (exact.converged and worst_field <= 1e-6
          and report_m.converged and avg_err <= 0.05 and max_err <= 0.12
          and elapsed < 10.0)
    gate("C08 extraction-quality", ok,
           f"clean round trip worst field {worst_field:.2e} (bound 1e-6); "
           f"warped grid avg {avg_err:.4f} <= 0.05, max {max_err:.4f} <= 0.12 "
           f"({elapsed:.1f}s < 10s)")


def test_c09_assist_sensitivity(gate, default_cell, default_variation):
    var = default_variation

    def t_read_at_4sigma(cell):
        grid = auto_read_grid(cell, var.offset, 12)
        char = characterize_access(cell, var, grid, n=20000, threads=4)
        return invert_for_constraint(char, FOUR_SIGMA_PF, offset=var.offset)

    base_read = CellConfig(nmos=default_cell.nmos, pmos=default_cell.pmos,
                           vdd=0.6, vwl=0.6, vddc=0.6,
                           c_blb=default_cell.c_blb, c_q=default_cell.c_q)
    slowed = apply_assist(base_read, AssistConfig(wl_underdrive=0.1), "read")
    read_ratio = t_read_at_4sigma(slowed) / t_read_at_4sigma(base_read)

    def t_write_at_4sigma(cell):
        dist = characterize_write(cell, var, n=20000, threads=4)
        return invert_for_constraint(dist, FOUR_SIGMA_PF)

    boosted = apply_assist(default_cell, AssistConfig(wl_boost=0.025), "write")
    write_ratio = t_write_at_4sigma(boosted) / t_write_at_4sigma(default_cell)

    ok = read_ratio > 1.5 and write_ratio < 0.7
    gate("C09 assist-sensitivity", ok,
           f"100mV underdrive at 0.6V: T_read ratio {read_ratio:.3f} > 1.5; "
           f"25mV boost at 0.5V: T_write ratio {write_ratio:.3f} < 0.7")


def test_c10_thread_count_invariance(gate, tmp_path):
    outputs = {}
    for threads in (1, 2, 8):
        out_dir = tmp_path / f"t{threads}"
        argv = ["--out-dir", str(out_dir), "--threads", str(threads),
                "mc", "--mode", "access", "--n", "200000",
                "--t-read", "1.2e-10", "--export", "samples.csv"]
        code = subprocess.run(
            [sys.executable, "-m", "sramyield.cli", *argv],
            capture_output=True,
        ).returncode
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        outputs[threads] = (
            (out_dir / "mc.json").read_bytes(),
            (out_dir / "samples.csv").read_bytes(),
            manifest["digest"],
        )
    payload_ok = outputs[1][0] == outputs[2][0] == outputs[8][0]
    samples_ok = outputs[1][1] == outputs[2][1] == outputs[8][1]
    digest_ok = outputs[1][2] == outputs[2][2] == outputs[8][2]
    ok = payload_ok and samples_ok and digest_ok
    gate("C10 thread-invariance", ok,
           f"mc.json identical: {payload_ok}; samples.csv identical: "
           f"{samples_ok}; manifest digests equal: {digest_ok} (1/2/8 threads)")


def test_c11_closed_sampling_throughput(gate, default_cell, default_variation):
    started = time.perf_counter()
    _, _, dv = access_samples(default_cell, default_variation, 10**6,
                              1.11e-10, threads=1)
    elapsed = time.perf_counter() - started
    assert dv.size == 10**6
    ok = elapsed < 10.0
    gate("C11 sampling-throughput", ok,
           f"1e6 closed access samples in {elapsed:.2f}s single-thread "
           f"(bound 10s)")
