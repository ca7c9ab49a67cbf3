"""Counter-based Monte Carlo: determinism, partitioning, failure counting.

Every determinism test compares complete outputs, not summaries: the
scheduling contract is that a sample's draw depends only on (seed, role,
index), never on how the index range was split over threads.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramyield import artifacts, mc
from sramyield.errors import (
    DegenerateStatisticsError,
    DomainError,
    ParseError,
)
from sramyield.mc import (
    McResult,
    SAMPLES_CSV_HEADER,
    VariationSpec,
    access_samples,
    characterize_access,
    characterize_write,
    draw_access_samples,
    draw_write_samples,
    export_samples,
    run_access_mc,
    run_mc,
    run_write_mc,
    wilson_ci,
    write_samples,
)
from sramyield.transients import default_write_t_max, delta_v_closed, write_time_closed
from sramyield.yieldmodel import (OffsetVoltageDist, auto_read_grid, estimate_delta_params,
                                  estimate_write_params)

WILSON_0_OF_100_HI = 0.03699349820698568  # z^2/(n+z^2) evaluated independently

VAR = VariationSpec(
    vth_n_mean=0.38, vth_n_sigma=0.02,
    vth_p_mean=0.38, vth_p_sigma=0.02,
    offset=OffsetVoltageDist(mu_vos=0.07, sigma_vos=0.003),
    seed=901,
)
T_READ = 1.11e-10


def repr_samples_csv(vth_n, vth_p, v_os, metric, fail):
    """A samples CSV as the writer before the vectorized formatter made it:
    Python's format and repr, row by row."""
    drawn = (vth_n, vth_p, v_os, metric)
    row = ("{}" + "".join("," if c is None else ",{!r}" for c in drawn) + ",{:d}\n").format
    lists = [c.tolist() for c in drawn if c is not None]
    rows = "".join(row(i, *cells) for i, *cells in zip(range(len(vth_n)), *lists, fail.tolist()))
    return f"# manifest: manifest.json\n{SAMPLES_CSV_HEADER}\n{rows}".encode()


class TestVariationSpec:
    def test_sigma_validation(self):
        with pytest.raises(DomainError, match="vth_n_sigma"):
            VariationSpec(0.38, 0.0, 0.38, 0.02, VAR.offset, 1)
        with pytest.raises(DomainError, match="vth_p_sigma"):
            VariationSpec(0.38, 0.02, 0.38, -0.01, VAR.offset, 1)

    def test_seed_validation(self):
        with pytest.raises(DomainError, match="seed"):
            VariationSpec(0.38, 0.02, 0.38, 0.02, VAR.offset, -1)
        with pytest.raises(DomainError, match="seed"):
            VariationSpec(0.38, 0.02, 0.38, 0.02, VAR.offset, 2**64)
        VariationSpec(0.38, 0.02, 0.38, 0.02, VAR.offset, 2**64 - 1)

    def test_round_trip(self):
        clone = VariationSpec.from_dict(VAR.to_dict())
        assert clone == VAR

    def test_missing_key(self):
        obj = VAR.to_dict()
        del obj["offset"]
        with pytest.raises(ParseError, match="missing key"):
            VariationSpec.from_dict(obj)

    def test_bundled_spec(self, default_variation):
        assert default_variation.seed == 160
        assert default_variation.offset.sigma_vos > 0.0


class TestWilson:
    def test_zero_failures_golden(self):
        lo, hi = wilson_ci(0, 100, 0.95)
        assert lo == 0.0
        assert hi == pytest.approx(WILSON_0_OF_100_HI, rel=1e-12, abs=0)

    def test_exact_snaps(self):
        assert wilson_ci(0, 50, 0.95)[0] == 0.0
        assert wilson_ci(50, 50, 0.95)[1] == 1.0

    def test_mirror_symmetry(self):
        for k in (0, 3, 17, 50):
            lo_k, hi_k = wilson_ci(k, 100, 0.95)
            lo_m, hi_m = wilson_ci(100 - k, 100, 0.95)
            assert lo_k == pytest.approx(1.0 - hi_m, abs=1e-15)
            assert hi_k == pytest.approx(1.0 - lo_m, abs=1e-15)

    def test_argument_validation(self):
        with pytest.raises(DomainError, match="n must be"):
            wilson_ci(0, 0, 0.95)
        with pytest.raises(DomainError, match="failures"):
            wilson_ci(5, 4, 0.95)
        with pytest.raises(DomainError, match="confidence"):
            wilson_ci(1, 10, 1.0)

    @given(
        n=st.integers(1, 10_000),
        data=st.data(),
        confidence=st.floats(0.5, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_interval_brackets_the_proportion(self, n, data, confidence):
        k = data.draw(st.integers(0, n))
        lo, hi = wilson_ci(k, n, confidence)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


class TestDraws:
    def test_partition_invariance(self):
        whole_n, whole_os = draw_access_samples(VAR, 0, 100)
        parts = [(0, 37), (37, 41), (78, 22)]
        cat_n = np.concatenate([draw_access_samples(VAR, s, c)[0] for s, c in parts])
        cat_os = np.concatenate([draw_access_samples(VAR, s, c)[1] for s, c in parts])
        assert np.array_equal(whole_n, cat_n)
        assert np.array_equal(whole_os, cat_os)
        w_n, w_p = draw_write_samples(VAR, 0, 64)
        cat = np.concatenate([draw_write_samples(VAR, s, c)[0] for s, c in [(0, 10), (10, 54)]])
        assert np.array_equal(w_n, cat)
        assert w_p.shape == (64,)

    def test_roles_are_separated(self):
        a, _ = draw_access_samples(VAR, 0, 50)
        w, _ = draw_write_samples(VAR, 0, 50)
        # same seed, same indices, different role keys: distinct streams
        assert not np.array_equal(a, w)

    def test_moment_sanity(self):
        vth_n, v_os = draw_access_samples(VAR, 0, 200_000)
        assert np.mean(vth_n) == pytest.approx(VAR.vth_n_mean, abs=4 * 0.02 / math.sqrt(200_000))
        assert np.std(vth_n) == pytest.approx(VAR.vth_n_sigma, rel=0.02, abs=0)
        assert np.mean(v_os) == pytest.approx(VAR.offset.mu_vos, abs=4 * 0.003 / math.sqrt(200_000))
        assert np.all(np.isfinite(vth_n)) and np.all(np.isfinite(v_os))

    def test_seeds_decorrelate(self):
        other = VariationSpec(
            vth_n_mean=VAR.vth_n_mean, vth_n_sigma=VAR.vth_n_sigma,
            vth_p_mean=VAR.vth_p_mean, vth_p_sigma=VAR.vth_p_sigma,
            offset=VAR.offset, seed=902,
        )
        a, _ = draw_access_samples(VAR, 0, 50)
        b, _ = draw_access_samples(other, 0, 50)
        assert not np.array_equal(a, b)


class TestSampleEvaluation:
    def test_access_thread_invariance(self, default_cell):
        ref = access_samples(default_cell, VAR, 500, T_READ, threads=1)
        for threads in (2, 8):
            got = access_samples(default_cell, VAR, 500, T_READ, threads=threads)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b)

    def test_write_thread_invariance(self, default_cell):
        ref = write_samples(default_cell, VAR, 500, threads=1)
        for threads in (2, 8):
            got = write_samples(default_cell, VAR, 500, threads=threads)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b)

    def test_access_metric_matches_oracle(self, default_cell):
        vth_n, v_os, dv = access_samples(default_cell, VAR, 64, T_READ)
        assert np.array_equal(dv, delta_v_closed(default_cell, vth_n, T_READ))

    def test_write_metric_matches_oracle(self, default_cell):
        vth_n, _, t = write_samples(default_cell, VAR, 64)
        assert np.array_equal(t, write_time_closed(default_cell, vth_n))

    def test_mode_validation(self, default_cell):
        with pytest.raises(DomainError, match="mode"):
            access_samples(default_cell, VAR, 10, T_READ, mode="spice")


class TestRunAccessMc:
    def test_failure_rule_hand_check(self, default_cell):
        res = run_access_mc(default_cell, VAR, 2000, T_READ)
        vth_n, v_os = draw_access_samples(VAR, 0, 2000)
        dv = delta_v_closed(default_cell, vth_n, T_READ)
        expect = int(np.sum((v_os > 0.0) & (dv < v_os)))
        assert res.failures == expect
        assert res.n == 2000
        assert res.pf == expect / 2000
        assert res.ci95[0] <= res.pf <= res.ci95[1]

    def test_offset_never_positive_gives_zero(self, default_cell):
        below = VariationSpec(
            vth_n_mean=0.38, vth_n_sigma=0.02, vth_p_mean=0.38, vth_p_sigma=0.02,
            offset=OffsetVoltageDist(mu_vos=-1.0, sigma_vos=1e-6), seed=3,
        )
        res = run_access_mc(default_cell, below, 5000, T_READ)
        assert res.failures == 0
        assert res.pf == 0.0
        assert res.ci95[0] == 0.0

    def test_deterministic_rerun(self, default_cell):
        a = run_access_mc(default_cell, VAR, 1000, T_READ, threads=4)
        b = run_access_mc(default_cell, VAR, 1000, T_READ, threads=2)
        assert a.to_dict() == b.to_dict()

    def test_pf_monotone_in_deadline(self, default_cell):
        # common random numbers: one seed, widening read windows
        pfs = [
            run_access_mc(default_cell, VAR, 4000, t).pf
            for t in np.linspace(0.8 * T_READ, 1.6 * T_READ, 5)
        ]
        assert all(a >= b for a, b in zip(pfs, pfs[1:]))

    def test_n_validation(self, default_cell):
        with pytest.raises(DomainError, match="n must be"):
            run_access_mc(default_cell, VAR, 0, T_READ)


class TestRunWriteMc:
    def test_failure_rule_hand_check(self, default_cell):
        t_write = 2.0e-11
        res = run_write_mc(default_cell, VAR, 2000, t_write)
        vth_n, _ = draw_write_samples(VAR, 0, 2000)
        expect = int(np.sum(write_time_closed(default_cell, vth_n) > t_write))
        assert res.failures == expect

    def test_loose_constraint_passes_everything(self, default_cell):
        res = run_write_mc(default_cell, VAR, 2000, 1.0)
        assert res.failures == 0 and res.pf == 0.0

    def test_censored_samples_count_as_failures(self, default_cell):
        # a horizon below the nominal write time censors a large share
        t_max = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        res = run_write_mc(default_cell, VAR, 400, 0.9 * t_max, mode="ode", t_max=t_max)
        _, _, t = write_samples(default_cell, VAR, 400, mode="ode", t_max=t_max)
        censored = int(np.sum(np.isinf(t)))
        assert censored > 0
        assert res.failures >= censored

    def test_constraint_beyond_horizon_rejected(self, default_cell):
        t_max = default_write_t_max(default_cell)
        with pytest.raises(DomainError, match="censoring horizon"):
            run_write_mc(default_cell, VAR, 100, 2.0 * t_max, mode="ode", t_max=t_max)

    def test_pf_monotone_in_constraint(self, default_cell):
        pfs = [
            run_write_mc(default_cell, VAR, 4000, t).pf
            for t in np.geomspace(8e-12, 5e-11, 5)
        ]
        assert all(a >= b for a, b in zip(pfs, pfs[1:]))

    def test_deterministic_rerun(self, default_cell):
        a = run_write_mc(default_cell, VAR, 1000, 2e-11, threads=8)
        b = run_write_mc(default_cell, VAR, 1000, 2e-11, threads=1)
        assert a.to_dict() == b.to_dict()


class TestStream:
    """Every pass walks fixed _BLOCK-sized blocks, drawn once each."""

    # edges of the fourth and eighth block
    @pytest.mark.parametrize("n", [4 * mc._BLOCK - 1, 4 * mc._BLOCK, 4 * mc._BLOCK + 1,
                                   8 * mc._BLOCK + 3])
    @pytest.mark.parametrize("role", ["access", "write"])
    def test_export_across_block_edges(self, default_cell, tmp_path, role, n):
        exports = []
        for threads in (1, 2, 8):
            path = tmp_path / f"t{threads}.csv"
            if role == "access":
                run_access_mc(default_cell, VAR, n, T_READ, threads=threads, export_path=path)
            else:
                run_write_mc(default_cell, VAR, n, 2e-11, threads=threads, export_path=path)
            exports.append(path.read_bytes())
        assert exports[1] == exports[0] and exports[2] == exports[0]
        cols = list(zip(*(line.split(",") for line in exports[0].decode().splitlines()[2:])))
        assert cols[0] == tuple(str(i) for i in range(n))
        if role == "access":
            vth_n, other, metric = access_samples(default_cell, VAR, n, T_READ)
            fail = (other > 0.0) & (metric < other)
            other_col, empty_col = cols[3], cols[2]
        else:
            vth_n, other, metric = write_samples(default_cell, VAR, n)
            fail = metric > 2e-11
            other_col, empty_col = cols[2], cols[3]
        assert set(empty_col) == {""}
        for got, want in zip((cols[1], other_col, cols[4]), (vth_n, other, metric)):
            assert np.array_equal(np.array(got, dtype=float), want)
        assert np.array_equal(np.array(cols[5], dtype=int), fail.astype(int))

    @pytest.mark.parametrize("role", ["access", "write"])
    def test_pass_memory_is_per_block(self, default_cell, role):
        tracemalloc.start()
        try:
            if role == "access":
                run_access_mc(default_cell, VAR, 10**6, T_READ)
            else:
                run_write_mc(default_cell, VAR, 10**6, 2e-11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # whole 1e6-lane columns alone take 8 MB each

    # traced peaks of the pass alone, with its tables and cell properties
    # built: 2.2 and 1.2 MB with 16384-sample blocks and 2048-row export
    # chunks; 65536-sample blocks and 8192-row chunks peak at 5.3 and 4.6 MB
    @pytest.mark.parametrize("case, bound_mb", [("export", 2.6), ("three-read-times", 1.5)])
    def test_pass_memory_is_pinned(self, default_cell, tmp_path, case, bound_mb):
        def run():
            if case == "export":
                run_access_mc(default_cell, VAR, 200_000, T_READ, export_path=tmp_path / "s.csv")
            else:
                run_mc("access", default_cell, VAR, 10**6, [0.95 * T_READ, T_READ, 1.05 * T_READ])

        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, peak / 2**20

    @pytest.mark.parametrize("role,constraints,mode,match", [
        ("access", [T_READ, math.nan], "closed", "t_read must be finite"),
        ("write", [2e-11, math.inf], "closed", "t_write must be finite"),
        ("write", [2e-11, -1.0], "closed", "t_write must be > 0"),
        ("write", [2e-11, 1.0], "ode", "exceeds the censoring horizon"),
    ])
    def test_every_constraint_checked_before_drawing(self, default_cell, monkeypatch,
                                                     role, constraints, mode, match):
        def no_draw(*args):
            raise AssertionError("drew samples before checking every constraint")

        monkeypatch.setattr(mc, "draw_access_samples", no_draw)
        monkeypatch.setattr(mc, "draw_write_samples", no_draw)
        with pytest.raises(DomainError, match=match):
            run_mc(role, default_cell, VAR, 100, constraints, mode=mode)

    def test_write_oracle_runs_once_per_block(self, default_cell, monkeypatch):
        calls = []
        oracle = mc.write_time_closed
        monkeypatch.setattr(mc, "write_time_closed",
                            lambda cell, vth_n: calls.append(len(vth_n)) or oracle(cell, vth_n))
        n = mc._BLOCK + 10
        results = run_mc("write", default_cell, VAR, n, [1.5e-11, 2e-11, 3e-11])
        assert calls == [mc._BLOCK, 10]
        assert [r.failures for r in results] == sorted((r.failures for r in results), reverse=True)

    def test_run_mc_argument_checks(self, default_cell):
        with pytest.raises(DomainError, match="role"):
            run_mc("read", default_cell, VAR, 10, [T_READ])
        with pytest.raises(DomainError, match="at least one constraint"):
            run_mc("access", default_cell, VAR, 10, [])

    @pytest.mark.parametrize("threads", [2, 3])
    def test_at_most_threads_blocks_in_flight(self, threads):
        started = []
        blocks = mc._stream(lambda start, count: started.append(start) or start,
                            10 * mc._BLOCK, threads)
        assert started == []  # lazy: nothing runs before the first result is asked for
        for taken in range(1, 10):
            assert next(blocks) == (taken - 1) * mc._BLOCK
            # the block just taken and at most threads - 1 later ones have started
            assert taken <= len(started) <= min(10, taken - 1 + threads)
        blocks.close()


class TestStreamedExport:
    """An export is written block by block as the pass goes."""

    N = 1000

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 64)

    @pytest.mark.parametrize("role", ["access", "write"])
    def test_each_call_gets_one_block(self, default_cell, tmp_path, monkeypatch, small_blocks,
                                      role):
        calls = []
        export = mc.export_samples

        def spy(out, vth_n, *args, start=0, **kwargs):
            calls.append((start, len(vth_n)))
            return export(out, vth_n, *args, start=start, **kwargs)

        monkeypatch.setattr(mc, "export_samples", spy)
        path = tmp_path / "s.csv"
        if role == "access":
            run_access_mc(default_cell, VAR, self.N, T_READ, export_path=path)
            vth_n, v_os, metric = access_samples(default_cell, VAR, self.N, T_READ)
            want = repr_samples_csv(vth_n, None, v_os, metric, (v_os > 0.0) & (metric < v_os))
        else:
            run_write_mc(default_cell, VAR, self.N, 2e-11, export_path=path)
            vth_n, vth_p, metric = write_samples(default_cell, VAR, self.N)
            want = repr_samples_csv(vth_n, vth_p, None, metric, metric > 2e-11)
        assert calls == [(s, min(64, self.N - s)) for s in range(0, self.N, 64)]
        assert path.read_bytes() == want

    @pytest.mark.parametrize("role", ["access", "write"])
    def test_bytes_equal_across_thread_counts(self, default_cell, tmp_path, small_blocks, role):
        exports = []
        for threads in (1, 2, 3):
            path = tmp_path / f"t{threads}.csv"
            if role == "access":
                run_access_mc(default_cell, VAR, self.N, T_READ, threads=threads,
                              export_path=path)
            else:
                run_write_mc(default_cell, VAR, self.N, 2e-11, threads=threads,
                             export_path=path)
            exports.append(path.read_bytes())
        assert exports[1] == exports[0] and exports[2] == exports[0]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("error", [DomainError, OSError])
    def test_failing_block_leaves_no_file(self, default_cell, tmp_path, monkeypatch,
                                          small_blocks, threads, error):
        calls = []
        oracle = mc.delta_v_closed

        def fail_second(cell, vth_n, t):
            calls.append(len(vth_n))
            if len(calls) == 2:
                raise error("second block")
            return oracle(cell, vth_n, t)

        monkeypatch.setattr(mc, "delta_v_closed", fail_second)
        path = tmp_path / "s.csv"
        with pytest.raises(error, match="second block") as exc:
            run_access_mc(default_cell, VAR, self.N, T_READ, threads=threads, export_path=path)
        assert not isinstance(exc.value, ParseError)  # only the file's own OSError is mapped
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_fails_before_drawing(self, default_cell, tmp_path, monkeypatch):
        monkeypatch.setattr(mc, "draw_access_samples", lambda *a: pytest.fail("drew samples"))
        with pytest.raises(ParseError, match="cannot write"):
            run_access_mc(default_cell, VAR, 10, T_READ,
                          export_path=tmp_path / "missing" / "x.csv")

    # sha256 of samples.csv from the export that formatted the whole pass in
    # one call after the last block, at n = 131075
    PINNED = {
        "access": "07ce3ebad59c623d8f6c8e3b90f141c98ed030831fb029e56c28af1b4ecf5b8f",
        "write": "e7487d3697f022847825188c9e05f07d6a455165e800c708224425184598370f",
        "ode-write": "656777d3e503ed7d3adb30800fc5d93b44e30f5c3b68cd6d9ecff05b12f621f6",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_export_bytes_are_pinned(self, default_cell, tmp_path, case):
        n = 131075
        path = tmp_path / "s.csv"
        if case == "access":
            run_access_mc(default_cell, VAR, n, T_READ, export_path=path)
        elif case == "write":
            run_write_mc(default_cell, VAR, n, 2e-11, export_path=path)
        else:
            run_write_mc(default_cell, VAR, 300, 2e-11, mode="ode", export_path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED[case]


class TestMcResult:
    def test_failures_bounded(self):
        with pytest.raises(DomainError, match="exceed"):
            McResult(n=10, failures=11, pf=1.1, ci95=(0, 1), samples_path=None, wall_time=0.0)

    def test_wall_time_flag(self, default_cell):
        res = run_access_mc(default_cell, VAR, 100, T_READ)
        assert res.wall_time > 0.0
        assert "wall_time" not in res.to_dict()


class TestExport:
    def test_access_export_format(self, default_cell, tmp_path):
        path = tmp_path / "samples.csv"
        res = run_access_mc(default_cell, VAR, 3, T_READ, export_path=path)
        assert res.samples_path == str(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest: manifest.json"
        assert lines[1] == SAMPLES_CSV_HEADER
        assert len(lines) == 2 + 3
        for i, line in enumerate(lines[2:]):
            cells = line.split(",")
            assert cells[0] == str(i)
            assert cells[2] == ""  # vth_p never drawn on the access path
            assert cells[3] != ""
            assert cells[5] in ("0", "1")

    def test_write_export_leaves_offset_empty(self, default_cell, tmp_path):
        path = tmp_path / "w.csv"
        run_write_mc(default_cell, VAR, 3, 2e-11, export_path=path)
        row = path.read_text().splitlines()[2].split(",")
        assert row[2] != "" and row[3] == ""

    def test_censored_metric_prints_inf(self, default_cell, tmp_path):
        t_max = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        path = tmp_path / "cens.csv"
        run_write_mc(default_cell, VAR, 50, 0.9 * t_max, mode="ode", t_max=t_max,
                     export_path=path)
        body = path.read_text()
        assert ",inf," in body

    def test_rerun_is_byte_identical(self, default_cell, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_access_mc(default_cell, VAR, 200, T_READ, export_path=p1)
        run_access_mc(default_cell, VAR, 200, T_READ, threads=8, export_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self, default_cell, tmp_path):
        with pytest.raises(ParseError, match="cannot write"):
            with artifacts.csv_file(tmp_path / "missing" / "x.csv", SAMPLES_CSV_HEADER) as write:
                export_samples(write, vth_n=np.array([0.38]), metric=np.array([0.1]),
                               fail=np.array([False]))

    # edges of the fourth and eighth chunk
    @pytest.mark.parametrize("n", [4 * artifacts._EXPORT_ROWS - 1, 4 * artifacts._EXPORT_ROWS,
                                   4 * artifacts._EXPORT_ROWS + 1, 8 * artifacts._EXPORT_ROWS + 3])
    @pytest.mark.parametrize("other", ["vth_p", "v_os"])
    def test_export_across_chunk_edges(self, tmp_path, n, other):
        rng = np.random.default_rng(n)
        vth_n = rng.normal(0.38, 0.5, n)  # some at or above 1, some negative
        vth_n[::97] = 0.5
        vth_n[1::97] = 1.0
        second = rng.normal(-0.01, 0.003, n)  # mostly negative, like a skewed offset
        metric = rng.lognormal(np.log(1e-11), 2.0, n)
        metric[::31] = np.inf
        metric[5::53] = np.nan
        metric[7::61] = 0.5
        fail = rng.random(n) < 0.2
        path = tmp_path / "edge.csv"
        with artifacts.csv_file(path, SAMPLES_CSV_HEADER) as write:
            export_samples(write, vth_n=vth_n, metric=metric, fail=fail, **{other: second})
        assert path.read_bytes() == repr_samples_csv(
            vth_n, second if other == "vth_p" else None, second if other == "v_os" else None,
            metric, fail)

    def test_export_feeds_estimators(self, default_cell, tmp_path):
        path = tmp_path / "feed.csv"
        run_access_mc(default_cell, VAR, 200, T_READ, export_path=path)
        dv = []
        for line in path.read_text().splitlines()[2:]:
            dv.append(float(line.split(",")[4]))
        dist = estimate_delta_params(dv)
        assert dist.mu_delta > 0.0 and dist.sigma_delta > 0.0


class TestCellSequences:
    """characterize_* over a sequence of cells equals one call per cell."""

    CELLS = [0.65, 0.55, 0.5]

    def test_access(self, default_cell):
        cells = [dataclasses.replace(default_cell, vwl=v) for v in self.CELLS]
        grids = auto_read_grid(cells, VAR.offset, 5)[:, ::-1]  # each row sorted first
        tables = characterize_access(cells, VAR, grids, n=40)
        assert tables == [characterize_access(c, VAR, g, n=40) for c, g in zip(cells, grids)]

    def test_write(self, default_cell):
        cells = [dataclasses.replace(default_cell, vwl=v) for v in self.CELLS]
        lanes = mc.characterization_lanes("write", VAR, 64)
        dists = characterize_write(cells, VAR, n=64, lanes=lanes)
        assert dists == [characterize_write(c, VAR, n=64) for c in cells]
        assert characterize_write(cells, VAR, n=64) == dists

    def test_ode_takes_one_cell(self, default_cell):
        with pytest.raises(DomainError, match="one cell at a time"):
            characterize_write([default_cell], VAR, n=64, mode="ode")

    def test_chunks_hold_at_most_the_lane_budget(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 100)
        items = list(range(10))
        assert mc.cell_chunks(items, 30) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert mc.cell_chunks(items, 500) == [[i] for i in items]


class TestCharacterizeAccess:
    def test_block_offsets_per_grid_point(self, default_cell):
        n = 60
        grid = [8e-11, 1.2e-10, 1.8e-10]
        table = characterize_access(default_cell, VAR, grid, n=n)
        for j, t in enumerate(grid):
            vth_n, _ = draw_access_samples(VAR, j * n, n)
            dist = estimate_delta_params(delta_v_closed(default_cell, vth_n, t))
            assert table.mu_delta[j] == dist.mu_delta
            assert table.sigma_delta[j] == dist.sigma_delta

    def test_grid_is_sorted_first(self, default_cell):
        a = characterize_access(default_cell, VAR, [1.8e-10, 8e-11], n=60)
        b = characterize_access(default_cell, VAR, [8e-11, 1.8e-10], n=60)
        assert a.to_dict() == b.to_dict()

    def test_single_point_grid(self, default_cell):
        table = characterize_access(default_cell, VAR, [T_READ], n=60)
        assert len(table.t_read) == 1
        assert table.distribution_at(T_READ).mu_delta == table.mu_delta[0]

    def test_empty_grid(self, default_cell):
        with pytest.raises(DomainError, match="at least 1"):
            characterize_access(default_cell, VAR, [], n=60)

    def test_thread_invariance(self, default_cell):
        grid = [8e-11, 1.8e-10]
        a = characterize_access(default_cell, VAR, grid, n=64, threads=1)
        b = characterize_access(default_cell, VAR, grid, n=64, threads=4)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("mode", ["closed", "ode"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_one_pass_equals_per_point_samples(self, default_cell, monkeypatch, mode,
                                               threads):
        # one draw of [0, G*n) and one oracle call give the same bits as a
        # _samples pass per grid point, row j taken from its blocks
        # [j*n, (j+1)*n); short blocks put block edges inside rows
        monkeypatch.setattr(mc, "_BLOCK", 50)
        n, grid = 61, [7e-11, 9e-11, 1.2e-10, 1.8e-10]
        table = characterize_access(default_cell, VAR, grid, n=n, mode=mode, threads=threads)
        for j, t in enumerate(grid):
            _, _, dv = mc._samples(mc._ROLE_ACCESS, default_cell, VAR, len(grid) * n, mode,
                                   threads, t)
            dist = estimate_delta_params(dv[j * n:(j + 1) * n])
            assert (table.mu_delta[j], table.sigma_delta[j]) == (dist.mu_delta,
                                                                 dist.sigma_delta)

    def test_lanes_replace_the_draw(self, default_cell, monkeypatch):
        n, grid = 40, [8e-11, 1.2e-10, 1.8e-10]
        lanes = mc.characterization_lanes("access", VAR, len(grid) * n)
        drawn = []
        monkeypatch.setattr(mc, "draw_access_samples", lambda *a: drawn.append(a))
        table = characterize_access(default_cell, VAR, grid, n=n, lanes=lanes)
        assert drawn == []
        monkeypatch.undo()
        assert table == characterize_access(default_cell, VAR, grid, n=n)


# Literal draws, fixed across refactors of the sampling path (thread-count
# invariance alone cannot catch a shifted block or a swapped stream).
PINNED = {
    "access": [
        "0,0.36510205070696683,,0.0695778144942725,0.11446298742220863,0",
        "1,0.38533849717039964,,0.07072055985427662,0.09507996391695622,0",
        "2,0.35271789859099456,,0.06737610779084209,0.12771110031765825,0",
    ],
    "write": [
        "0,0.4216158331542024,0.3346648279646931,,1.55632899864537e-11,0",
        "1,0.3956330606715766,0.36574860457265135,,1.199487357804936e-11,0",
        "2,0.3774968296888926,0.3624079249651603,,1.00737272588067e-11,0",
    ],
    # grid point j=1 at n=30 reads blocks [30, 60): dv[0], dv[1], dv[29],
    # then that point's mu_delta and sigma_delta
    "characterize": [
        "0.12964668164663898", "0.12636704615246028", "0.11047997727881059",
        "0.3369328967769853", "0.02738269349816267",
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_drawn_values_are_pinned(case, default_cell, tmp_path, monkeypatch):
    if case == "characterize":
        seen = []
        estimate = mc.estimate_delta_params
        monkeypatch.setattr(mc, "estimate_delta_params",
                            lambda dv: seen.append(dv) or estimate(dv))
        table = characterize_access(default_cell, VAR, [8e-11, 1.2e-10], n=30)
        dv = np.vstack(seen)[1]  # the estimator takes the grid's rows in one call
        assert len(dv) == 30
        got = [repr(float(x)) for x in
               (dv[0], dv[1], dv[-1], table.mu_delta[1], table.sigma_delta[1])]
    else:
        path = tmp_path / "pinned.csv"
        if case == "access":
            run_access_mc(default_cell, VAR, 3, T_READ, export_path=path)
        else:
            run_write_mc(default_cell, VAR, 3, 2e-11, export_path=path)
        got = path.read_text().splitlines()[2:]
    assert got == PINNED[case]


class TestCharacterizeWrite:
    def test_matches_manual_estimation(self, default_cell):
        dist = characterize_write(default_cell, VAR, n=128)
        _, _, t = write_samples(default_cell, VAR, 128)
        manual = estimate_write_params(t)
        assert dist.mu_w == manual.mu_w
        assert dist.sigma_w == manual.sigma_w
        assert dist.t0 == manual.t0

    def test_censored_draw_is_degenerate(self, default_cell):
        t_max = write_time_closed(default_cell, default_cell.nmos.vth_nominal)
        with pytest.raises(DegenerateStatisticsError, match="censored"):
            characterize_write(default_cell, VAR, n=128, mode="ode", t_max=t_max)

    def test_custom_t0(self, default_cell):
        dist = characterize_write(default_cell, VAR, n=128, t0=1e-13)
        assert dist.t0 == 1e-13

    @pytest.mark.parametrize("mode", ["closed", "ode"])
    def test_lanes_replace_the_draw(self, default_cell, mode):
        cell = dataclasses.replace(default_cell, vwl=0.55)  # no lane censored
        lanes = mc.characterization_lanes("write", VAR, 300, threads=3)
        got = characterize_write(cell, VAR, n=300, mode=mode, lanes=lanes)
        assert got == characterize_write(cell, VAR, n=300, mode=mode)

    def test_lane_arguments_are_checked(self):
        with pytest.raises(DomainError, match="role"):
            mc.characterization_lanes("read", VAR, 10)
        for n in (0, -5):
            with pytest.raises(DomainError, match="n must be >= 1"):
                mc.characterization_lanes("write", VAR, n)
