"""Workbench command tests: exit codes, file formats, reproducibility.

Commands run in-process through main(argv) with --out-dir pointed at a tmp
directory; one subprocess test confirms the installed console script wires
up to the same entry point.
"""

import copy
import json
import math
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

from sramyield import mc
from sramyield.cli import EXIT_DEGENERATE, EXIT_DOMAIN, EXIT_FIT, EXIT_PARSE, main
from sramyield.mc import run_access_mc, run_write_mc
from sramyield.errors import DomainError
from sramyield.transients import (
    delta_v_closed,
    delta_v_ode,
    load_default_cell,
    read_cell_json,
    write_time_closed,
)
from sramyield.yieldmodel import (
    WriteTimeDistribution,
    write_fail_prob,
)

BUNDLED_IV = str(resources.files("sramyield.data").joinpath("nch_svt_iv.csv"))


def bundled(name):
    return json.loads(resources.files("sramyield.data").joinpath(name).read_text())


def run_cli(out_dir, *argv):
    return main(["--out-dir", str(out_dir), *argv])


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def csv_rows(path):
    """Data rows of a workbench CSV: comment lines stripped, header dropped."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0], [l.split(",") for l in lines[1:]]


@pytest.fixture()
def write_char(tmp_path_factory):
    """A small write characterization JSON produced by the CLI itself."""
    d = tmp_path_factory.mktemp("wchar")
    rc = run_cli(d, "characterize", "--mode", "write", "--n", "128")
    assert rc == 0
    return d / "characterization.json"


class TestExitCodes:
    def test_empty_iv_csv(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert run_cli(tmp_path, "fit", "--iv", str(bad)) == EXIT_PARSE

    def test_garbled_iv_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("volts,amps\n0.1,0.2\n")
        assert run_cli(tmp_path, "fit", "--iv", str(bad)) == EXIT_PARSE

    @pytest.mark.parametrize("role,constraints", [
        ("access", "1.1e-10,nan"), ("write", "1.3e-11,nan"), ("write", "1.3e-11,inf"),
    ])
    def test_bad_second_constraint_stops_before_mc(self, tmp_path, capsys, monkeypatch,
                                                   role, constraints):
        drawn = []
        for name in ("draw_access_samples", "draw_write_samples"):
            monkeypatch.setattr(mc, name, lambda var, start, count, draw=getattr(mc, name):
                                drawn.append(count) or draw(var, start, count))
        rc = run_cli(tmp_path, "compare", "--mode", role, "--constraints", constraints,
                     "--n", "1000", "--char-n", "128")
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN, err
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
        assert sum(drawn) == (12 * 128 if role == "access" else 128)  # characterization only

    def test_fit_nonconvergence(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "fit", "--iv", BUNDLED_IV, "--max-iterations", "1")
        assert rc == EXIT_FIT
        # the budget counts residual evaluations, not solver steps
        assert "did not converge in 1 residual evaluations" in capsys.readouterr().err

    def test_fit_out_of_budget_at_an_invalid_iterate(self, tmp_path, capsys):
        # the last iterate breaks DeviceParams' monotonicity check; the fit is
        # reported as not converged (exit 3), not as a domain error (exit 5)
        rc = run_cli(tmp_path, "fit", "--iv", BUNDLED_IV, "--vth", "0.2",
                     "--max-iterations", "2")
        err = capsys.readouterr().err
        assert rc == EXIT_FIT, err
        assert "did not converge in 2 residual evaluations" in err
        assert "current not monotone in vgs" in err
        assert not (tmp_path / "fit.json").exists()

    def test_fit_needs_an_iteration(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "fit", "--iv", BUNDLED_IV, "--max-iterations", "0")
        assert rc == EXIT_DOMAIN
        assert "max_iterations must be >= 1" in capsys.readouterr().err

    def test_censored_qq_sample_is_degenerate(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(tmp_path, "qq", "--mode", "write", "--oracle", "ode", "--n", "20000")
        assert rc == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert "inf (censored)" in err and "zero variance" not in err

    def test_degenerate_statistics(self, tmp_path):
        rc = run_cli(tmp_path, "characterize", "--mode", "write", "--n", "10")
        assert rc == EXIT_DEGENERATE

    def test_domain_violation(self, tmp_path):
        # a write constraint beyond the ODE censoring horizon is rejected
        rc = run_cli(tmp_path, "mc", "--mode", "write", "--n", "50",
                     "--t-write", "2e-9", "--oracle", "ode", "--t-max", "1e-9")
        assert rc == EXIT_DOMAIN
        # an empty sample set is rejected before any statistics are taken
        assert run_cli(tmp_path, "characterize", "--mode", "access", "--n", "0") == EXIT_DOMAIN
        assert run_cli(tmp_path, "qq", "--mode", "write", "--n", "0") == EXIT_DOMAIN
        # --char-n 0 is an empty characterization too, not a request for the default
        assert run_cli(tmp_path, "sweep", "--axis", "vwl", "--values", "0.6",
                       "--mode", "access", "--char-n", "0") == EXIT_DOMAIN
        assert run_cli(tmp_path, "compare", "--mode", "write", "--constraints", "1.6e-11",
                       "--n", "100", "--char-n", "0") == EXIT_DOMAIN

    def test_unparseable_constraint_list(self, tmp_path, write_char):
        rc = run_cli(tmp_path, "yield", "--characterization", str(write_char),
                     "--constraints", "abc")
        assert rc == EXIT_PARSE

    def test_qq_access_needs_t_read(self, tmp_path):
        rc = run_cli(tmp_path, "qq", "--mode", "access", "--n", "200")
        assert rc == EXIT_PARSE

    def test_qq_tail_percent_range(self, tmp_path):
        rc = run_cli(tmp_path, "qq", "--mode", "write", "--n", "200",
                     "--tail-percent", "0")
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("mode,flag", [("access", "--t-read"), ("write", "--t-write")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_mc_rejects_non_finite_constraint(self, tmp_path, capsys, mode, flag, value):
        rc = run_cli(tmp_path, "mc", "--mode", mode, "--n", "10", f"{flag}={value}")
        assert rc == EXIT_DOMAIN
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_mc_rejects_non_finite_horizon(self, tmp_path, capsys, value):
        rc = run_cli(tmp_path, "mc", "--mode", "write", "--oracle", "ode", "--n", "10",
                     "--t-write", "1e-11", f"--t-max={value}")
        assert rc == EXIT_DOMAIN
        assert "t_max must be positive and finite" in capsys.readouterr().err

    def test_mc_needs_deadline(self, tmp_path):
        assert run_cli(tmp_path, "mc", "--mode", "access", "--n", "10") == EXIT_PARSE
        assert run_cli(tmp_path, "mc", "--mode", "write", "--n", "10") == EXIT_PARSE

    @pytest.mark.parametrize("path", [("nmos", "i0"), ("temperature_c",)])
    def test_nan_cell_constant_exits_promptly(self, tmp_path, path):
        cell = bundled("default_cell.json")
        node = cell
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = math.nan
        cell_json = tmp_path / "cell.json"
        cell_json.write_text(json.dumps(cell))
        # a subprocess, so that a NaN that reaches the trip quadrature fails
        # the test at the timeout instead of hanging the suite
        proc = subprocess.run(
            [sys.executable, "-m", "sramyield.cli", "--out-dir", str(tmp_path),
             "characterize", "--mode", "write", "--cell", str(cell_json)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_DOMAIN, proc.stderr
        assert "must be finite" in proc.stderr and "Traceback" not in proc.stderr


    @pytest.mark.parametrize("device", ["nmos", "pmos"])
    def test_overflowing_cell_constant(self, tmp_path, capsys, device):
        cell = bundled("default_cell.json")
        cell[device]["lambda"] = 1e5  # finite, but exp(lambda*vds/(n*vt)) is not
        cell_json = tmp_path / "cell.json"
        cell_json.write_text(json.dumps(cell))
        rc = run_cli(tmp_path, "characterize", "--mode", "write", "--cell", str(cell_json))
        assert rc == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"{device} drain-bias factor" in err and "lambda = 100000.0" in err

    @pytest.mark.parametrize("path, value", [(("c_blb",), 1e-300), (("nmos", "i0"), 1e300),
                                             (("nmos", "k1"), 1e5), (("nmos", "k1"), 1e30),
                                             (("nmos", "k1"), 1e300)])
    def test_saturated_ode_read_is_quiet(self, tmp_path, path, value):
        # every lane's scaled read time lies past the discharge table; at a
        # huge k1 some reach its flat last panels
        cell = bundled("default_cell.json")
        node = cell
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cell_json = tmp_path / "cell.json"
        cell_json.write_text(json.dumps(cell))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(tmp_path / "out", "mc", "--oracle", "ode", "--mode", "access",
                         "--n", "300", "--t-read", "1.2e-10", "--export", "samples.csv",
                         "--cell", str(cell_json))
        assert rc == 0

    @pytest.mark.parametrize("field, argv", [
        ("vth_n_mean", ["mc", "--mode", "access", "--n", "300", "--t-read", "1.2e-10"]),
        ("vth_n_mean", ["characterize", "--mode", "write"]),
        ("vth_p_sigma", ["mc", "--oracle", "ode", "--mode", "write", "--n", "300",
                         "--t-write", "2e-11"]),
    ])
    def test_huge_threshold_rejected(self, tmp_path, capsys, field, argv):
        # a threshold of 1e300 V would overflow the gate polynomial
        var = bundled("default_variation.json")
        var[field] = 1e300
        var_json = tmp_path / "variation.json"
        var_json.write_text(json.dumps(var))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(tmp_path / "out", *argv, "--variation", str(var_json))
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN, err
        assert f"error: {field} must be " in err and "Traceback" not in err

    def test_failing_write_cell_names_v_star(self, tmp_path, capsys):
        # nmos lambda = -0.5: h_n/h_p is least inside the write path, at v*
        cell = bundled("default_cell.json")
        cell["nmos"]["lambda"] = -0.5
        cell_json = tmp_path / "cell.json"
        cell_json.write_text(json.dumps(cell))
        rc = run_cli(tmp_path, "characterize", "--mode", "write", "--cell", str(cell_json))
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN, err
        assert "pull-up overpowers pull-down in the closed write model near v_q = 0.4479 V" in err

    @pytest.mark.parametrize("oracle", ["closed", "ode"])
    def test_huge_read_time_is_quiet(self, tmp_path, oracle):
        # exp(p)*t/c_blb overflows to inf, which both oracles saturate at vdd
        cell = load_default_cell()
        delta_v = {"closed": delta_v_closed, "ode": delta_v_ode}[oracle]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dv = delta_v(cell, np.array([0.2, 0.38, 0.6]), 1e300)
            rc = run_cli(tmp_path, "mc", "--oracle", oracle, "--mode", "access",
                         "--n", "300", "--t-read", "1e300")
        assert np.all(dv == cell.vdd)
        assert rc == 0

    def test_huge_offset_sigma(self, tmp_path, capsys):
        # finite, but the squares of its BER window are not
        char, offset = tmp_path / "char.json", tmp_path / "offset.json"
        char.write_text(json.dumps(CONTRACT_INPUTS["access-characterization"][0]))
        offset.write_text(json.dumps({"schema": 1, "kind": "offset", "mu_vos": 0.0,
                                      "sigma_vos": 1e300}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(tmp_path, "yield", "--characterization", str(char),
                         "--constraints", "1.5e-10", "--offset", str(offset))
        assert rc == EXIT_DOMAIN
        assert "offset sigma_vos 1e+300" in capsys.readouterr().err

    def test_overflowing_write_time(self, tmp_path, capsys):
        cell = bundled("default_cell.json")
        cell["c_q"] = 1e300  # finite write times, but t/t0 overflows
        cell_json = tmp_path / "cell.json"
        cell_json.write_text(json.dumps(cell))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(tmp_path, "characterize", "--mode", "write", "--cell", str(cell_json))
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN, err
        assert "overflows sqrt(ln(t/t0))" in err and "zero variance" not in err

# JSON inputs of the CLI: (artifact, command reading it, a required key, a
# float field, an object field; each a key path, () meaning the top level).
CONTRACT_INPUTS = {
    "cell": (bundled("default_cell.json"),
             ["mc", "--mode", "write", "--n", "10", "--t-write", "2e-11", "--cell"],
             ("pmos", "lambda"), ("vdd",), ("nmos",)),
    "variation": (bundled("default_variation.json"),
                  ["mc", "--mode", "access", "--n", "10", "--t-read", "1.2e-10", "--variation"],
                  ("offset", "sigma_vos"), ("vth_n_mean",), ("offset",)),
    "write-characterization": (
        WriteTimeDistribution(mu_w=1.58, sigma_w=0.046).to_dict(),
        ["yield", "--constraints", "2e-11", "--characterization"],
        ("sigma_w",), ("mu_w",), ()),
    "access-characterization": (
        {"schema": 1, "kind": "access_characterization",
         "rows": [{"t_read": 1e-10, "mu_delta": 0.28, "sigma_delta": 0.012},
                  {"t_read": 2e-10, "mu_delta": 0.33, "sigma_delta": 0.011}]},
        ["yield", "--constraints", "1.5e-10", "--characterization"],
        ("rows", 0, "mu_delta"), ("rows", 1, "t_read"), ("rows", 0)),
    "fit-init": (bundled("device_table.json")["nch_svt"],
                 ["fit", "--iv", BUNDLED_IV, "--init"],
                 ("lambda",), ("i0",), ()),
}


def _mutated(artifact, mutation, key, field, obj):
    """Text of the artifact with one defect."""
    if mutation == "empty-file":
        return ""
    art = copy.deepcopy(artifact)
    path, value = {"drop-key": (key, None), "string-in-float": (field, "abc"),
                   "nan": (field, math.nan), "int-for-object": (obj, 5),
                   "top-level-list": ((), [art]), "bool-in-float": (field, True),
                   "numeric-string": (field, "0.5"), "float-seed": (("seed",), 160.5)}[mutation]
    if not path:
        return json.dumps(value)
    node = art
    for k in path[:-1]:
        node = node[k]
    if mutation == "drop-key":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(art)


class TestInputContract:
    @staticmethod
    def check_malformed(tmp_path, capsys, name, mutation):
        artifact, argv, key, field, obj = CONTRACT_INPUTS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(_mutated(artifact, mutation, key, field, obj))
        rc = run_cli(tmp_path / "out", *argv, str(path))
        err = capsys.readouterr().err
        assert rc == (EXIT_DOMAIN if mutation == "nan" else EXIT_PARSE), err
        assert "Traceback" not in err
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("mutation", ["drop-key", "string-in-float", "int-for-object",
                                          "top-level-list", "empty-file", "nan",
                                          "bool-in-float", "numeric-string"])
    @pytest.mark.parametrize("name", list(CONTRACT_INPUTS))
    def test_malformed_json_input(self, tmp_path, capsys, name, mutation):
        err = self.check_malformed(tmp_path, capsys, name, mutation)
        if mutation == "drop-key":
            assert f"missing key '{CONTRACT_INPUTS[name][2][-1]}'" in err

    def test_float_seed(self, tmp_path, capsys):
        err = self.check_malformed(tmp_path, capsys, "variation", "float-seed")
        assert "seed must be an integer, got 160.5" in err

    @pytest.mark.parametrize("flags, code", [
        (("--t-lo", "1e-10"), EXIT_PARSE),
        (("--t-hi", "1e-10"), EXIT_PARSE),
        (("--t-lo", "0", "--t-hi", "1e-10"), EXIT_DOMAIN),
        (("--t-lo", "1e-10", "--t-hi", "inf"), EXIT_DOMAIN),
        (("--t-lo", "nan", "--t-hi", "1e-10"), EXIT_DOMAIN),
        (("--t-lo", "2e-10", "--t-hi", "1e-10"), EXIT_DOMAIN),
        (("--t-lo", "1e-10", "--t-hi", "1e-10"), EXIT_DOMAIN),  # 12 points on one time
        (("--t-lo", "1e-10", "--t-hi", "2e-10", "--grid-points", "-1"), EXIT_DOMAIN),
    ])
    def test_characterize_read_range(self, tmp_path, capsys, flags, code):
        rc = run_cli(tmp_path, "characterize", "--mode", "access", "--n", "60", *flags)
        err = capsys.readouterr().err
        assert rc == code, err
        assert "Traceback" not in err
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one(self, tmp_path, capsys, monkeypatch, threads):
        drawn = []
        monkeypatch.setattr(mc, "draw_access_samples", lambda *args: drawn.append(args))
        rc = run_cli(tmp_path, "--threads", threads, "mc", "--mode", "access", "--n", "100",
                     "--t-read", "1e-10")
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN, err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: --threads must be >= 1, got {threads}"]
        assert drawn == [] and not (tmp_path / "mc.json").exists()

    def test_unmodified_inputs_pass(self, tmp_path):
        for name, (artifact, argv, *_) in CONTRACT_INPUTS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(artifact))
            assert run_cli(tmp_path / name, *argv, str(path)) == 0, name


def _iv_mutation(mutation):
    """The bundled I-V CSV with one defect; data line 4 is file line 6."""
    lines = open(BUNDLED_IV).read().splitlines(keepends=True)
    head, row, tail = lines[:5], lines[5].rstrip("\n").split(","), lines[6:]
    if mutation == "empty-file":
        return ""
    if mutation == "header-only":
        return "".join(lines[:2])
    if mutation == "dropped-column":
        return "".join(",".join(line.split(",")[:3]).rstrip("\n") + "\n" for line in lines)
    if mutation == "binary-bytes":
        return bytes(range(256)) * 4
    if mutation == "short-row":
        row = row[:3]
    else:
        row[2] = {"text-in-cell": "abc", "nan": "nan", "inf": "inf"}[mutation]
    return "".join(head + [",".join(row) + "\n"] + tail)


# mutation -> (exit code, expected text in the error line)
IV_MUTATIONS = {
    "empty-file": (EXIT_PARSE, "empty file"),
    "header-only": (EXIT_PARSE, "no data rows"),
    "dropped-column": (EXIT_PARSE, "expected header"),
    "text-in-cell": (EXIT_PARSE, "iv.csv:6: could not convert"),
    "short-row": (EXIT_PARSE, "iv.csv:6: expected 4 columns"),
    "binary-bytes": (EXIT_PARSE, "cannot read"),
    "nan": (EXIT_DOMAIN, "iv.csv:6: non-finite value"),
    "inf": (EXIT_DOMAIN, "iv.csv:6: non-finite value"),
}


class TestIvCsvContract:
    @pytest.mark.parametrize("mutation", list(IV_MUTATIONS))
    def test_malformed_iv_csv(self, tmp_path, capsys, mutation):
        path = tmp_path / "iv.csv"
        text = _iv_mutation(mutation)
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        rc = run_cli(tmp_path / "out", "fit", "--iv", str(path))
        err = capsys.readouterr().err
        code, message = IV_MUTATIONS[mutation]
        assert rc == code, err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and message in errors[0], err


class TestFit:
    def test_bundled_dataset_converges(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "fit", "--iv", BUNDLED_IV, "--emit-iv", "curves.csv")
        assert rc == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["converged"] is True
        assert report["params"]["polarity"] == "nmos"
        assert report["max_rel_error_sat"] < 0.05
        out = capsys.readouterr().out
        assert "max_rel_error_sat" in out and "avg_rel_error_sat" in out
        header, rows = csv_rows(tmp_path / "curves.csv")
        assert header == "vgs,vds,ids_data,ids_model"
        n_input = sum(
            1 for l in open(BUNDLED_IV) if l.strip() and not l.startswith("#")
        ) - 1
        assert len(rows) == n_input
        # numeric columns parse cleanly
        assert all(float(c) > 0 for c in rows[0][2:])

    def test_fit_with_explicit_init(self, tmp_path):
        first = run_cli(tmp_path, "fit", "--iv", BUNDLED_IV)
        assert first == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        init = tmp_path / "init.json"
        init.write_text(json.dumps(report["params"]))
        d2 = tmp_path / "second"
        rc = run_cli(d2, "fit", "--iv", BUNDLED_IV, "--init", str(init))
        assert rc == 0
        again = json.loads((d2 / "fit.json").read_text())
        assert again["params"]["i0"] == pytest.approx(report["params"]["i0"], rel=1e-6, abs=0)
        assert str(init) in read_manifest(d2)["inputs"]


class TestCharacterize:
    def test_access_table_shape(self, tmp_path):
        rc = run_cli(tmp_path, "characterize", "--mode", "access",
                     "--n", "60", "--grid-points", "5")
        assert rc == 0
        table = json.loads((tmp_path / "characterization.json").read_text())
        assert table["kind"] == "access_characterization"
        assert len(table["rows"]) == 5
        times = [r["t_read"] for r in table["rows"]]
        assert times == sorted(times)

    def test_single_point_grid(self, tmp_path):
        rc = run_cli(tmp_path, "characterize", "--mode", "access", "--n", "60",
                     "--grid-points", "2", "--t-lo", "1e-10", "--t-hi", "2e-10")
        assert rc == 0
        rows = json.loads((tmp_path / "characterization.json").read_text())["rows"]
        assert len(rows) == 2
        single = tmp_path / "one"
        rc = run_cli(single, "characterize", "--mode", "access", "--n", "60",
                     "--grid-points", "1", "--t-lo", "1e-10", "--t-hi", "1e-10")
        assert rc == 0
        rows = json.loads((single / "characterization.json").read_text())["rows"]
        assert len(rows) == 1

    @staticmethod
    def cell_file(path, **fields):
        path.write_text(json.dumps(dict(bundled("default_cell.json"), **fields)))
        return str(path)

    def test_sub_femtosecond_discharge(self, tmp_path, default_variation):
        cell = self.cell_file(tmp_path / "cell.json", c_blb=1e-21)
        rc = run_cli(tmp_path, "characterize", "--mode", "access", "--n", "60", "--cell", cell)
        assert rc == 0
        times = [r["t_read"] for r in
                 json.loads((tmp_path / "characterization.json").read_text())["rows"]]
        assert times[-1] < 1e-17
        tiny = read_cell_json(cell)
        off = default_variation.offset
        for t, z in ((times[0], 1.6), (times[-1], 5.2)):
            dv = delta_v_closed(tiny, tiny.nmos.vth_nominal, t)
            assert dv == pytest.approx(off.mu_vos + z * off.sigma_vos, rel=1e-13, abs=0)
        rc = run_cli(tmp_path / "sweep", "sweep", "--axis", "vwl", "--values", "0.6,0.55",
                     "--mode", "access", "--char-n", "60", "--cell", cell)
        assert rc == 0

    def test_unreachable_read_window(self, tmp_path, capsys):
        cell = self.cell_file(tmp_path / "cell.json", c_blb=1.0)
        rc = run_cli(tmp_path, "characterize", "--mode", "access", "--n", "60", "--cell", cell)
        err = capsys.readouterr().err
        assert rc == EXIT_DOMAIN, err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "cannot reach delta_v" in errors[0]
        assert errors[0].endswith("V on this cell")

    def test_write_moments(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "characterize", "--mode", "write", "--n", "128")
        assert rc == 0
        dist = json.loads((tmp_path / "characterization.json").read_text())
        assert dist["kind"] == "write_time"
        assert dist["mu_w"] > 0 and dist["sigma_w"] > 0 and dist["t0"] == 1e-12
        assert "mu_w=" in capsys.readouterr().out

    def test_seed_override_recorded(self, tmp_path):
        rc = run_cli(tmp_path, "--seed", "7", "characterize", "--mode", "write",
                     "--n", "128")
        assert rc == 0
        assert read_manifest(tmp_path)["seed"] == 7


class TestFloatWriters:
    """The Q-Q and fitted-curve CSVs keep the bytes of the per-row repr writers."""

    def test_qq_csv_matches_repr_rows(self, tmp_path, monkeypatch):
        from sramyield import artifacts
        from sramyield.yieldmodel import write_qq_csv

        monkeypatch.setattr(artifacts, "_EXPORT_ROWS", 64)  # several chunks
        rng = np.random.default_rng(3)
        points = np.column_stack([rng.normal(0.0, 1.0, 1000),
                                  rng.lognormal(np.log(1e-11), 3.0, 1000)])
        points[:5, 0] = [0.0, -0.0, 1e-300, -2.5e17, 5e-324]
        path = tmp_path / "qq.csv"
        write_qq_csv(points, 0.987654321, path)
        want = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in points)
        head = "# manifest: manifest.json\n# pearson_r: 0.987654321\ntheoretical,empirical\n"
        assert path.read_text() == head + want

    def test_emit_iv_matches_repr_rows(self, tmp_path):
        from sramyield.devices import DeviceParams
        from sramyield.fitting import model_currents, read_iv_csv

        rc = run_cli(tmp_path, "fit", "--iv", BUNDLED_IV, "--emit-iv", "curves.csv")
        assert rc == 0
        data = read_iv_csv(BUNDLED_IV)
        params = DeviceParams.from_dict(json.loads((tmp_path / "fit.json").read_text())["params"])
        fitted = model_currents(params, data)
        want = "".join(f"{float(a)!r},{float(b)!r},{float(c)!r},{float(m)!r}\n"
                       for a, b, c, m in zip(data.vgs, data.vds, data.ids, fitted))
        head = "# manifest: manifest.json\nvgs,vds,ids_data,ids_model\n"
        assert (tmp_path / "curves.csv").read_text() == head + want


class TestYield:
    def test_write_target_median(self, tmp_path, write_char):
        rc = run_cli(tmp_path, "yield", "--characterization", str(write_char),
                     "--target", "0.5")
        assert rc == 0
        header, rows = csv_rows(tmp_path / "yield.csv")
        assert header == "constraint,pf_analytical,pf_mc,mc_lo,mc_hi"
        assert len(rows) == 1
        dist = json.loads(write_char.read_text())
        t_med = dist["t0"] * math.exp(dist["mu_w"] ** 2)
        assert float(rows[0][0]) == pytest.approx(t_med, rel=1e-12, abs=0)
        assert float(rows[0][1]) == 0.5
        assert rows[0][2:] == ["", "", ""]

    def test_write_constraint_rows(self, tmp_path, write_char):
        rc = run_cli(tmp_path, "yield", "--characterization", str(write_char),
                     "--constraints", "1e-11,2e-11,5e-11")
        assert rc == 0
        _, rows = csv_rows(tmp_path / "yield.csv")
        dist = WriteTimeDistribution.from_dict(json.loads(write_char.read_text()))
        pfs = [float(r[1]) for r in rows]
        assert pfs == [write_fail_prob(dist, t) for t in (1e-11, 2e-11, 5e-11)]
        assert pfs == sorted(pfs, reverse=True)

    def test_access_curve_monotone(self, tmp_path):
        char_dir = tmp_path / "char"
        rc = run_cli(char_dir, "characterize", "--mode", "access",
                     "--n", "200", "--grid-points", "8")
        assert rc == 0
        table = json.loads((char_dir / "characterization.json").read_text())
        times = [r["t_read"] for r in table["rows"]]
        picks = ",".join(repr(t) for t in times[1:6])
        rc = run_cli(tmp_path, "yield",
                     "--characterization", str(char_dir / "characterization.json"),
                     "--constraints", picks)
        assert rc == 0
        _, rows = csv_rows(tmp_path / "yield.csv")
        pfs = [float(r[1]) for r in rows]
        # wider read windows discharge further: failure probability falls
        assert pfs == sorted(pfs, reverse=True)

    def test_write_target_below_resolution(self, tmp_path, write_char, capsys):
        # 1 - 1e-17 rounds to 1: this used to print "constraint inf s" with exit 0
        rc = run_cli(tmp_path, "yield", "--characterization", str(write_char),
                     "--target", "1e-17")
        assert rc == EXIT_DOMAIN
        assert "below the resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--constraints", "1e-10"], ["--target", "1e-3"]])
    @pytest.mark.parametrize("record", [{"kind": "access_delta", "mu_delta": 0.3,
                                         "sigma_delta": 0.012},
                                        {"kind": "offset", "mu_vos": 0.0, "sigma_vos": 0.03}],
                             ids=["access_delta", "offset"])
    def test_wrong_kind_of_characterization(self, tmp_path, capsys, record, flags):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"schema": 1, **record}))
        rc = run_cli(tmp_path, "yield", "--characterization", str(path), *flags)
        assert rc == EXIT_PARSE
        assert f"holds kind {record['kind']!r}" in capsys.readouterr().err

    def test_out_of_grid_exit(self, tmp_path):
        char_dir = tmp_path / "char"
        run_cli(char_dir, "characterize", "--mode", "access", "--n", "60",
                "--grid-points", "3")
        rc = run_cli(tmp_path, "yield",
                     "--characterization", str(char_dir / "characterization.json"),
                     "--constraints", "1.0")
        assert rc == EXIT_DOMAIN


class TestCompare:
    def test_write_comparison_format(self, tmp_path):
        rc = run_cli(tmp_path, "compare", "--mode", "write",
                     "--constraints", "1.3e-11,1.0", "--n", "2000", "--char-n", "128")
        assert rc == 0
        header, rows = csv_rows(tmp_path / "compare.csv")
        assert header == "constraint,pf_analytical,pf_mc,mc_lo,mc_hi,rel_error,oracle"
        assert len(rows) == 2
        assert all(r[6] == "closed" for r in rows)
        tight, loose = rows
        assert float(tight[5]) >= 0.0  # failures observed: error defined
        assert loose[2] == "0.0" and loose[5] == ""  # zero failures: omitted

    def test_access_comparison_runs(self, tmp_path):
        rc = run_cli(tmp_path, "compare", "--mode", "access",
                     "--constraints", "1.1e-10", "--n", "4000",
                     "--char-n", "200", "--grid-points", "6")
        assert rc == 0
        _, rows = csv_rows(tmp_path / "compare.csv")
        pf_a, pf_mc = float(rows[0][1]), float(rows[0][2])
        assert 0.0 < pf_a < 1.0
        assert abs(pf_a - pf_mc) < 0.1


    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("oracle", ["closed", "ode"])
    @pytest.mark.parametrize("role", ["access", "write"])
    def test_one_pass_equals_one_run_per_constraint(self, tmp_path, default_cell,
                                                    default_variation, role, oracle, threads):
        n = mc._BLOCK + 5 if oracle == "closed" else 700
        constraints = [8e-11, 1.1e-10, 1.5e-10] if role == "access" else [1.2e-11, 1.3e-11, 1.4e-11]
        rc = run_cli(tmp_path, "--threads", str(threads), "compare", "--mode", role,
                     "--oracle", oracle, "--constraints", ",".join(map(repr, constraints)),
                     "--n", str(n), "--char-n", "128")
        assert rc == 0
        _, rows = csv_rows(tmp_path / "compare.csv")
        assert any(float(row[2]) > 0.0 for row in rows)
        for t, row in zip(constraints, rows, strict=True):
            if role == "access":
                r = run_access_mc(default_cell, default_variation, n, t, mode=oracle,
                                  threads=threads)
            else:
                r = run_write_mc(default_cell, default_variation, n, t, mode=oracle,
                                 threads=threads)
            assert [float(x) for x in row[2:5]] == [r.pf, *r.ci95]


class TestSweep:
    def test_single_value_normalizes_to_one(self, tmp_path):
        rc = run_cli(tmp_path, "sweep", "--axis", "vwl", "--values", "0.5",
                     "--mode", "write", "--char-n", "128")
        assert rc == 0
        header, rows = csv_rows(tmp_path / "sweep.csv")
        assert header == "axis,value,t_at_target,normalized"
        assert len(rows) == 1
        assert rows[0][0] == "vwl"
        assert float(rows[0][3]) == 1.0

    def test_underdriven_wordline_slows_reads(self, tmp_path):
        rc = run_cli(tmp_path, "sweep", "--axis", "vwl", "--values", "0.5,0.45,0.4",
                     "--mode", "access", "--char-n", "200", "--grid-points", "6")
        assert rc == 0
        _, rows = csv_rows(tmp_path / "sweep.csv")
        t_at = [float(r[2]) for r in rows]
        norm = [float(r[3]) for r in rows]
        assert t_at[0] < t_at[1] < t_at[2]
        assert norm[0] == 1.0 and norm[2] > norm[1] > 1.0

    def test_temperature_sweep_warns(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "sweep", "--axis", "temperature", "--values", "25,85",
                     "--mode", "write", "--char-n", "128")
        assert rc == 0
        assert "thermal voltage only" in capsys.readouterr().err

    def test_invalid_point_names_itself(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "sweep", "--axis", "vwl", "--values", "0.5,0.9",
                     "--mode", "write", "--char-n", "128")
        assert rc == EXIT_DOMAIN
        assert "vwl=0.9" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, target, message", [
        ("access", "1e-9", "outside the achievable range"),
        ("write", "1e-17", "below the resolution")])
    def test_first_failing_point_is_named(self, tmp_path, capsys, mode, target, message):
        # vwl=0.5 fails late (at its inversion), vwl=0.9 early (building its cell)
        rc = run_cli(tmp_path, "sweep", "--axis", "vwl", "--values", "0.55,0.5,0.9",
                     "--mode", mode, "--target", target, "--char-n", "128")
        assert rc == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "sweep point vwl=0.55 failed" in err and message in err

    # the two sweeps of the design benchmark at --seed 160: sha256 of sweep.csv
    # and the manifest digest, as the per-point loop wrote them
    DESIGN = {
        "vwl": ("access", np.linspace(0.65, 0.45, 81),
                "63c68dadbc554faceb81f4c5635add0fd42ed51008933888754fa4e2d54c80d0",
                "27f07c4974ed42858705d0aa69ddf98beec8827961dbc08bfdbe9c6456ccf6e4"),
        "vdd": ("write", np.linspace(0.7, 0.35, 351),
                "83c4ccd557893f8f0d39b464ef2cf37a9452f5410b5a25ae5244b40d831cd138",
                "29be218b7a2e60eb9528fd5d1ecaac74e8d4963a010ec850d4bf792b66d0fcc3"),
    }

    @pytest.mark.parametrize("axis", sorted(DESIGN))
    def test_design_sweep_bytes_are_pinned(self, tmp_path, axis):
        import hashlib

        mode, values, csv_sha, digest = self.DESIGN[axis]
        rc = main(["--out-dir", str(tmp_path), "--seed", "160", "sweep", "--axis", axis,
                   "--mode", mode, "--values", ",".join(f"{v:.4f}" for v in values),
                   "--target", "3.17e-05"])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == csv_sha
        assert read_manifest(tmp_path)["digest"] == digest

    @pytest.mark.parametrize("chunk_lanes", [None, 1])
    @pytest.mark.parametrize("axis, mode, values", [
        ("vwl", "access", "0.65,0.6,0.55,0.5,0.45"),
        ("vdd", "write", "0.7,0.6,0.5,0.4"),
        ("temperature", "write", "5,25,85")])
    def test_rows_match_points_swept_alone(self, tmp_path, monkeypatch, chunk_lanes, axis,
                                           mode, values):
        if chunk_lanes is not None:  # one cell per chunk
            monkeypatch.setattr(mc, "_BLOCK", chunk_lanes)
        flags = ["--axis", axis, "--mode", mode, "--char-n", "100"]
        assert run_cli(tmp_path / "all", "sweep", *flags, "--values", values) == 0
        _, rows = csv_rows(tmp_path / "all" / "sweep.csv")
        for i, v in enumerate(values.split(",")):
            assert run_cli(tmp_path / v, "sweep", *flags, "--values", v) == 0
            _, (alone,) = csv_rows(tmp_path / v / "sweep.csv")
            assert rows[i][:3] == alone[:3]

    @pytest.mark.parametrize("mode, per_cell", [("access", 4 * 50), ("write", 50)])
    def test_characterization_drawn_once_per_command(self, tmp_path, monkeypatch, mode,
                                                     per_cell):
        # every sweep point is characterized on the same lanes, drawn once
        name = f"draw_{mode}_samples"
        draw, drawn = getattr(mc, name), []
        monkeypatch.setattr(mc, name, lambda var, start, count: drawn.append((start, count))
                            or draw(var, start, count))
        monkeypatch.setattr(mc, "_BLOCK", 64)
        rc = run_cli(tmp_path, "--threads", "3", "sweep", "--axis", "vwl", "--values",
                     "0.65,0.6,0.55,0.5", "--mode", mode, "--char-n", "50",
                     "--grid-points", "4")
        assert rc == 0
        indices = [i for start, count in drawn for i in range(start, start + count)]
        assert sorted(indices) == list(range(per_cell))

    # cells whose pull-up check once took a 1025-point scan (a negative pmos
    # lambda; an overpowering pull-up): sha256 of sweep.csv, as the scan on
    # every chunk wrote it, or the error
    @pytest.mark.parametrize("key, value, rc, expect", [
        ("lambda", -0.02, 0, "686599fb44733e136a341002f22ed25e6a2a3ea204f03b0c9326e54f5c370018"),
        ("i0", 1e-4, EXIT_DOMAIN,
         "error: sweep point vdd=0.7 failed: pull-up overpowers pull-down in the closed "
         "write model near v_q = 0.3500 V; closed write times are undefined\n"),
    ], ids=["negative-lambda", "overpowered"])
    def test_scanned_write_cells(self, tmp_path, capsys, key, value, rc, expect):
        import hashlib

        cell = bundled("default_cell.json")
        cell["pmos"][key] = value
        cell_json = tmp_path / "cell.json"
        cell_json.write_text(json.dumps(cell))
        assert main(["--out-dir", str(tmp_path / "out"), "--seed", "160", "sweep", "--cell",
                     str(cell_json), "--axis", "vdd", "--mode", "write", "--values",
                     "0.7,0.6,0.5,0.45,0.4", "--char-n", "100"]) == rc
        if rc:
            assert capsys.readouterr().err == expect
        else:
            csv_bytes = (tmp_path / "out" / "sweep.csv").read_bytes()
            assert hashlib.sha256(csv_bytes).hexdigest() == expect


class TestQq:
    def test_access_full_curve(self, tmp_path):
        rc = run_cli(tmp_path, "qq", "--mode", "access", "--n", "2000",
                     "--t-read", "1.11e-10")
        assert rc == 0
        lines = (tmp_path / "qq.csv").read_text().splitlines()
        assert lines[0] == "# manifest: manifest.json"
        assert lines[1].startswith("# pearson_r: ")
        assert lines[2] == "theoretical,empirical"
        assert len(lines) == 3 + 2000
        assert float(lines[1].split(":")[1]) > 0.99

    def test_write_tail_restriction(self, tmp_path):
        rc = run_cli(tmp_path, "qq", "--mode", "write", "--n", "20000",
                     "--tail-percent", "1")
        assert rc == 0
        lines = (tmp_path / "qq.csv").read_text().splitlines()
        assert len(lines) == 3 + 200
        theo = np.array([float(l.split(",")[0]) for l in lines[3:]])
        emp = np.array([float(l.split(",")[1]) for l in lines[3:]])
        # highest-percentile restriction: all pairs above the bulk
        assert np.all(np.diff(theo) >= 0.0)
        assert np.median(emp) > 0.0


class TestMc:
    def test_access_result_payload(self, tmp_path):
        rc = run_cli(tmp_path, "mc", "--mode", "access", "--n", "5000",
                     "--t-read", "1.11e-10", "--export", "samples.csv")
        assert rc == 0
        payload = json.loads((tmp_path / "mc.json").read_text())
        assert payload["n"] == 5000
        assert payload["failures"] == round(payload["pf"] * 5000)
        assert payload["ci95"][0] <= payload["pf"] <= payload["ci95"][1]
        assert payload["samples_path"] == "samples.csv"
        assert payload["manifest"] == "manifest.json"
        assert "wall_time" not in payload
        n_rows = sum(
            1 for l in (tmp_path / "samples.csv").read_text().splitlines()
            if not l.startswith("#")
        ) - 1
        assert n_rows == 5000

    def test_write_mode(self, tmp_path):
        rc = run_cli(tmp_path, "mc", "--mode", "write", "--n", "5000",
                     "--t-write", "2e-11")
        assert rc == 0
        payload = json.loads((tmp_path / "mc.json").read_text())
        assert 0.0 <= payload["pf"] <= 1.0

    def test_failing_block_leaves_out_dir_empty(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 64)
        calls = []

        def fail_second(cell, vth_n):
            calls.append(len(vth_n))
            if len(calls) == 2:
                raise DomainError("second block")
            return write_time_closed(cell, vth_n)

        monkeypatch.setattr(mc, "write_time_closed", fail_second)
        rc = run_cli(tmp_path, "mc", "--mode", "write", "--n", "1000", "--t-write", "2e-11",
                     "--export", "samples.csv")
        assert rc == EXIT_DOMAIN
        assert "error: second block" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOutputNames:
    """Every output name is a plain file name in --out-dir, taken once per run."""

    MC = ("mc", "--mode", "access", "--n", "1000", "--t-read", "1.2e-10")

    @pytest.mark.parametrize("flags,message", [
        (("--export", "mc.json"), "already taken"),
        (("--export", "manifest.json"), "already taken"),
        (("--out", "manifest.json"), "already taken"),
        (("--out", "x.json", "--export", "x.json"), "already taken"),
        (("--export", ""), "not a plain file name"),
        (("--export", "."), "not a plain file name"),
        (("--export", ".."), "not a plain file name"),
        (("--export", "../x.csv"), "not a plain file name"),
        (("--export", "sub/x.csv"), "not a plain file name"),
        (("--out", "/tmp/mc.json"), "not a plain file name"),
    ])
    def test_mc_rejects_before_running(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(mc, "draw_access_samples", lambda *a: pytest.fail("MC ran"))
        out = tmp_path / "out"
        assert run_cli(out, *self.MC, *flags) == EXIT_PARSE
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]

    @pytest.mark.parametrize("flags", [("--emit-iv", "fit.json"), ("--emit-iv", "manifest.json"),
                                       ("--emit-iv", ""), ("--emit-iv", "../curves.csv"),
                                       ("--out", "manifest.json")])
    def test_fit_rejects_before_fitting(self, tmp_path, flags):
        out = tmp_path / "out"
        assert run_cli(out, "fit", "--iv", BUNDLED_IV, *flags) == EXIT_PARSE
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]

    @pytest.mark.parametrize("argv", [
        ("characterize", "--mode", "write", "--out", "manifest.json"),
        ("compare", "--mode", "write", "--constraints", "2e-11", "--out", "../compare.csv"),
        ("sweep", "--axis", "vwl", "--values", "0.6", "--mode", "access", "--out", ""),
        ("qq", "--mode", "write", "--out", "."),
    ])
    def test_every_command_checks_its_name_first(self, tmp_path, monkeypatch, argv):
        for name in ("draw_access_samples", "draw_write_samples"):
            monkeypatch.setattr(mc, name, lambda *a: pytest.fail("sampled"))
        out = tmp_path / "out"
        assert run_cli(out, *argv) == EXIT_PARSE
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]

    def test_distinct_names_pass(self, tmp_path):
        assert run_cli(tmp_path, *self.MC, "--out", "run.json", "--export", "mc.json") == 0
        assert sorted(read_manifest(tmp_path)["outputs"]) == ["mc.json", "run.json"]
        assert json.loads((tmp_path / "run.json").read_text())["samples_path"] == "mc.json"


class TestReproducibility:
    ARGS = ("mc", "--mode", "access", "--n", "3000", "--t-read", "1.2e-10",
            "--export", "samples.csv")

    def test_rerun_digest_and_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(d1, *self.ARGS) == 0
        assert run_cli(d2, *self.ARGS) == 0
        m1, m2 = read_manifest(d1), read_manifest(d2)
        assert m1["digest"] == m2["digest"]
        assert (d1 / "mc.json").read_bytes() == (d2 / "mc.json").read_bytes()
        assert (d1 / "samples.csv").read_bytes() == (d2 / "samples.csv").read_bytes()

    def test_thread_count_is_execution_detail(self, tmp_path):
        digests = []
        for threads in ("1", "2", "8"):
            d = tmp_path / threads
            rc = main(["--out-dir", str(d), "--threads", threads, *self.ARGS])
            assert rc == 0
            digests.append(read_manifest(d)["digest"])
        assert digests[0] == digests[1] == digests[2]
        # equals-form spelling of the flag normalizes identically
        d = tmp_path / "eq"
        rc = main([f"--out-dir={d}", "--threads=4", *self.ARGS])
        assert rc == 0
        assert read_manifest(d)["digest"] == digests[0]

    @pytest.mark.parametrize("flag", [("--thr", "2"), ("--json-l",)])
    def test_abbreviated_execution_flag_is_rejected(self, tmp_path, flag):
        # an abbreviation would escape the normalization of the digested command
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, *flag, *self.ARGS)
        assert exc.value.code == EXIT_PARSE
        assert not (tmp_path / "mc.json").exists()

    def test_abbreviated_subcommand_flag_is_rejected(self, tmp_path):
        # `--t-re` would run the same MC under another command digest than `--t-read`
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path / "abbrev", "mc", "--mode", "access", "--n", "1000",
                    "--t-re", "1.2e-10")
        assert exc.value.code == EXIT_PARSE
        assert not (tmp_path / "abbrev").exists()
        assert run_cli(tmp_path / "full", "mc", "--mode", "access", "--n", "1000",
                       "--t-read", "1.2e-10") == 0

    @pytest.mark.parametrize("role", [
        ("--mode", "access", "--t-read", "1.2e-10"),
        ("--mode", "write", "--t-write", "1.6e-11", "--t-max", "1.6e-11"),
    ])
    def test_ode_oracle_thread_invariance(self, tmp_path, role):
        outputs = []
        for threads in ("1", "3"):
            d = tmp_path / threads
            rc = main(["--out-dir", str(d), "--threads", threads, "mc", "--oracle", "ode",
                       "--n", "900", *role, "--export", "samples.csv"])
            assert rc == 0
            outputs.append(((d / "mc.json").read_bytes(), (d / "samples.csv").read_bytes(),
                            read_manifest(d)["digest"]))
        assert outputs[0] == outputs[1]
        if "write" in role:  # censored lanes take their own path
            assert b",inf," in outputs[0][1]

    @pytest.mark.parametrize("mode", ["access", "write"])
    def test_sweep_thread_invariance(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(mc, "_BLOCK", 64)  # several blocks per characterization
        outputs = []
        for threads in ("1", "3"):
            d = tmp_path / threads
            rc = main(["--out-dir", str(d), "--threads", threads, "sweep", "--axis", "vwl",
                       "--values", "0.65,0.55,0.5", "--mode", mode, "--char-n", "100",
                       "--grid-points", "5"])
            assert rc == 0
            outputs.append(((d / "sweep.csv").read_bytes(), read_manifest(d)["digest"]))
        assert outputs[0] == outputs[1]

    def test_manifest_hashes_match_files(self, tmp_path):
        import hashlib

        assert run_cli(tmp_path, *self.ARGS) == 0
        m = read_manifest(tmp_path)
        for name, digest in m["outputs"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest
        assert m["argv"][0] == "--out-dir"  # full argv kept for the record
        assert m["tool"].startswith("sramyield ")

    @pytest.mark.parametrize("argv, names", [
        (("mc", "--mode", "access", "--n", "3000", "--t-read", "1.2e-10", "--export",
          "samples.csv"), ["mc.json", "samples.csv"]),
        (("mc", "--mode", "write", "--n", "3000", "--t-write", "2e-11", "--export",
          "samples.csv"), ["mc.json", "samples.csv"]),
        (("compare", "--mode", "write", "--constraints", "1.3e-11,2.2e-11", "--n", "5000",
          "--char-n", "400"), ["compare.csv"]),
        (("sweep", "--axis", "vwl", "--values", "0.65,0.55", "--mode", "access",
          "--char-n", "100", "--grid-points", "5"), ["sweep.csv"]),
        (("qq", "--mode", "write", "--n", "2000"), ["qq.csv"]),
        (("fit", "--iv", BUNDLED_IV, "--vth", "0.35", "--emit-iv", "curves.csv"),
         ["curves.csv", "fit.json"]),
    ], ids=["mc-access", "mc-write", "compare", "sweep", "qq", "fit"])
    def test_output_digests_are_taken_as_written(self, tmp_path, monkeypatch, argv, names):
        import hashlib

        from sramyield import cli

        hashed = []
        sha256_file = cli._sha256_file
        monkeypatch.setattr(cli, "_sha256_file",
                            lambda path: hashed.append(str(path)) or sha256_file(path))
        out = tmp_path / "out"
        assert run_cli(out, *argv) == 0
        outputs = read_manifest(out)["outputs"]
        assert sorted(outputs) == names
        for name, digest in outputs.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert not [p for p in hashed if p.startswith(str(out))]  # no output is read back

    def test_different_seed_changes_outputs(self, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["--out-dir", str(d1), "--seed", "1", *self.ARGS]) == 0
        assert main(["--out-dir", str(d2), "--seed", "2", *self.ARGS]) == 0
        assert read_manifest(d1)["digest"] != read_manifest(d2)["digest"]


class TestLogging:
    def test_json_logs_parse(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "--json-logs",
                   "characterize", "--mode", "write", "--n", "128"])
        assert rc == 0
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert err_lines
        for line in err_lines:
            rec = json.loads(line)
            assert rec["level"] in ("info", "warning")
            assert "msg" in rec


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sramyield.cli", "--out-dir", str(tmp_path),
             "characterize", "--mode", "write", "--n", "128"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "characterization.json").exists()
        assert "mu_w=" in proc.stdout
