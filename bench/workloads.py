"""Workload scripts of the sramyield benchmark and the checks on their outputs.

A workload is a fixed list of real `sramyield` subcommands, run one after
another (closed loop) through `sramyield.cli.main(argv)`. The seed is the
only input that varies between runs. It reaches the program as the global
`--seed` flag. The constraint times the scripts ask about are derived from
it here, at set-up, with the same library calls the program makes, so the
analytical side of every `compare` row sits at a known failure probability.
NOTES.md says why each workload exists.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from sramyield.mc import VariationSpec, characterize_access, characterize_write
from sramyield.transients import load_default_cell
from sramyield.yieldmodel import FOUR_SIGMA_PF, auto_read_grid, invert_for_constraint

IV_CSV = "src/sramyield/data/nch_svt_iv.csv"  # relative to the checkout root
GRID_POINTS = 12  # the workbench default
ACCESS_CHAR_N = 2000  # compare --char-n on verify-closed, access
WRITE_CHAR_N = 16000  # compare --char-n on verify-closed, write
# The C05/C06 acceptance rule: |pf_analytical - pf_mc| / pf_mc within the
# bound, or pf_analytical inside the Wilson interval of the MC estimate.
REL_BOUND = {"access": 0.20, "write": 0.25}


@dataclass
class Command:
    name: str  # also the name of its output directory
    argv: list  # subcommand and its flags, after the global flags
    samples: int  # MC samples the command requests
    check: Callable[[Path], str | None]  # output directory -> error or None


@dataclass
class Workload:
    name: str
    threads: int
    commands: list
    expected_spans: tuple  # span keys a traced pass must record


def _fmt_list(values):
    return ",".join(repr(float(v)) for v in values)


def _csv_rows(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _exit_only(out_dir):
    return None


def _pf_in_ci(pf, lo, hi, what):
    if not (math.isfinite(pf) and lo <= pf <= hi):
        return f"{what}: pf {pf!r} outside its ci95 [{lo!r}, {hi!r}]"
    return None


def _check_mc_json(out_dir):
    out = json.loads((out_dir / "mc.json").read_text())
    return _pf_in_ci(out["pf"], out["ci95"][0], out["ci95"][1], "mc")


def _check_compare_ci(out_dir):
    for row in _csv_rows(out_dir / "compare.csv"):
        err = _pf_in_ci(float(row["pf_mc"]), float(row["mc_lo"]), float(row["mc_hi"]),
                        f"compare row {row['constraint']}")
        if err:
            return err
    return None


def _compare_rule(role):
    bound = REL_BOUND[role]

    def check(out_dir):
        rows = _csv_rows(out_dir / "compare.csv")
        if not rows:
            return "compare wrote no rows"
        for row in rows:
            pf_a, pf_mc = float(row["pf_analytical"]), float(row["pf_mc"])
            lo, hi = float(row["mc_lo"]), float(row["mc_hi"])
            rel = abs(pf_a - pf_mc) / pf_mc if pf_mc > 0.0 else math.inf
            if not (rel <= bound or lo <= pf_a <= hi):
                return (f"compare {role} row {row['constraint']}: rel {rel:.3f} > {bound} "
                        f"and pf_analytical {pf_a!r} outside [{lo!r}, {hi!r}]")
        return None

    return check


def _check_sweep(out_dir):
    t = [float(row["t_at_target"]) for row in _csv_rows(out_dir / "sweep.csv")]
    steps = np.diff(t)
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        return "sweep t_at_target is not monotone along the axis"
    return None


class _Inputs:
    """Library-side view of the bundled cell and variation at one seed."""

    def __init__(self, seed):
        self.cell = load_default_cell()
        text = resources.files("sramyield.data").joinpath("default_variation.json").read_text()
        self.var = dataclasses.replace(VariationSpec.from_dict(json.loads(text)), seed=seed)
        self.grid = auto_read_grid(self.cell, self.var.offset, GRID_POINTS)

    def read_times(self, targets, char_n=200):
        """Read times where a `compare --char-n char_n` analytical BER hits each target."""
        char = characterize_access(self.cell, self.var, self.grid, n=char_n)
        return [invert_for_constraint(char, p, offset=self.var.offset) for p in targets]

    def write_times(self, targets, char_n=1600):
        dist = characterize_write(self.cell, self.var, n=char_n)
        return [invert_for_constraint(dist, p) for p in targets]


def _design(inp, work_dir, scale):
    char_a, char_w = work_dir / "char-access", work_dir / "char-write"
    vwl = np.linspace(0.65, 0.45, max(3, round(81 * scale)))
    vdd = np.linspace(0.7, 0.35, max(3, round(351 * scale)))
    read_constraints = np.geomspace(inp.grid[1], inp.grid[-2], 8)
    write_constraints = inp.write_times([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    access_n, write_n = GRID_POINTS * 200, 1600
    commands = [
        Command("fit", ["fit", "--iv", IV_CSV, "--vth", "0.35"], 0, _exit_only),
        Command("char-access", ["characterize", "--mode", "access"], access_n, _exit_only),
        Command("char-write", ["characterize", "--mode", "write"], write_n, _exit_only),
        Command("yield-target-access", ["yield", "--characterization",
                str(char_a / "characterization.json"), "--target", repr(FOUR_SIGMA_PF)],
                0, _exit_only),
        Command("yield-target-write", ["yield", "--characterization",
                str(char_w / "characterization.json"), "--target", repr(FOUR_SIGMA_PF)],
                0, _exit_only),
        Command("yield-constraints-access", ["yield", "--characterization",
                str(char_a / "characterization.json"), "--constraints",
                _fmt_list(read_constraints)], 0, _exit_only),
        Command("yield-constraints-write", ["yield", "--characterization",
                str(char_w / "characterization.json"), "--constraints",
                _fmt_list(write_constraints)], 0, _exit_only),
        Command("sweep-vwl-access", ["sweep", "--axis", "vwl", "--mode", "access",
                "--values", ",".join(f"{v:.4f}" for v in vwl),
                "--target", repr(FOUR_SIGMA_PF)], len(vwl) * access_n, _check_sweep),
        Command("sweep-vdd-write", ["sweep", "--axis", "vdd", "--mode", "write",
                "--values", ",".join(f"{v:.4f}" for v in vdd),
                "--target", repr(FOUR_SIGMA_PF)], len(vdd) * write_n, _check_sweep),
    ]
    spans = ("cli.main", "cli.manifest", "mc.draw_access", "mc.draw_write", "mc.run",
             "mc.characterize", "transients.closed", "transients.cell_build",
             "yieldmodel.ber", "yieldmodel.invert", "yieldmodel.grid",
             "yieldmodel.estimate", "fitting.read_iv", "fitting.fit")
    return Workload("design", 1, commands, spans)


def _verify_closed(inp, work_dir, scale):
    n = 10**6  # not scaled: the C05/C06 rule needs the full sample count
    n_export = max(1000, round(2 * 10**5 * scale))
    read_t = inp.read_times([1e-2, 3e-3, 1e-3], char_n=ACCESS_CHAR_N)
    write_t = inp.write_times([1e-2, 3e-3], char_n=WRITE_CHAR_N)
    commands = [
        Command("compare-access", ["compare", "--mode", "access", "--constraints",
                _fmt_list(read_t), "--n", str(n), "--char-n", str(ACCESS_CHAR_N)],
                GRID_POINTS * ACCESS_CHAR_N + len(read_t) * n, _compare_rule("access")),
        Command("compare-write", ["compare", "--mode", "write", "--constraints",
                _fmt_list(write_t), "--n", str(n), "--char-n", str(WRITE_CHAR_N)],
                WRITE_CHAR_N + len(write_t) * n, _compare_rule("write")),
        Command("mc-export-access", ["mc", "--mode", "access", "--n", str(n_export),
                "--t-read", repr(read_t[0]), "--export", "samples.csv"],
                n_export, _check_mc_json),
        Command("mc-export-write", ["mc", "--mode", "write", "--n", str(n_export),
                "--t-write", repr(write_t[0]), "--export", "samples.csv"],
                n_export, _check_mc_json),
    ]
    spans = ("cli.main", "cli.manifest", "mc.draw_access", "mc.draw_write", "mc.export",
             "mc.run", "mc.characterize", "transients.closed", "transients.cell_build",
             "yieldmodel.ber", "yieldmodel.grid", "yieldmodel.estimate")
    return Workload("verify-closed", 1, commands, spans)


def _verify_ode(inp, work_dir, scale):
    n_access = max(4, round(500 * scale))
    n_write = max(4, round(1000 * scale))
    read_t = inp.read_times([3e-2, 1e-2])
    (write_t,) = inp.write_times([1e-2])
    commands = [
        Command("compare-ode-access", ["compare", "--oracle", "ode", "--mode", "access",
                "--constraints", _fmt_list(read_t), "--n", str(n_access)],
                GRID_POINTS * 200 + len(read_t) * n_access, _check_compare_ci),
        # The censoring horizon is the constraint: a lane still above the trip
        # point then fails either way. Some of 1000 lanes always do, so RK4
        # runs its full step count at every seed. With the default horizon it
        # stops once every lane has crossed, which at some seeds (104) cut
        # the pass from about 4 s to about 1 s.
        Command("mc-ode-write", ["mc", "--oracle", "ode", "--mode", "write",
                "--n", str(n_write), "--t-write", repr(write_t), "--t-max", repr(write_t)],
                n_write, _check_mc_json),
    ]
    spans = ("cli.main", "cli.manifest", "mc.draw_access", "mc.draw_write", "mc.run",
             "mc.characterize", "transients.closed", "transients.delta_v_ode",
             "transients.write_time_ode", "transients.cell_build", "yieldmodel.ber",
             "yieldmodel.grid", "yieldmodel.estimate")
    return Workload("verify-ode", 1, commands, spans)


_BUILDERS = {"design": _design, "verify-closed": _verify_closed, "verify-ode": _verify_ode}


def build(name, seed, work_dir, scale=1.0):
    """The workload's command script at this seed; `scale` shrinks sample counts."""
    return _BUILDERS[name](_Inputs(seed), Path(work_dir), scale)
