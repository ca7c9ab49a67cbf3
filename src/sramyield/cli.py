"""Command-line workbench.

Subcommands: fit, characterize, yield, compare, sweep, qq, mc. Every run
writes its artifacts into --out-dir together with a manifest.json recording
the command, seed, input digests, and output digests. The digest field
covers only reproducible content, so identical inputs and seed give an
identical digest regardless of when or how parallel the run was.

Exit codes: 0 success, 2 input parse, 3 fit non-convergence, 4 degenerate
statistics, 5 domain or range violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import bundled_json, csv_text, parsing, read_json, write_csv, write_json
from .devices import read_device_json
from .errors import (
    DegenerateStatisticsError,
    DomainError,
    FitConvergenceError,
    ParseError,
    WorkbenchError,
)
from .fitting import FitOptions, default_init, fit_device, model_currents, read_iv_csv
from .mc import (
    VariationSpec,
    access_samples,
    cell_chunks,
    characterization_lanes,
    characterize_access,
    characterize_write,
    run_access_mc,
    run_mc,
    run_write_mc,
    write_samples,
)
from .transients import (
    CellConfig,
    load_default_cell,
    read_cell_json,
)
from .yieldmodel import (
    AccessCharacterization,
    DEFAULT_T0,
    FOUR_SIGMA_PF,
    OffsetVoltageDist,
    WriteTimeDistribution,
    auto_read_grid,
    estimate_delta_params,
    estimate_write_params,
    invert_for_constraint,
    qq_points,
    read_distribution_json,
    relative_error,
    write_fail_prob,
    write_qq_csv,
)

EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_DEGENERATE = 4
EXIT_DOMAIN = 5
# Failure class -> exit code, first match wins; an OSError is an unreadable file.
_EXIT_CODES = {ParseError: EXIT_PARSE, FitConvergenceError: EXIT_FIT,
               DegenerateStatisticsError: EXIT_DEGENERATE, DomainError: EXIT_DOMAIN,
               OSError: EXIT_PARSE}


class _Logger:
    def __init__(self, as_json):
        self.as_json = as_json

    def info(self, msg, **fields):
        self._emit("info", msg, fields)

    def warning(self, msg, **fields):
        self._emit("warning", msg, fields)

    def _emit(self, level, msg, fields):
        if self.as_json:
            rec = {"level": level, "msg": msg}
            rec.update(fields)
            print(json.dumps(rec, sort_keys=True), file=sys.stderr)
        else:
            extra = "".join(f" {k}={v}" for k, v in sorted(fields.items()))
            print(f"[{level}] {msg}{extra}", file=sys.stderr)


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# Flags that change where or how fast a run executes, not what it computes.
# They are recorded in the manifest but excluded from the reproducibility
# digest so re-runs at other thread counts or output locations compare equal.
_EXECUTION_FLAGS = {"--out-dir": 1, "--threads": 1, "--json-logs": 0}


def _normalized_command(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _EXECUTION_FLAGS:
            i += 1 + _EXECUTION_FLAGS[tok]
            continue
        name, eq, _ = tok.partition("=")
        if eq and name in _EXECUTION_FLAGS:
            i += 1
            continue
        out.append(tok)
        i += 1
    return out


class Run:
    """Collects inputs/outputs of one command and writes the manifest."""

    def __init__(self, args, log):
        self.args = args
        self.log = log
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        self.outputs = {}
        self.seed = None
        # every output name a command can take, checked before it does any work
        for name in (getattr(args, flag, None) for flag in ("out", "export", "emit_iv")):
            if name is not None:
                self._claim(name)

    def note_input(self, path):
        if path is not None:
            self.inputs[str(path)] = _sha256_file(path)

    def _claim(self, name):
        """Make `name` an output of this run: a plain file name in --out-dir,
        neither the manifest nor an output the run already has."""
        if name in ("", ".", "..") or Path(name).name != name:
            raise ParseError(f"output name {name!r} is not a plain file name")
        if name == "manifest.json" or name in self.outputs:
            raise ParseError(f"output name {name!r} is already taken in this run")
        self.outputs[name] = self.out_dir / name

    def out_path(self, name):
        return self.outputs[name]

    def write_json(self, name, obj):
        write_json(self.out_path(name), obj)

    def finish(self):
        argv = list(self.args._argv)
        out_digests = {name: _sha256_file(p) for name, p in self.outputs.items()}
        stable = {
            "command": _normalized_command(argv),
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": out_digests,
            "tool": f"sramyield {__version__}",
        }
        digest = hashlib.sha256(
            json.dumps(stable, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        manifest = dict(stable)
        manifest["schema"] = 1
        manifest["argv"] = argv
        manifest["digest"] = digest
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
        write_json(self.out_dir / "manifest.json", manifest)
        self.log.info("manifest written", digest=digest, outputs=len(out_digests))
        return digest


def _load_inputs(run, args):
    """Cell and variation of a sampling subcommand; records the seed in the run."""
    if args.cell is None:
        cell = load_default_cell()
    else:
        run.note_input(args.cell)
        cell = read_cell_json(args.cell)
    var = _load_variation(run, args.variation, args.seed)
    run.seed = var.seed
    return cell, var


def _load_variation(run, path, seed_override):
    if path is None:
        var = VariationSpec.from_dict(bundled_json("default_variation.json"))
    else:
        run.note_input(path)
        var = VariationSpec.from_dict(read_json(path, "variation JSON"))
    if seed_override is not None:
        var = dataclasses.replace(var, seed=seed_override)
    return var


def _parse_float_list(text, what):
    with parsing(f"{what} list {text!r}"):
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ParseError(f"{what} list is empty")
    return values


# -- subcommands ------------------------------------------------------------------

def cmd_fit(args, run, log):
    run.note_input(args.iv)
    data = read_iv_csv(args.iv)
    if args.init is not None:
        run.note_input(args.init)
        init = read_device_json(args.init)
    else:
        init = default_init(data, vth_nominal=args.vth, polarity=args.polarity, n=args.n_factor)
    options = FitOptions(fit_n=args.fit_n, max_iterations=args.max_iterations)
    report = fit_device(data, init=init, options=options)
    if not report.converged:
        raise FitConvergenceError(
            f"fit did not converge in {report.iterations} residual evaluations "
            f"(residual norm {report.residual_norm!r})"
        )
    run.write_json(args.out, report.to_dict())
    if args.emit_iv is not None:
        fitted = model_currents(report.params, data)
        columns = [np.asarray(c, dtype=float) for c in (data.vgs, data.vds, data.ids, fitted)]
        write_csv(run.out_path(args.emit_iv), "vgs,vds,ids_data,ids_model",
                  csv_text(len(fitted), lambda part: [c[part] for c in columns]))
    print(
        f"fit converged in {report.iterations} residual evaluations: "
        f"max_rel_error_sat={report.max_rel_error_sat:.4f} "
        f"avg_rel_error_sat={report.avg_rel_error_sat:.4f}"
    )
    log.info("fit done", iterations=report.iterations)


def cmd_characterize(args, run, log):
    cell, var = _load_inputs(run, args)
    if args.mode == "access":
        n = args.n if args.n is not None else 200
        if (args.t_lo is None) != (args.t_hi is None):
            raise ParseError("--t-lo and --t-hi go together: give both or neither")
        if args.t_lo is None:
            grid = auto_read_grid(cell, var.offset, points=args.grid_points)
        else:
            # a one-point grid is the only one whose ends may coincide
            if not (0.0 < args.t_lo <= args.t_hi < math.inf
                    and (args.t_lo < args.t_hi or args.grid_points == 1)):
                raise DomainError(f"need 0 < t_lo < t_hi < inf, got t_lo {args.t_lo!r}, "
                                  f"t_hi {args.t_hi!r}")
            if args.grid_points < 1:
                raise DomainError(f"--grid-points must be >= 1, got {args.grid_points}")
            grid = np.geomspace(args.t_lo, args.t_hi, args.grid_points)
        char = characterize_access(cell, var, grid, n=n, mode=args.oracle, threads=args.threads)
        run.write_json(args.out, char.to_dict())
        print(
            f"characterized access on {len(grid)} read times "
            f"[{grid[0]:.4e}, {grid[-1]:.4e}] s with n={n} per point"
        )
    else:
        n = args.n if args.n is not None else 1600
        dist = characterize_write(
            cell, var, n=n, mode=args.oracle, t0=args.t0, threads=args.threads
        )
        run.write_json(args.out, dist.to_dict())
        print(
            f"characterized write with n={n}: mu_w={dist.mu_w:.6f} sigma_w={dist.sigma_w:.6f}"
        )


def cmd_yield(args, run, log):
    run.note_input(args.characterization)
    dist = read_distribution_json(args.characterization)
    offset = None
    if args.offset is not None:
        run.note_input(args.offset)
        offset = read_distribution_json(args.offset)
        if not isinstance(offset, OffsetVoltageDist):
            raise ParseError(f"{args.offset} is not an offset distribution")
    if isinstance(dist, AccessCharacterization) and offset is None:
        var = _load_variation(run, None, None)
        offset = var.offset
        log.warning("no offset JSON given; using the bundled default offset")

    rows = []
    if args.target is not None:
        t = invert_for_constraint(dist, args.target, offset=offset)
        rows.append((t, args.target))
    else:
        if args.constraints is None:
            raise ParseError("yield needs --constraints or --target")
        constraints = _parse_float_list(args.constraints, "constraint")
        if isinstance(dist, WriteTimeDistribution):
            pfs = [write_fail_prob(dist, t) for t in constraints]
        else:
            pfs = dist.ber_at(constraints, offset).tolist()
        rows.extend(zip(constraints, pfs))
    write_csv(run.out_path(args.out), "constraint,pf_analytical,pf_mc,mc_lo,mc_hi",
              (f"{t!r},{pf!r},,,\n" for t, pf in rows))
    for t, pf in rows:
        print(f"constraint {t!r} s -> pf {pf!r}")


def _closed_model(args, var):
    """Closed-oracle characterization of the mode's distribution: a function
    of one cell or a sequence of cells, and the lanes each cell takes.

    Closed access dv and the closed write time depend on vth_n only, so the
    function draws the characterization lanes on its first call and
    evaluates every later cell of the command on the same lanes.
    """
    n = (200 if args.mode == "access" else 1600) if args.char_n is None else args.char_n
    per_cell = n * args.grid_points if args.mode == "access" else n
    lanes = functools.cache(lambda: characterization_lanes(args.mode, var, per_cell,
                                                           args.threads))

    def model(cell):
        if args.mode == "access":
            grid = auto_read_grid(cell, var.offset, points=args.grid_points)
            return characterize_access(cell, var, grid, n=n, mode="closed", lanes=lanes())
        return characterize_write(cell, var, n=n, mode="closed", t0=args.t0, lanes=lanes())

    return model, per_cell


def cmd_compare(args, run, log):
    cell, var = _load_inputs(run, args)
    constraints = _parse_float_list(args.constraints, "constraint")
    characterize, _ = _closed_model(args, var)
    model = characterize(cell)
    if args.mode == "access":
        analytical = model.ber_at(constraints, var.offset).tolist()
    else:
        analytical = [write_fail_prob(model, t) for t in constraints]
    results = run_mc(args.mode, cell, var, args.n, constraints, mode=args.oracle,
                     threads=args.threads)
    rows = []
    for t, pf_a, r in zip(constraints, analytical, results):
        rel = relative_error(r.pf, pf_a) if r.pf > 0 else None
        if rel is None:
            log.warning("zero-failure MC row; relative error omitted", constraint=t)
        rows.append((t, pf_a, r, rel))
    write_csv(run.out_path(args.out),
              "constraint,pf_analytical,pf_mc,mc_lo,mc_hi,rel_error,oracle",
              (f"{t!r},{pf_a!r},{r.pf!r},{r.ci95[0]!r},{r.ci95[1]!r},"
               f"{'' if rel is None else repr(float(rel))},{args.oracle}\n"
               for t, pf_a, r, rel in rows))
    for t, pf_a, r, _ in rows:
        print(f"constraint {t!r}: analytical {pf_a!r} mc {r.pf!r} ci {r.ci95[0]!r}..{r.ci95[1]!r}")


def _sweep_cell(base, axis, value):
    if axis == "vdd":
        return CellConfig(
            nmos=base.nmos, pmos=base.pmos, vdd=value, vwl=value, vddc=value,
            c_blb=base.c_blb, c_q=base.c_q, v_trip=None, temperature_c=base.temperature_c,
        )
    if axis == "vwl":
        return dataclasses.replace(base, vwl=value)
    if axis == "temperature":
        return dataclasses.replace(base, temperature_c=value)
    raise DomainError(f"unknown sweep axis {axis !r}")


def cmd_sweep(args, run, log):
    base, var = _load_inputs(run, args)
    values = _parse_float_list(args.values, "axis value")
    if args.axis == "temperature":
        log.warning(
            "temperature sweep re-evaluates the thermal voltage only; "
            "fitted device constants are held at their extraction corner"
        )
    model, per_cell = _closed_model(args, var)

    def solve(points):  # characterize chunk by chunk, then invert every point at once
        models = []
        for chunk in cell_chunks(points, per_cell):
            models += model([_sweep_cell(base, args.axis, v) for v in chunk])
        return invert_for_constraint(models, args.target, offset=var.offset).tolist()

    try:
        times = solve(values)
    except WorkbenchError:
        for v in values:  # alone, each point fails as it would in a loop over points
            try:
                solve([v])
            except WorkbenchError as exc:
                raise DomainError(f"sweep point {args.axis}={v!r} failed: {exc}") from exc
        raise
    t_ref = times[0]
    write_csv(run.out_path(args.out), "axis,value,t_at_target,normalized",
              (f"{args.axis},{v!r},{t!r},{t / t_ref!r}\n" for v, t in zip(values, times)))
    for v, t in zip(values, times):
        print(f"{args.axis}={v!r}: t@pf={args.target!r} is {t!r} s ({t / t_ref!r} of first)")


def cmd_qq(args, run, log):
    cell, var = _load_inputs(run, args)
    if not 0.0 < args.tail_percent <= 100.0:
        raise ParseError(f"--tail-percent must be in (0, 100], got {args.tail_percent}")
    if args.mode == "access":
        if args.t_read is None:
            raise ParseError("qq access mode needs --t-read")
        _, _, metric = access_samples(cell, var, args.n, args.t_read,
                                      mode=args.oracle, threads=args.threads)
        dist = estimate_delta_params(metric)
        tail = "low" if args.tail_percent < 100.0 else None
    else:
        _, _, metric = write_samples(cell, var, args.n, mode=args.oracle,
                                     threads=args.threads)
        dist = estimate_write_params(metric, t0=args.t0)
        tail = "high" if args.tail_percent < 100.0 else None
    points, corr = qq_points(metric, dist, tail=tail,
                             tail_fraction=args.tail_percent / 100.0)
    write_qq_csv(points, corr, run.out_path(args.out))
    print(f"qq {args.mode}: n={len(points)} pearson_r={corr!r}")


def cmd_mc(args, run, log):
    cell, var = _load_inputs(run, args)
    export = run.out_path(args.export) if args.export is not None else None
    if args.mode == "access":
        if args.t_read is None:
            raise ParseError("mc access mode needs --t-read")
        r = run_access_mc(cell, var, args.n, args.t_read, mode=args.oracle,
                          threads=args.threads, export_path=export)
    else:
        if args.t_write is None:
            raise ParseError("mc write mode needs --t-write")
        r = run_write_mc(cell, var, args.n, args.t_write, mode=args.oracle,
                         threads=args.threads, t_max=args.t_max, export_path=export)
    payload = r.to_dict()
    if export is not None:
        payload["samples_path"] = export.name
    payload["manifest"] = "manifest.json"
    run.write_json(args.out, payload)
    log.info("mc done", wall_time=round(r.wall_time, 4))
    print(f"mc {args.mode}: n={r.n} failures={r.failures} pf={r.pf!r} "
          f"ci95=[{r.ci95[0]!r}, {r.ci95[1]!r}]")


# -- parser -------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The `sramyield` argument parser, built once per process.

    Parsing does not change the parser, so every main() call shares it;
    building one per call costs about 2 ms and grows the heap.
    """
    top = argparse.ArgumentParser(
        prog="sramyield",
        description="SRAM timing-yield workbench: fit, characterize, analyze, verify.",
        # an abbreviated execution flag would slip past _normalized_command
        allow_abbrev=False,
    )
    top.add_argument("--seed", type=int, default=None,
                     help="override the variation seed")
    top.add_argument("--threads", type=int, default=1)
    top.add_argument("--out-dir", default=".")
    top.add_argument("--json-logs", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)
    # subcommand flags are digested verbatim too, so they may not abbreviate either
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    def common_cfg(p):
        p.add_argument("--cell", default=None, help="cell JSON (default: bundled)")
        p.add_argument("--variation", default=None, help="variation JSON (default: bundled)")

    p = add_command("fit", help="fit device constants from an I-V CSV")
    p.add_argument("--iv", required=True)
    p.add_argument("--init", default=None, help="initial parameters JSON")
    p.add_argument("--vth", type=float, default=0.35,
                   help="nominal threshold used when no --init is given")
    p.add_argument("--polarity", choices=("nmos", "pmos"), default="nmos")
    p.add_argument("--n-factor", type=float, default=1.5,
                   help="ideality factor seed when no --init is given")
    p.add_argument("--fit-n", action="store_true", help="also fit the ideality factor")
    p.add_argument("--max-iterations", type=int, default=500,
                   help="budget of residual evaluations")
    p.add_argument("--emit-iv", default=None, metavar="NAME",
                   help="also write model-vs-data curves CSV")
    p.add_argument("--out", default="fit.json")
    p.set_defaults(func=cmd_fit)

    p = add_command("characterize", help="estimate distribution moments by small-n MC")
    common_cfg(p)
    p.add_argument("--mode", choices=("access", "write"), required=True)
    p.add_argument("--n", type=int, default=None, help="samples (default 200 access / 1600 write)")
    p.add_argument("--grid-points", type=int, default=12)
    p.add_argument("--t-lo", type=float, default=None)
    p.add_argument("--t-hi", type=float, default=None)
    p.add_argument("--oracle", choices=("closed", "ode"), default="closed")
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.add_argument("--out", default="characterization.json")
    p.set_defaults(func=cmd_characterize)

    p = add_command("yield", help="analytical failure probabilities from a characterization")
    p.add_argument("--characterization", required=True)
    p.add_argument("--offset", default=None, help="offset JSON (access mode)")
    p.add_argument("--constraints", default=None, help="comma-separated times in seconds")
    p.add_argument("--target", type=float, default=None,
                   help="invert for the constraint at this failure probability")
    p.add_argument("--out", default="yield.csv")
    p.set_defaults(func=cmd_yield)

    p = add_command("compare", help="analytical vs MC failure probabilities")
    common_cfg(p)
    p.add_argument("--mode", choices=("access", "write"), required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--char-n", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=12)
    p.add_argument("--oracle", choices=("closed", "ode"), default="closed")
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.add_argument("--out", default="compare.csv")
    p.set_defaults(func=cmd_compare)

    p = add_command("sweep", help="constraint-at-target across vdd, vwl, or temperature")
    common_cfg(p)
    p.add_argument("--axis", choices=("vdd", "vwl", "temperature"), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--mode", choices=("access", "write"), required=True)
    p.add_argument("--target", type=float, default=FOUR_SIGMA_PF)
    p.add_argument("--char-n", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=12)
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = add_command("qq", help="Q-Q table of sampled metric against the fitted law")
    common_cfg(p)
    p.add_argument("--mode", choices=("access", "write"), required=True)
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--t-read", type=float, default=None)
    p.add_argument("--oracle", choices=("closed", "ode"), default="closed")
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.add_argument("--tail-percent", type=float, default=100.0,
                   help="keep only this percent of the relevant tail")
    p.add_argument("--out", default="qq.csv")
    p.set_defaults(func=cmd_qq)

    p = add_command("mc", help="plain Monte Carlo failure probability")
    common_cfg(p)
    p.add_argument("--mode", choices=("access", "write"), required=True)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--t-read", type=float, default=None)
    p.add_argument("--t-write", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--oracle", choices=("closed", "ode"), default="closed")
    p.add_argument("--export", default=None, metavar="NAME", help="sample CSV name")
    p.add_argument("--out", default="mc.json")
    p.set_defaults(func=cmd_mc)
    return top


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    log = _Logger(args.json_logs)
    try:
        if args.threads < 1:
            raise DomainError(f"--threads must be >= 1, got {args.threads}")
        run = Run(args, log)
        if args.seed is not None:
            run.seed = args.seed
        args.func(args, run, log)
        run.finish()
    except tuple(_EXIT_CODES) as exc:
        if isinstance(exc, ParseError):
            log.warning(str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
