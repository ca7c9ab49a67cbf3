"""One benchmark run of one workload, in a fresh process.

Started by run.py, which passes the monotonic time at which it spawned this
process, so set-up time covers interpreter start, imports, bundled-data load
and input generation. After set-up the worker runs one untimed warm-up pass
of the workload script, then timed passes until --seconds have elapsed (at
least MIN_PASSES). The speedometer of calib.py samples the host's speed
from the worker's start on, except during traced passes; its handler's
time is left out of every timing. With --trace 1 every timed pass is
followed by a traced pass, with the span wrappers of spans.py installed
only around it. Every command of every pass is checked. The last line of standard output is one
JSON object with the raw measurements; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3


def _import_program():
    """Import the workbench from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sramyield.cli

    if Path(sramyield.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"sramyield was imported from {sramyield.cli.__file__}, not {src}")
    return sramyield.cli


class Runner:
    """Runs workload passes and checks every command's outputs."""

    def __init__(self, cli, workload, seed, work_dir, speedo):
        self.cli = cli
        self.speedo = speedo
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.digests = {}  # command name -> manifest digest of its first good run
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self):
        """Run the script once; return the summed wall time of its commands."""
        wall = 0.0
        for cmd in self.workload.commands:
            out_dir = self.work_dir / cmd.name
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = ["--seed", str(self.seed), "--threads", str(self.workload.threads),
                    "--out-dir", str(out_dir), *cmd.argv]
            sink = io.StringIO()
            rc, crash = None, None
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                spent, start = self.speedo.spent, time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a traceback is a failed command, not a dead run
                    crash = f"{type(exc).__name__}: {exc}"
                wall += time.perf_counter() - start - (self.speedo.spent - spent)
            self.attempted += 1
            error = crash or self._check(cmd, rc, out_dir)
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{cmd.name}: {error}")
        return wall

    def _check(self, cmd, rc, out_dir):
        if rc != 0:
            return f"exit code {rc}"
        try:
            error = cmd.check(out_dir)
            digest = json.loads((out_dir / "manifest.json").read_text())["digest"]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if error is not None:
            return error
        if self.digests.setdefault(cmd.name, digest) != digest:
            return "manifest digest differs from the first pass"
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    speedo = calib.Speedometer()
    speedo.start()

    os.chdir(ROOT)
    cli = _import_program()
    import numpy
    import scipy

    import spans
    import workloads

    (BENCH / "_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        workload = workloads.build(args.workload, args.seed, work_dir, args.scale)
        setup_s = time.monotonic() - args.spawned_at - speedo.spent
        setup_ref_s = speedo.speed_since(0, None)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
            return 0

        runner = Runner(cli, workload, args.seed, work_dir, speedo)
        tracer = spans.Tracer() if args.trace else None
        runner.run()  # warm-up: imports inside commands, caches, first digests
        walls, refs, traced_walls, layers = [], [], [], []
        started = time.perf_counter()
        while time.perf_counter() - started < args.seconds or len(walls) < MIN_PASSES:
            first = len(speedo.samples)
            walls.append(runner.run())
            # A pass too short to hold a sample takes the median of all so far.
            refs.append(speedo.speed_since(first, speedo.speed_since(0, None)))
            if tracer is None:
                continue
            speedo.stop()  # the handler would add to whichever span is open
            tracer.reset()
            tracer.install()
            try:
                wall = runner.run()
            finally:
                tracer.uninstall()
                speedo.start()
            metrics, calls = spans.layer_metrics(tracer.spans, wall)
            silent = [key for key in workload.expected_spans if calls[key] == 0]
            if silent:
                raise SystemExit(f"traced pass recorded no call of: {', '.join(silent)}")
            traced_walls.append(wall)
            layers.append(metrics)
    finally:
        speedo.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / "_work").rmdir()

    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "refs": refs,
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "samples_per_pass": sum(cmd.samples for cmd in workload.commands),
        "threads": workload.threads,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
