"""sramyield benchmark: one run of one workload.

    python3 bench/run.py --workload design --seed 160 --seconds 25 --trace 0

Run from anywhere inside a checkout; the workbench is imported from the
checkout's src/. Each run spawns SETUP_PROBES fresh processes that only set
up, then one fresh worker process (worker.py) that sets up, runs an untimed
warm-up pass and then timed passes of the workload script. Every process
samples the host's speed with the speedometer of calib.py, and every
end-to-end time is scaled by calib.REF_S over the speed sampled while it
was measured (NOTES.md says why). With --trace 0 the last line of standard
output carries the end-to-end metrics, with --trace 1 the per-layer metrics
of the traced passes. The line before it records the seeds, the raw times
and the machine. NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4
DEFAULT_SEED = 160  # the seed of the bundled variation file
HOLDOUT_SEED = 7919  # not used while the workloads were tuned
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args, deadline, setup_only=False):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", repr(args.scale)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _unit(name):
    for suffix, unit in (("_ns_per_sample", "ns"), ("_ns_per_lane", "ns"),
                         ("_us_per_row", "us"), ("_us_per_lane", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_ratio", "ratio"), ("_per_invert", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches}


def main(argv=None):
    p = argparse.ArgumentParser(description="Run one sramyield benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=("design", "verify-closed", "verify-ode"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the workload's sample counts (self-check only)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sramyield" / "cli.py").is_file():
        print(f"error: no workbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = [_spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        out = _spawn(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes.append(out)
    setups = [p["setup_s"] for p in probes]
    raw_wall = statistics.median(out["walls"])
    refs = out["refs"]

    if args.trace:
        layers = out["layers"]
        metrics = {}
        for name in layers[0]:
            value, unit = statistics.median(m[name] for m in layers), _unit(name)
            metrics[name] = {"value": value if unit == "count" else float(value), "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(out["traced_walls"]) / raw_wall, "unit": "ratio"}
        metrics["host.ref_us"] = {"value": 1e6 * statistics.median(refs), "unit": "us"}
        metrics["raw.wall_s"] = {"value": raw_wall, "unit": "s"}
        metrics["raw.setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    else:
        wall = statistics.median(w * REF_S / r for w, r in zip(out["walls"], refs))
        setup = statistics.median(p["setup_s"] * REF_S / p["setup_ref_s"] for p in probes)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "samples_per_s": {"value": out["samples_per_pass"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - out["failed"] / out["attempted"], "unit": "ratio"},
        }

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
        "threads": out["threads"], "timed_passes": len(out["walls"]),
        "traced_passes": len(out["traced_walls"]),
        "pass_refs_s": refs, "setup_samples_s": setups,
        "setup_ref_s": [p["setup_ref_s"] for p in probes],
        "pass_walls_s": out["walls"], "traced_walls_s": out["traced_walls"],
        "errors": out["errors"], **_machine(), **out["versions"]}}))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
