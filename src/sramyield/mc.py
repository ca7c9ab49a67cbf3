"""Seeded parallel Monte Carlo over threshold-voltage variation.

Sampling uses counter-based Philox substreams: sample i always consumes
counter block i of the stream keyed by (seed, role), so any partition of the
index range over any number of threads reproduces identical draws. Failure
counts come with Wilson score intervals; raw samples can be exported as CSV
for the distribution estimators.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.special import ndtri

from .artifacts import parsing, write_csv
from .errors import DegenerateStatisticsError, DomainError, require_finite
from .transients import default_write_t_max, delta_v_closed, delta_v_ode, write_time_closed, write_time_ode
from .yieldmodel import (DEFAULT_T0, AccessCharacterization, OffsetVoltageDist,
                         estimate_delta_params, estimate_write_params)

_ROLE_ACCESS = 1
_ROLE_WRITE = 2
_MIN_UNIFORM = 2.0**-54  # ndtri(0) is -inf; the generator can emit exactly 0.0


@dataclass(frozen=True)
class VariationSpec:
    """Gaussian threshold variation plus sense-amp offset, with the RNG seed."""

    vth_n_mean: float
    vth_n_sigma: float
    vth_p_mean: float
    vth_p_sigma: float
    offset: OffsetVoltageDist
    seed: int

    def __post_init__(self):
        require_finite(self, ("vth_n_mean", "vth_n_sigma", "vth_p_mean", "vth_p_sigma"))
        if not self.vth_n_sigma > 0.0:
            raise DomainError(f"vth_n_sigma must be > 0, got {self.vth_n_sigma}")
        if not self.vth_p_sigma > 0.0:
            raise DomainError(f"vth_p_sigma must be > 0, got {self.vth_p_sigma}")
        if int(self.seed) != self.seed or not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def to_dict(self):
        return {
            "schema": 1,
            "vth_n_mean": self.vth_n_mean,
            "vth_n_sigma": self.vth_n_sigma,
            "vth_p_mean": self.vth_p_mean,
            "vth_p_sigma": self.vth_p_sigma,
            "offset": self.offset.to_dict(),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("variation JSON"):
            return cls(
                vth_n_mean=float(obj["vth_n_mean"]),
                vth_n_sigma=float(obj["vth_n_sigma"]),
                vth_p_mean=float(obj["vth_p_mean"]),
                vth_p_sigma=float(obj["vth_p_sigma"]),
                offset=OffsetVoltageDist.from_dict(obj["offset"]),
                seed=int(obj["seed"]),
            )


@dataclass(frozen=True)
class McResult:
    n: int
    failures: int
    pf: float
    ci95: tuple
    samples_path: str | None
    wall_time: float

    def __post_init__(self):
        if self.failures > self.n:
            raise DomainError("failures cannot exceed n")

    def to_dict(self, include_wall_time=True):
        out = {
            "schema": 1,
            "n": self.n,
            "failures": self.failures,
            "pf": self.pf,
            "ci95": [self.ci95[0], self.ci95[1]],
            "samples_path": self.samples_path,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out


def wilson_ci(failures, n, confidence=0.95):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 <= failures <= n:
        raise DomainError("failures must lie in [0, n]")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    z = float(ndtri(0.5 + 0.5 * confidence))
    p = failures / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if failures == 0 else max(center - half, 0.0)
    hi = 1.0 if failures == n else min(center + half, 1.0)
    return (lo, hi)


# -- deterministic substreams -----------------------------------------------------

def _block_uniforms(seed, role, start, count):
    """Doubles for sample indices [start, start+count): one Philox block each.

    A Philox-4x64 block yields four doubles; sample i owns block i, so draws
    are independent of how the index range is partitioned across threads.
    """
    bg = np.random.Philox(key=np.array([seed, role], dtype=np.uint64))
    bg.advance(start)
    u = np.random.Generator(bg).random((count, 4))
    return np.maximum(u, _MIN_UNIFORM)


def _draw(var, role, start, count, other_mean, other_sigma):
    """(vth_n, other) arrays of one role's stream, block-indexed."""
    u = _block_uniforms(var.seed, role, start, count)
    vth_n = var.vth_n_mean + var.vth_n_sigma * ndtri(u[:, 0])
    return vth_n, other_mean + other_sigma * ndtri(u[:, 1])


def draw_access_samples(var, start, count):
    """(vth_n, v_os) arrays for the access stream, block-indexed."""
    return _draw(var, _ROLE_ACCESS, start, count, var.offset.mu_vos, var.offset.sigma_vos)


def draw_write_samples(var, start, count):
    """(vth_n, vth_p) arrays for the write stream, block-indexed."""
    return _draw(var, _ROLE_WRITE, start, count, var.vth_p_mean, var.vth_p_sigma)


def _chunks(n, threads):
    size = max(1, -(-n // max(1, threads)))
    return [(s, min(size, n - s)) for s in range(0, n, size)]


def _parallel_map(fn, n, threads):
    parts = _chunks(n, threads)
    if len(parts) == 1 or threads <= 1:
        return [fn(s, c) for s, c in parts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda sc: fn(*sc), parts))


# -- sample evaluation ------------------------------------------------------------

def _samples(role, cell, var, n, mode, threads, t, base=0):
    """Draw blocks [base, base+n) of a role's stream and evaluate its oracle.

    `t` is the read time for access and the ODE censoring horizon t_max for
    write (None picks the default). Returns (vth_n, other, metric) arrays in
    sample-index order; other is v_os for access and vth_p for write.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if mode not in ("closed", "ode"):
        raise DomainError(f"oracle mode must be 'closed' or 'ode', got {mode!r}")
    closed = mode == "closed"
    if role == _ROLE_WRITE and not closed and t is None:
        t = default_write_t_max(cell)

    def work(start, count):
        if role == _ROLE_ACCESS:
            vth_n, other = draw_access_samples(var, base + start, count)
            metric = (delta_v_closed if closed else delta_v_ode)(cell, vth_n, t)
        else:
            vth_n, other = draw_write_samples(var, base + start, count)
            metric = (write_time_closed(cell, vth_n) if closed
                      else write_time_ode(cell, vth_n, other, t))
        return vth_n, other, np.asarray(metric, dtype=float)

    parts = _parallel_map(work, n, threads)
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def access_samples(cell, var, n, t_read, mode="closed", threads=1):
    """Draw n access samples and evaluate the chosen oracle.

    Returns (vth_n, v_os, delta_v) arrays in sample-index order.
    """
    return _samples(_ROLE_ACCESS, cell, var, n, mode, threads, t_read)


def write_samples(cell, var, n, mode="closed", t_max=None, threads=1):
    """Draw n write samples and evaluate the chosen oracle.

    Returns (vth_n, vth_p, t_write) arrays; censored ODE samples are inf.
    Closed mode ignores t_max (the closed form never censors).
    """
    return _samples(_ROLE_WRITE, cell, var, n, mode, threads, t_max)


# -- top-level MC runs ------------------------------------------------------------

def _run_mc(n, what, constraint, sample, fails, other_column, export_path):
    """One timed MC run. `sample()` checks the role's own arguments and returns
    (vth_n, other, metric); `fails(other, metric)` is the role's failure rule;
    the export writes `other` into the CSV column `other_column`."""
    if not math.isfinite(constraint):
        raise DomainError(f"{what} must be finite, got {constraint!r}")
    started = time.perf_counter()
    vth_n, other, metric = sample()
    fail = fails(other, metric)
    failures = int(np.sum(fail))
    wall = time.perf_counter() - started
    if export_path is not None:
        export_samples(export_path, vth_n=vth_n, metric=metric, fail=fail,
                       **{other_column: other})
    return McResult(
        n=n,
        failures=failures,
        pf=failures / n,
        ci95=wilson_ci(failures, n, 0.95),
        samples_path=str(export_path) if export_path is not None else None,
        wall_time=wall,
    )


def run_access_mc(cell, var, n, t_read, mode="closed", threads=1, export_path=None):
    """Empirical access failure probability: fail iff v_os > 0 and dv < v_os."""
    return _run_mc(n, "t_read", t_read,
                   lambda: access_samples(cell, var, n, t_read, mode=mode, threads=threads),
                   lambda v_os, dv: (v_os > 0.0) & (dv < v_os), "v_os", export_path)


def run_write_mc(cell, var, n, t_write, mode="closed", threads=1, t_max=None,
                 export_path=None):
    """Empirical write failure probability: fail iff write time > t_write.

    Censored ODE samples count as failures; constraints beyond the censoring
    horizon are rejected.
    """
    def sample():
        if not t_write > 0.0:
            raise DomainError(f"t_write must be > 0, got {t_write}")
        horizon = default_write_t_max(cell) if mode == "ode" and t_max is None else t_max
        if mode == "ode" and t_write > horizon:
            raise DomainError(
                f"t_write {t_write!r} exceeds the censoring horizon t_max {horizon!r}"
            )
        return write_samples(cell, var, n, mode=mode, t_max=horizon, threads=threads)

    return _run_mc(n, "t_write", t_write, sample, lambda vth_p, t: t > t_write,
                   "vth_p", export_path)


SAMPLES_CSV_HEADER = "i,vth_n,vth_p,v_os,metric,fail"


def export_samples(path, vth_n, metric, fail, vth_p=None, v_os=None):
    """One CSV row per sample; columns not drawn for this mode stay empty."""
    def cells(values):
        return repeat("") if values is None else map(repr, map(float, values))

    rows = zip(cells(vth_n), cells(vth_p), cells(v_os), cells(metric), fail)
    write_csv(path, SAMPLES_CSV_HEADER,
              (f"{i},{v},{p},{o},{m},{int(f)}\n" for i, (v, p, o, m, f) in enumerate(rows)))


# -- characterization -------------------------------------------------------------

def characterize_access(cell, var, t_grid, n=200, mode="closed", threads=1):
    """Per-grid-point moment estimation for the access distribution.

    Grid point j consumes its own block range [j*n, (j+1)*n), so the moment
    estimates carry independent noise per point and interpolation between
    points averages it down.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 1:
        raise DomainError("characterization grid needs at least 1 point")
    mus, sigmas = [], []
    for j, t in enumerate(t_grid):
        _, _, dv = _samples(_ROLE_ACCESS, cell, var, n, mode, threads, t, base=j * n)
        dist = estimate_delta_params(dv)
        mus.append(dist.mu_delta)
        sigmas.append(dist.sigma_delta)
    return AccessCharacterization(
        t_read=tuple(t_grid), mu_delta=tuple(mus), sigma_delta=tuple(sigmas)
    )


def characterize_write(cell, var, n=1600, mode="closed", t0=None, t_max=None, threads=1):
    """Moment estimation for the write-time distribution from n samples."""
    if t0 is None:
        t0 = DEFAULT_T0
    _, _, t = write_samples(cell, var, n, mode=mode, t_max=t_max, threads=threads)
    if np.any(np.isinf(t)):
        raise DegenerateStatisticsError(
            "censored samples in the characterization draw; raise t_max or weaken contention"
        )
    return estimate_write_params(t, t0=t0)
