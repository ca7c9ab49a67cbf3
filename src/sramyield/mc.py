"""Seeded parallel Monte Carlo over threshold-voltage variation.

Sampling uses counter-based Philox substreams: sample i always consumes
counter block i of the stream keyed by (seed, role), so any partition of the
index range over any number of threads reproduces identical draws. Every
pass walks the index range as one ordered stream of fixed _BLOCK-sized
blocks: each block is drawn once, evaluated, scored against every
constraint of the run and dropped, so a run holds O(_BLOCK * threads) lanes
whatever n is. `threads` sets how many blocks are worked on at once, not how
the range is cut. Failure counts come with Wilson score intervals; raw
samples can be exported as CSV for the distribution estimators.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import starmap

import numpy as np
from scipy.special import ndtri

from .artifacts import parsing, write_csv
from .errors import DomainError, require_finite
from .transients import default_write_t_max, delta_v_closed, delta_v_ode, write_time_closed, write_time_ode
from .yieldmodel import (DEFAULT_T0, AccessCharacterization, OffsetVoltageDist,
                         estimate_delta_params, estimate_write_params)

_ROLE_ACCESS = 1
_ROLE_WRITE = 2
_ROLES = {"access": _ROLE_ACCESS, "write": _ROLE_WRITE}
_MIN_UNIFORM = 2.0**-54  # ndtri(0) is -inf; the generator can emit exactly 0.0
_BLOCK = 1 << 16  # samples per stream block, whatever the thread count


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
    return np.maximum(u, _MIN_UNIFORM, out=u)


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


def _stream(fn, n, threads):
    """[fn(start, count) for each fixed block of [0, n)], in index order.

    Blocks are _BLOCK samples long whatever the thread count, so a pass holds
    O(_BLOCK * threads) lanes at a time; with threads > 1 a pool works on
    `threads` blocks at once and results come back in block order.
    """
    blocks = [(s, min(_BLOCK, n - s)) for s in range(0, n, _BLOCK)]
    if threads <= 1 or len(blocks) == 1:
        return [fn(s, c) for s, c in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda sc: fn(*sc), blocks))


# -- sample evaluation ------------------------------------------------------------

def _check_pass(n, mode):
    if n < 1:
        raise DomainError("n must be >= 1")
    if mode not in ("closed", "ode"):
        raise DomainError(f"oracle mode must be 'closed' or 'ode', got {mode!r}")


def _role(name):
    if name not in _ROLES:
        raise DomainError(f"role must be 'access' or 'write', got {name!r}")
    return _ROLES[name]


def _draw_role(role, var, start, count):
    if role == _ROLE_ACCESS:
        return draw_access_samples(var, start, count)
    return draw_write_samples(var, start, count)


def _oracle(role, cell, mode, vth_n, other, t):
    """delta_v at read time t (access) or the write time censored at t_max = t
    (None picks the default horizon)."""
    if role == _ROLE_ACCESS:
        metric = (delta_v_closed if mode == "closed" else delta_v_ode)(cell, vth_n, t)
    elif mode == "closed":
        metric = write_time_closed(cell, vth_n)
    else:
        metric = write_time_ode(cell, vth_n, other, default_write_t_max(cell) if t is None else t)
    return np.asarray(metric, dtype=float)


def characterization_lanes(role, var, n, threads=1):
    """(vth_n, other) arrays of blocks [0, n) of a role's stream ("access" or
    "write"), for the `lanes` argument of characterize_access/_write.

    The lanes depend on the variation only, not on the cell, so a command
    that characterizes many cells draws them once.
    """
    role = _role(role)
    if n < 1:
        raise DomainError("n must be >= 1")
    parts = _stream(lambda start, count: _draw_role(role, var, start, count), n, threads)
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _samples(role, cell, var, n, mode, threads, t):
    """Draw blocks [0, n) of a role's stream and evaluate its oracle.

    `t` is the read time for access and the ODE censoring horizon t_max for
    write (None picks the default). Returns (vth_n, other, metric) arrays in
    sample-index order; other is v_os for access and vth_p for write.
    """
    _check_pass(n, mode)

    def block(start, count):
        vth_n, other = _draw_role(role, var, start, count)
        return vth_n, other, _oracle(role, cell, mode, vth_n, other, t)

    return tuple(np.concatenate(cols) for cols in zip(*_stream(block, n, threads)))


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

def _run_mc(role, cell, var, n, constraints, mode, threads, t_max, export_path=None):
    """One timed pass over n samples; one McResult per constraint.

    Every constraint is checked before the first draw. Access evaluates dv
    once per read time on each block, write evaluates the write time once.
    Blocks are dropped after scoring unless an export (one constraint) keeps
    them.
    """
    what = "t_read" if role == _ROLE_ACCESS else "t_write"
    for c in constraints:
        if not math.isfinite(c):
            raise DomainError(f"{what} must be finite, got {c!r}")
        if role == _ROLE_WRITE and not c > 0.0:
            raise DomainError(f"t_write must be > 0, got {c}")
        if role == _ROLE_WRITE and mode == "ode":
            t_max = default_write_t_max(cell) if t_max is None else t_max
            if c > t_max:
                raise DomainError(f"t_write {c!r} exceeds the censoring horizon t_max {t_max!r}")
    _check_pass(n, mode)

    def block(start, count):
        vth_n, other = _draw_role(role, var, start, count)
        if role == _ROLE_ACCESS:
            metrics = [_oracle(role, cell, mode, vth_n, other, t) for t in constraints]
            fails = [(other > 0.0) & (dv < other) for dv in metrics]
        else:
            metrics = [_oracle(role, cell, mode, vth_n, other, t_max)]
            fails = [metrics[0] > t for t in constraints]
        counts = [int(np.count_nonzero(f)) for f in fails]
        return counts, (vth_n, other, metrics[0], fails[0]) if export_path is not None else None

    started = time.perf_counter()
    parts = _stream(block, n, threads)
    wall = time.perf_counter() - started
    if export_path is not None:
        vth_n, other, metric, fail = (np.concatenate(cols) for cols in zip(*(k for _, k in parts)))
        other_column = "v_os" if role == _ROLE_ACCESS else "vth_p"
        export_samples(export_path, vth_n=vth_n, metric=metric, fail=fail,
                       **{other_column: other})
    path = str(export_path) if export_path is not None else None
    return [McResult(n=n, failures=f, pf=f / n, ci95=wilson_ci(f, n, 0.95),
                     samples_path=path, wall_time=wall)
            for f in map(sum, zip(*(counts for counts, _ in parts)))]


def run_access_mc(cell, var, n, t_read, mode="closed", threads=1, export_path=None):
    """Empirical access failure probability: fail iff v_os > 0 and dv < v_os."""
    return _run_mc(_ROLE_ACCESS, cell, var, n, (t_read,), mode, threads, None, export_path)[0]


def run_write_mc(cell, var, n, t_write, mode="closed", threads=1, t_max=None,
                 export_path=None):
    """Empirical write failure probability: fail iff write time > t_write.

    Censored ODE samples count as failures; constraints beyond the censoring
    horizon are rejected.
    """
    return _run_mc(_ROLE_WRITE, cell, var, n, (t_write,), mode, threads, t_max, export_path)[0]


def run_mc(role, cell, var, n, constraints, mode="closed", threads=1):
    """One McResult per constraint of a role ("access" or "write") from one
    pass over n samples: the same numbers as one run_access_mc/run_write_mc
    call per constraint, at one draw per sample."""
    role = _role(role)
    if len(constraints) < 1:
        raise DomainError("an MC run needs at least one constraint")
    return _run_mc(role, cell, var, n, tuple(constraints), mode, threads, None)


SAMPLES_CSV_HEADER = "i,vth_n,vth_p,v_os,metric,fail"
_EXPORT_ROWS = 8192


def export_samples(path, vth_n, metric, fail, vth_p=None, v_os=None):
    """One CSV row per sample; columns not drawn for this mode stay empty."""
    drawn = (vth_n, vth_p, v_os, metric)
    row = ("{}" + "".join("," if c is None else ",{!r}" for c in drawn) + ",{:d}\n").format
    columns = [c for c in drawn if c is not None]
    fail = np.asarray(fail)

    def chunks():  # tolist per chunk, not per column: whole-column lists cost tens of MB
        for s in range(0, len(vth_n), _EXPORT_ROWS):
            part = slice(s, s + _EXPORT_ROWS)
            cols = [np.asarray(c[part], dtype=float).tolist() for c in columns]
            idx = range(s, s + len(cols[0]))
            yield "".join(starmap(row, zip(idx, *cols, fail[part].tolist())))

    write_csv(path, SAMPLES_CSV_HEADER, chunks())


# -- characterization -------------------------------------------------------------

def characterize_access(cell, var, t_grid, n=200, mode="closed", threads=1, lanes=None):
    """Per-grid-point moment estimation for the access distribution.

    Grid point j consumes its own block range [j*n, (j+1)*n), so the moment
    estimates carry independent noise per point and interpolation between
    points averages it down. All G*n blocks are drawn once and evaluated in
    one oracle call, each read time repeated over its row; `lanes`, those
    blocks from characterization_lanes("access", var, G*n), replaces the draw.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 1:
        raise DomainError("characterization grid needs at least 1 point")
    _check_pass(n, mode)
    if lanes is None:
        lanes = characterization_lanes("access", var, len(t_grid) * n, threads)
    dv = _oracle(_ROLE_ACCESS, cell, mode, *lanes, np.repeat(t_grid, n))
    dists = [estimate_delta_params(row) for row in dv.reshape(len(t_grid), n)]
    return AccessCharacterization(
        t_read=tuple(t_grid),
        mu_delta=tuple(d.mu_delta for d in dists),
        sigma_delta=tuple(d.sigma_delta for d in dists),
    )


def characterize_write(cell, var, n=1600, mode="closed", t0=None, t_max=None, threads=1,
                       lanes=None):
    """Moment estimation for the write-time distribution from n samples.

    `lanes`, blocks [0, n) from characterization_lanes("write", var, n),
    replaces the draw.
    """
    if t0 is None:
        t0 = DEFAULT_T0
    if lanes is None:
        _, _, t = write_samples(cell, var, n, mode=mode, t_max=t_max, threads=threads)
    else:
        _check_pass(n, mode)
        t = _oracle(_ROLE_WRITE, cell, mode, *lanes, t_max)
    return estimate_write_params(t, t0=t0)
