"""Seeded parallel Monte Carlo over threshold-voltage variation.

Sampling uses counter-based Philox substreams: sample i always consumes
counter block i of the stream keyed by (seed, role), so any partition of the
index range over any number of threads reproduces identical draws. Every
pass walks the index range as one ordered stream of fixed blocks of _BLOCK
= 16384 samples: each block is drawn once, evaluated, scored against every
constraint of the run, written to the sample export if there is one and
dropped, so a run holds O(_BLOCK * threads) lanes whatever n is, with or
without export. `threads` sets how many blocks are worked on at once, not
how the range is cut. A pass over many cells works in chunks of at most
_BLOCK lanes too. Failure counts come with Wilson score intervals; raw
samples can be exported as CSV for the distribution estimators.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from ._ufuncs import ndtri
from .artifacts import Record, csv_file, csv_text
from .errors import DomainError, check_domains, domain
from .transients import (CellConfig, default_write_t_max, delta_v_closed, delta_v_ode,
                         write_time_closed, write_time_ode)
from .yieldmodel import (DEFAULT_T0, AccessCharacterization, OffsetVoltageDist,
                         estimate_delta_params, estimate_write_params)

_ROLE_ACCESS = 1
_ROLE_WRITE = 2
_ROLES = {"access": _ROLE_ACCESS, "write": _ROLE_WRITE}
_MIN_UNIFORM = 2.0**-54  # ndtri(0) is -inf; the generator can emit exactly 0.0
# samples per stream block, whatever the thread count, and lanes per chunk of
# a many-cell pass: a 1e6-sample closed access pass at three read times
# traces a peak of 1.2 MB with it, 4.6 MB with 2**16-sample blocks
_BLOCK = 1 << 14
_PHILOX = threading.local()  # one generator per thread, reset for every block


@dataclass(frozen=True)
class VariationSpec(Record):
    """Gaussian threshold variation plus sense-amp offset, with the RNG seed."""

    vth_n_mean: float = domain()
    vth_n_sigma: float = domain(0.0)
    vth_p_mean: float = domain()
    vth_p_sigma: float = domain(0.0)
    offset: OffsetVoltageDist
    seed: int

    _JSON = {"schema": 1}
    _WHAT = "variation JSON"

    def __post_init__(self):
        check_domains(self)
        if int(self.seed) != self.seed or not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class McResult:
    n: int
    failures: int
    pf: float
    ci95: tuple
    samples_path: str | None
    wall_time: float
    samples_sha256: str | None = None  # of the export's bytes, as they were written

    def __post_init__(self):
        if self.failures > self.n:
            raise DomainError("failures cannot exceed n")

    def to_dict(self):
        """The reproducible payload: wall_time and the export digest are left out."""
        return {
            "schema": 1,
            "n": self.n,
            "failures": self.failures,
            "pf": self.pf,
            "ci95": [self.ci95[0], self.ci95[1]],
            "samples_path": self.samples_path,
        }


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
    Each thread keeps one generator and resets it to (seed, role, start):
    the state of a fresh Philox(key=(seed, role)) advanced by start.
    """
    gen = getattr(_PHILOX, "gen", None)
    if gen is None:  # Philox(0), not Philox(key=...): no SeedSequence from os.urandom
        gen = _PHILOX.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed, role], dtype=np.uint64)}}
    gen.bit_generator.advance(start)
    u = gen.random((count, 4))
    return np.maximum(u, _MIN_UNIFORM, out=u)


def _draw(var, role, start, count, other_mean, other_sigma, other=True):
    """(vth_n, other) arrays of one role's stream, block-indexed; with `other`
    false the second column is not transformed and None takes its place."""
    u = _block_uniforms(var.seed, role, start, count)
    return (_normal(u[:, 0], var.vth_n_mean, var.vth_n_sigma),
            _normal(u[:, 1], other_mean, other_sigma) if other else None)


def _normal(u, mean, sigma):
    """mean + sigma * ndtri(u), scaled and shifted in place (the same bits)."""
    x = ndtri(u)
    x *= sigma
    x += mean
    return x


def draw_access_samples(var, start, count):
    """(vth_n, v_os) arrays for the access stream, block-indexed."""
    return _draw(var, _ROLE_ACCESS, start, count, var.offset.mu_vos, var.offset.sigma_vos)


def draw_write_samples(var, start, count, with_vth_p=True):
    """(vth_n, vth_p) arrays for the write stream, block-indexed; vth_p is
    None, and not computed, if not `with_vth_p`."""
    return _draw(var, _ROLE_WRITE, start, count, var.vth_p_mean, var.vth_p_sigma, with_vth_p)


def _stream(fn, n, threads):
    """Lazily yield fn(start, count) for each fixed block of [0, n), in index
    order.

    Blocks are _BLOCK samples long whatever the thread count. With
    threads > 1 a pool works on the next `threads` blocks at once, and a
    block is submitted only when the consumer comes back for the next
    result, so at most `threads` blocks are in flight, the one the consumer
    holds included, and a pass holds O(_BLOCK * threads) lanes however
    slowly the consumer goes.
    """
    starts = range(0, n, _BLOCK)

    def run(s):
        return fn(s, min(_BLOCK, n - s))

    if threads <= 1 or len(starts) == 1:
        yield from map(run, starts)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque(pool.submit(run, s) for s in starts[:threads])
        for s in starts[threads:]:
            yield pending.popleft().result()
            pending.append(pool.submit(run, s))
        while pending:
            yield pending.popleft().result()


# -- sample evaluation ------------------------------------------------------------

def _check_pass(n, mode, cell):
    if n < 1:
        raise DomainError("n must be >= 1")
    if mode not in ("closed", "ode"):
        raise DomainError(f"oracle mode must be 'closed' or 'ode', got {mode!r}")
    if mode == "ode" and not isinstance(cell, CellConfig):
        raise DomainError("the ode oracles take one cell at a time")


def _role(name):
    if name not in _ROLES:
        raise DomainError(f"role must be 'access' or 'write', got {name!r}")
    return _ROLES[name]


def _draw_role(role, var, start, count):
    if role == _ROLE_ACCESS:
        return draw_access_samples(var, start, count)
    return draw_write_samples(var, start, count)


def _oracle(role, cell, mode, vth_n, other, t):
    """delta_v at read time t (access; a column of read times gives one row
    per time) or the write time censored at t_max = t (None picks the default
    horizon)."""
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
    _check_pass(n, mode, cell)

    def block(start, count):
        vth_n, other = _draw_role(role, var, start, count)
        return vth_n, other, _oracle(role, cell, mode, vth_n, other, t)

    return tuple(np.concatenate(cols, axis=-1) for cols in zip(*_stream(block, n, threads)))


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

    Every constraint is checked, and an export file (one constraint) opened,
    before the first draw. Each block computes only what its counts and its
    export read: access evaluates dv for all read times in one oracle call,
    which shares the gate term of each lane; write evaluates the write time
    once, and a closed write pass transforms vth_p only to export it. Each
    block is scored, its rows exported, and dropped before the next block is
    taken; wall_time covers the export, whose SHA-256 the results carry. If
    a block fails, the partial export is removed.
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
    _check_pass(n, mode, cell)

    times = np.array(constraints, dtype=float)[:, None]  # one row per constraint
    with_vth_p = export_path is not None or mode == "ode"

    def block(start, count):
        if role == _ROLE_ACCESS:
            vth_n, other = draw_access_samples(var, start, count)
            metrics = _oracle(role, cell, mode, vth_n, other, times)
            fails = metrics < other
            fails &= other > 0.0
            columns = {"vth_n": vth_n, "v_os": other, "metric": metrics[0]}
        else:
            vth_n, other = draw_write_samples(var, start, count, with_vth_p=with_vth_p)
            metric = _oracle(role, cell, mode, vth_n, other, t_max)
            fails = metric > times
            columns = {"vth_n": vth_n, "vth_p": other, "metric": metric}
        return start, np.count_nonzero(fails, axis=1).tolist(), {**columns, "fail": fails[0]}

    totals = [0] * len(constraints)
    digest = None if export_path is None else hashlib.sha256()
    started = time.perf_counter()
    export = nullcontext() if export_path is None else csv_file(export_path, SAMPLES_CSV_HEADER,
                                                                digest)
    with export as write, closing(_stream(block, n, threads)) as blocks:
        for start, counts, rows in blocks:
            totals = [a + b for a, b in zip(totals, counts)]
            if write is not None:
                export_samples(write, start=start, **rows)
            del rows  # drop this block before the next one is drawn
    wall = time.perf_counter() - started
    path, sha256 = (None, None) if export_path is None else (str(export_path), digest.hexdigest())
    return [McResult(n=n, failures=f, pf=f / n, ci95=wilson_ci(f, n, 0.95),
                     samples_path=path, wall_time=wall, samples_sha256=sha256)
            for f in totals]


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


def export_samples(write, vth_n, metric, fail, vth_p=None, v_os=None, start=0):
    """One CSV row per sample, numbered from `start`, through the write
    function of a `csv_file` opened with SAMPLES_CSV_HEADER; columns not drawn
    for this mode stay empty. Every float is written as its repr, so the file
    reads back to the exact sample values.
    """
    columns = [vth_n, vth_p, v_os, metric]
    fail = np.asarray(fail)
    text = csv_text(len(vth_n), lambda part: [
        np.arange(start + part.start, start + part.stop),
        *(None if c is None else np.asarray(c[part], dtype=float) for c in columns),
        fail[part]])
    for chunk in text:
        write(chunk)


# -- characterization -------------------------------------------------------------

def characterize_access(cell, var, t_grid, n=200, mode="closed", threads=1, lanes=None):
    """Per-grid-point moment estimation for the access distribution.

    Grid point j consumes its own block range [j*n, (j+1)*n), so the moment
    estimates carry independent noise per point and interpolation between
    points averages it down. All G*n blocks are drawn once and evaluated in
    one oracle call, each read time repeated over its row; `lanes`, those
    blocks from characterization_lanes("access", var, G*n), replaces the draw.
    A sequence of cells, with one row of t_grid per cell, is evaluated on
    the same lanes in that one call and gives a list of characterizations.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float), axis=-1)
    points = t_grid.shape[-1]
    if points < 1:
        raise DomainError("characterization grid needs at least 1 point")
    _check_pass(n, mode, cell)
    if lanes is None:
        lanes = characterization_lanes("access", var, points * n, threads)
    dv = _oracle(_ROLE_ACCESS, cell, mode, *lanes, np.repeat(t_grid, n, axis=-1))
    dists = estimate_delta_params(dv.reshape(-1, n))
    tables = [AccessCharacterization(t_read=tuple(t), mu_delta=tuple(d.mu_delta for d in row),
                                     sigma_delta=tuple(d.sigma_delta for d in row))
              for t, row in zip(t_grid.reshape(-1, points).tolist(),
                                (dists[i:i + points] for i in range(0, len(dists), points)))]
    return tables[0] if isinstance(cell, CellConfig) else tables


def characterize_write(cell, var, n=1600, mode="closed", t0=None, t_max=None, threads=1,
                       lanes=None):
    """Moment estimation for the write-time distribution from n samples.

    `lanes`, blocks [0, n) from characterization_lanes("write", var, n),
    replaces the draw. A sequence of cells is evaluated on the same lanes and
    gives a list of distributions.
    """
    if t0 is None:
        t0 = DEFAULT_T0
    if lanes is None:
        _, _, t = write_samples(cell, var, n, mode=mode, t_max=t_max, threads=threads)
    else:
        _check_pass(n, mode, cell)
        t = _oracle(_ROLE_WRITE, cell, mode, *lanes, t_max)
    return estimate_write_params(t, t0=t0)


def cell_chunks(cells, lanes_per_cell):
    """Consecutive chunks of a list of cells, each of at most _BLOCK lanes
    and at least one cell, so a pass over many cells holds O(_BLOCK) lanes
    at a time."""
    size = max(1, _BLOCK // max(lanes_per_cell, 1))
    return [cells[s:s + size] for s in range(0, len(cells), size)]
