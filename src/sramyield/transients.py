"""Per-sample transient outcomes for a 6T cell.

Two quantities drive the timing-yield statistics: the bitline differential
reached by the read deadline, and the minimum time for a write to pull the
storage node below the opposing inverter's trip point. Each comes in two
flavors: a closed form derived from the exponential current model, and the
exact solution of the full model's transient (the `ode` oracle) that serves
as the reference. The full-model ODEs separate because a sampled threshold
enters each current only through exp(p): every read lane runs along one
shared trajectory in scaled time, and every write time is a 1-D integral
W(r) of the inverse net drive, r being the sampled contention ratio. The
closed write form is that same integral at the nominal ratio, scaled by the
sampled access prefactor. Quadrature tables depend only on the cell, so
results are identical across runs and thread counts.

All vth arguments are per-sample threshold voltages; vectorized inputs are
evaluated lane-by-lane with no cross-lane coupling. The closed forms also take
a sequence of cells: each cell's constants become a (C, 1) column that the
lane arrays broadcast against, and every lane gets the bits it would get in a
call for its cell alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np

from .devices import (
    _ZERO_C_IN_K,
    EXP_ARG_LIMIT,
    DeviceParams,
    _current_at_zero_overdrive,
    gate_polynomial,
    thermal_voltage,
)
from .artifacts import Record, bundled_json, read_json
from .errors import DomainError, ModelInapplicableError, check_domains, domain

TRIP_RATIO_BOUNDS = (0.40, 0.62)
BOOST_HEADROOM = 0.2
_READ_PANELS = 512  # s = vdd - dv from vdd down to vdd * 2**-52, geometric
_NEWTON_STEPS = 3
_READ_CHUNK = 4096  # lanes per Newton pass of delta_v_ode: (8, chunk) node arrays
_WRITE_PANELS = 8  # per segment of the write path
_WRITE_GRADING = 10  # panels halving towards v*, per side
_WRITE_DEEP_GRADING = 40  # the same, in the deep rule: 16 nodes, where 8 and 16 disagree
_WRITE_REL_TOL = 1e-12
_WRITE_CHUNK = 16384  # lanes per pass of write_time_ode's node sums
_FMINBOUND_MAX_EVALS = 500  # scipy's maxiter default for method="bounded"


def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Newton steps on the Legendre polynomial from its asymptotic roots; an
    eigenvalue solver would pull LAPACK workspace into every process.
    """
    x = np.cos(np.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(8):
        p_prev, p = np.ones(order), x
        for k in range(2, order + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = order * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


_GAUSS = {order: _gauss_legendre(order) for order in (8, 16, 32)}


def _composite_rule(edges, order):
    """(nodes, weights) of the `order`-node Gauss-Legendre rule on every panel
    between consecutive edges, flattened along the last axis."""
    x, w = _GAUSS[order]
    mid, half = 0.5 * (edges[..., 1:] + edges[..., :-1]), 0.5 * np.diff(edges, axis=-1)
    shape = edges.shape[:-1] + (-1,)
    return (mid[..., None] + half[..., None] * x).reshape(shape), (half[..., None] * w).reshape(shape)


def _linspace(start, stop, num):
    """np.linspace(start, stop, num) along a new last axis, for floats or
    (C, 1) columns, with numpy's arithmetic in every row: start + k*step, or
    start + k/(num-1)*(stop-start) where the step underflows to 0, then the
    last point set to stop. Given columns, np.linspace itself takes the
    second form in every row once one row needs it."""
    delta = stop - start
    step = delta / (num - 1)
    k = np.arange(num, dtype=float)
    y = k * step
    if np.any(step == 0):
        y = np.where(step == 0, k / (num - 1) * delta, y)
    y += start
    y[..., -1:] = stop
    return y


def _libm_exp(x):
    """math.exp of a float, or of each entry of a per-cell column. Per-cell
    scalars keep libm's bits, which np.exp does not always reproduce."""
    if np.ndim(x) == 0:
        return math.exp(x)
    return np.array([math.exp(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


@dataclass(frozen=True)
class CellConfig(Record):
    """Voltages, capacitances, and device constants of one 6T cell.

    `vwl` and `vddc` are the effective wordline and cell-supply voltages
    after any assist; `apply_assist` produces modified copies. Construction
    checks each field's declared domain, the rules between fields
    (polarities, the v_trip band, the boost headroom) and that the drain
    factors stay finite; the write integral at
    the nominal contention ratio, and the check that the pull-down stays
    ahead on the whole path (by a bound where it settles it, else by a
    scan), wait for the first `w_trip` read, so cells that only serve reads
    never pay for them.
    """

    nmos: DeviceParams
    pmos: DeviceParams
    vdd: float = domain(0.0)
    vwl: float = domain(0.0, closed=True)
    vddc: float = domain(0.0)
    c_blb: float = domain(0.0, default=50e-15)
    c_q: float = domain(0.0, default=1e-15)
    v_trip: float | None = domain(default=None)
    temperature_c: float = domain(-_ZERO_C_IN_K, default=25.0)

    _JSON = {"schema": 1}
    _WHAT = "cell JSON"

    def __post_init__(self):
        if self.v_trip is None:
            object.__setattr__(self, "v_trip", 0.5 * self.vddc)
        check_domains(self)
        if self.nmos.polarity != "nmos":
            raise DomainError("CellConfig.nmos must have polarity 'nmos'")
        if self.pmos.polarity != "pmos":
            raise DomainError("CellConfig.pmos must have polarity 'pmos'")
        if not 0.0 < self.v_trip < self.vddc:
            raise DomainError(f"v_trip must lie in (0, vddc), got {self.v_trip}")
        if self.vwl > self.vdd + BOOST_HEADROOM:
            raise DomainError(
                f"vwl {self.vwl} exceeds vdd + {BOOST_HEADROOM} boost headroom"
            )
        ratio = self.v_trip / self.vddc
        lo, hi = TRIP_RATIO_BOUNDS
        if not lo <= ratio <= hi:
            raise DomainError(
                f"v_trip/vddc = {ratio:.3f} outside the validated band [{lo}, {hi}]"
            )
        self._check_write_model()

    # -- closed write model ---------------------------------------------------
    def _check_write_model(self):
        """Sets beta0 and rejects drain factors that overflow on the write path
        (the access path would overflow with them). Each factor is monotone in
        vds, so the ends of its vds range bound it."""
        vt = thermal_voltage(self.temperature_c)
        nm, pm = self.nmos, self.pmos
        p_n0 = gate_polynomial(nm, self.vwl, vt)
        p_p0 = gate_polynomial(pm, self.vddc, vt)
        beta0 = math.exp(min(max(p_p0 - p_n0, -EXP_ARG_LIMIT), EXP_ARG_LIMIT))
        object.__setattr__(self, "beta0", beta0)

        ends = (self.v_trip, self.vdd)
        for name, dev, scale, vds in (("nmos", nm, 1.0, ends),
                                      ("pmos", pm, beta0, [self.vddc - v for v in ends])):
            try:
                finite = all(math.isfinite(scale * dev.i0 * math.exp(dev.dibl * x / (dev.n * vt)))
                             for x in vds)
            except OverflowError:
                finite = False
            if not finite:
                raise DomainError(
                    f"{name} drain-bias factor i0*exp(lambda*vds/(n*vt)) overflows "
                    f"(i0 = {dev.i0!r}, lambda = {dev.dibl!r})"
                )

    @cached_property
    def w_trip(self):
        """W(beta0), the write integral of dv / (h_n - beta0*h_p) over
        [v_trip, vdd] (V/A), computed once: _trip_integrals of this cell alone."""
        return float(_trip_integrals([self])[0])

    @cached_property
    def read_table(self):
        """(edges, F), the scaled-time table every delta_v_ode call on this
        cell reads, computed once (_read_table)."""
        return _read_table(self)

    @cached_property
    def write_path(self):
        """What every write_time_ode call on this cell shares, computed once:
        r_crit (_critical_ratio), the cuts of the path, its constants c
        (_columns) and per rule order (8, 16) the weights, h_n and h_p; deep()
        builds the deep rule on first use, as few lanes need it."""
        r_crit, v_star = _critical_ratio(self)
        cuts = [v for v in (self.vddc, v_star) if self.v_trip < v < self.vdd]
        c = _columns(self)

        def rule(edges, order):
            nodes, w = _composite_rule(edges, order)
            return (w, *_drives(c, nodes))

        edges = _write_edges(self, cuts, v_star)
        return SimpleNamespace(r_crit=r_crit, cuts=cuts, c=c,
                               rules=[rule(edges, order) for order in (8, 16)],
                               deep=cache(lambda: rule(_write_edges(
                                   self, cuts, v_star, _WRITE_DEEP_GRADING), 16)))


def read_cell_json(path):
    return CellConfig.from_dict(read_json(path, "cell JSON"))


def load_default_cell():
    """Bundled desk-scale default cell."""
    return CellConfig.from_dict(bundled_json("default_cell.json"))


_CELL_COLUMNS = ("vdd", "vwl", "vddc", "c_blb", "c_q", "v_trip", "beta0")
_DEVICE_COLUMNS = ("i0", "k1", "k2", "dibl", "n", "vth_nominal")


def _columns(cell):
    """The constants the closed forms read, with the thermal voltage vt: floats
    (and the DeviceParams) of one CellConfig, or (C, 1) columns of a sequence
    of cells."""
    if isinstance(cell, CellConfig):
        return SimpleNamespace(nmos=cell.nmos, pmos=cell.pmos,
                               vt=thermal_voltage(cell.temperature_c),
                               **{k: getattr(cell, k) for k in _CELL_COLUMNS})

    def column(values):
        return np.array(values, dtype=float)[:, None]

    def device(name):
        return SimpleNamespace(**{k: column([getattr(getattr(c, name), k) for c in cell])
                                  for k in _DEVICE_COLUMNS})

    return SimpleNamespace(nmos=device("nmos"), pmos=device("pmos"),
                           vt=column([thermal_voltage(c.temperature_c) for c in cell]),
                           **{k: column([getattr(c, k) for c in cell]) for k in _CELL_COLUMNS})


@dataclass(frozen=True)
class AssistConfig:
    """Fixed voltage shifts modeling read/write assist circuits."""

    wl_underdrive: float = domain(0.0, closed=True, default=0.0)
    wl_boost: float = domain(0.0, closed=True, default=0.0)
    cell_vdd_delta: float = domain(default=0.0)

    def __post_init__(self):
        check_domains(self)


def apply_assist(base, assist, mode):
    """New CellConfig with assist voltages applied for a read or a write.

    Reads get wordline underdrive and optional cell-supply boost; writes get
    wordline boost and optional cell-supply collapse.
    """
    if mode == "read":
        vwl = base.vdd - assist.wl_underdrive
        vddc = base.vdd + max(assist.cell_vdd_delta, 0.0)
    elif mode == "write":
        vwl = base.vdd + assist.wl_boost
        vddc = base.vdd + min(assist.cell_vdd_delta, 0.0)
    else:
        raise DomainError(f"assist mode must be 'read' or 'write', got {mode!r}")
    if vwl < 0.0:
        raise DomainError(f"assist drives vwl below ground: {vwl:.3f} V")
    if vddc <= base.v_trip:
        raise DomainError(
            f"assist collapses vddc to {vddc:.3f} V, at or below v_trip {base.v_trip:.3f} V"
        )
    return replace(base, vwl=vwl, vddc=vddc)


# -- bitline discharge (read) -------------------------------------------------

def delta_v_closed(cell, vth_n, t_read):
    """Bitline differential after t_read, closed form.

    Solves the discharge balance exactly with the per-sample gate polynomial,
    dropping only the near-unity drain factor of the access transistor. The
    zero-DIBL case is the continuous limit (a linear ramp clamped at vdd).
    Accepts scalar or array vth_n / t_read, and one cell or a sequence; the
    gate term is computed once per lane, so a column of read times against a
    row of lanes pays for it once. The steps after it run in place, in the
    order of ((i0*exp(p))*t)/c_blb, so the bits are those of the plain
    expression.
    """
    t = np.asarray(t_read, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t_read must be >= 0")
    c = _columns(cell)
    nm = c.nmos
    p = np.asarray(np.clip(gate_polynomial(nm, c.vwl, c.vt, np.asarray(vth_n, dtype=float)),
                           -EXP_ARG_LIMIT, EXP_ARG_LIMIT))
    drive = np.exp(p, out=p)  # i0*exp(p), in p's storage
    drive *= nm.i0
    z = nm.dibl / (nm.n * c.vt)
    linear = z == 0.0
    any_linear = np.any(linear)
    z = np.where(linear, 1.0, z)  # zero DIBL takes the ramp itself, below
    with np.errstate(over="ignore"):  # a huge read time saturates at vdd below
        ramp = np.asarray(drive * t)  # discharge without the DIBL factor
        ramp /= c.c_blb
        arg = ramp.copy() if any_linear else ramp
        arg *= z
        arg *= _libm_exp(z * c.vdd)
    drained = arg <= -1.0
    any_drained = drained.any()
    if any_drained:
        arg[drained] = 0.0
    dv = np.log1p(arg, out=arg)
    dv /= z
    if any_drained:
        np.copyto(dv, c.vdd, where=drained)
    if any_linear:
        dv = np.where(linear, ramp, dv)
    np.clip(dv, 0.0, c.vdd, out=dv)
    return float(dv) if dv.ndim == 0 else dv


def read_time_closed(cell, vth_n, dv):
    """Read time at which delta_v_closed reaches dv in (0, vdd): its exact inverse,
    t = c_blb/(i0*e^p) * expm1(z*dv)/(z*e^(z*vdd)), or c_blb*dv/(i0*e^p) at zero
    DIBL. Overflow gives a time of 0 or inf. Accepts scalar or array vth_n / dv
    (None is the nominal threshold), and one cell or a sequence.
    """
    c = _columns(cell)
    nm = c.nmos
    p = np.clip(gate_polynomial(nm, c.vwl, c.vt, vth_n), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    z = nm.dibl / (nm.n * c.vt)
    linear = z == 0.0
    z = np.where(linear, 1.0, z)
    with np.errstate(over="ignore", divide="ignore"):
        ramp = np.expm1(z * dv) / (z * np.exp(z * c.vdd))
        if np.any(linear):
            ramp = np.where(linear, dv, ramp)
        return c.c_blb / (nm.i0 * np.exp(p)) * ramp


def _gauss_integral(f, lo, hi):
    """Lane-wise integral over [lo, hi] by 8-point Gauss-Legendre. f takes the
    (8, L) nodes in one call; its rows are summed left to right, so a lane
    gets the same bits at any L (numpy's reductions sum a contiguous axis
    pairwise)."""
    x, w = _GAUSS[8]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    rows = f(mid + half * x[:, None])
    rows *= w[:, None]
    acc = rows[0]
    for row in rows[1:]:
        acc += row
    return half * acc


def _inverse_read_drive(cell):
    """s -> 1/h(s), the inverse access current at p = 0 and drain bias s."""
    nm, vt = cell.nmos, thermal_voltage(cell.temperature_c)
    return lambda s: 1.0 / _current_at_zero_overdrive(nm, s, vt)


def _read_table(cell):
    """(edges, F): _READ_PANELS panel edges geometric in s = vdd - dv, from vdd
    down to one ulp of vdd (F diverges logarithmically at full discharge),
    and F at each edge, the integral of du/h(u) from the edge to vdd by
    8-node Gauss-Legendre per panel."""
    edges = cell.vdd * np.exp2(np.linspace(0.0, -52.0, _READ_PANELS + 1))
    panels = _gauss_integral(_inverse_read_drive(cell), edges[1:], edges[:-1])
    return edges, np.concatenate(([0.0], np.cumsum(panels)))


def delta_v_ode(cell, vth_n, t_read):
    """Bitline differential of the full current model, solved exactly.

    Keeps the drain factor the closed form drops. The sampled threshold
    enters the current only through exp(p), so every lane follows one
    trajectory in the scaled time tau = exp(p)*t/c_blb: with s = vdd - dv,
    tau = F(s), the integral of du/h(u) from s to vdd, h being the current
    at p = 0. F is tabulated once per cell (CellConfig.read_table); in
    chunks of _READ_CHUNK lanes each lane finds its panel by bisection and
    solves F(s) = tau by Newton steps with the exact slope -1/h(s). A tau
    past the table returns vdd.
    """
    vth_n = np.asarray(vth_n, dtype=float)
    t = np.asarray(t_read, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t_read must be >= 0")
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    p = np.clip(gate_polynomial(nm, cell.vwl, vt, vth_n), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    with np.errstate(over="ignore"):  # a tau of inf is past the table: vdd
        tau = np.exp(p) * t / cell.c_blb
    edges, table = cell.read_table
    inv_drive = _inverse_read_drive(cell)
    dv = np.empty(tau.shape)
    out, tau = dv.reshape(-1), tau.reshape(-1)
    for i in range(0, tau.size, _READ_CHUNK):
        chunk = tau[i:i + _READ_CHUNK]
        k = np.minimum(np.searchsorted(table, chunk, side="right") - 1, _READ_PANELS - 1)
        hi, lo = edges[k], edges[k + 1]
        # a lane past the table would start below its panel, at a negative bias;
        # only such lanes reach the flat last panels, and they return vdd below
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.clip(hi - (chunk - table[k]) / (table[k + 1] - table[k]) * (hi - lo), lo, hi)
        for _ in range(_NEWTON_STEPS):
            residual = table[k] + _gauss_integral(inv_drive, s, hi) - chunk
            s = np.clip(s + residual / inv_drive(s), lo, hi)
        out[i:i + _READ_CHUNK] = np.where(chunk >= table[-1], cell.vdd, cell.vdd - s)
    return float(dv) if dv.ndim == 0 else dv


# -- write transition ----------------------------------------------------------

def write_time_closed(cell, vth_n):
    """Minimum write time, closed form: c_q * exp(-p_n) * W(beta0).

    This is write_time_ode's integral with the contention ratio r frozen at
    its nominal value beta0 (CellConfig.w_trip), so only the access-transistor
    polynomial varies per sample and at nominal thresholds the two agree.
    Raises ModelInapplicableError when the frozen pull-up overpowers the
    pull-down anywhere on the integration path (_trip_integrals says where it
    looks). Takes one cell or a sequence.
    """
    c = _columns(cell)
    w = cell.w_trip if isinstance(cell, CellConfig) else _trip_integrals(cell, c)[:, None]
    p_n = np.clip(gate_polynomial(c.nmos, c.vwl, c.vt, np.asarray(vth_n, dtype=float)),
                  -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    t = c.c_q * np.exp(-p_n) * w
    return float(t) if np.ndim(t) == 0 else t


def _write_edges(cell, cuts, v_star=None, grading=_WRITE_GRADING):
    """Panel edges on the write path [v_trip, vdd], along the last axis.

    _WRITE_PANELS equal panels between consecutive cuts (vddc, the kink of
    h_p, and for the ODE lanes v*), plus, given v*, `grading` edges a side
    halving their distance to it, where the integrand near r_crit peaks.
    """
    ends = [cell.v_trip, *sorted(cuts), cell.vdd]
    parts = [_linspace(a, b, _WRITE_PANELS + 1) for a, b in zip(ends[:-1], ends[1:])]
    edges = np.concatenate([part[..., :-1] for part in parts] + [parts[-1][..., -1:]], axis=-1)
    if v_star is None:
        return edges
    width = (cell.vdd - cell.v_trip) / _WRITE_PANELS
    graded = v_star + np.outer(width * np.exp2(-np.arange(1, grading + 1)), [-1.0, 1.0])
    edges = np.unique(np.concatenate([edges, graded.ravel()]))
    return edges[(edges >= cell.v_trip) & (edges <= cell.vdd)]


def _drives(c, v):
    """(h_n, h_p) on the write path: the access and pull-up currents at p = 0,
    for _columns `c`."""
    vds_p = np.maximum(c.vddc - v, 0.0)
    return (_current_at_zero_overdrive(c.nmos, v, c.vt),
            _current_at_zero_overdrive(c.pmos, vds_p, c.vt))


def _trip_integrals(cells, c=None):
    """W(beta0) of each cell of a sequence (V/A): the write integral of
    dv / (h_n - beta0*h_p) over [v_trip, vdd] at the nominal contention ratio.

    It sums 8- and 16-node composite rules on [v_trip, vdd], split at vddc,
    the kink of h_p, if some cell has it on the path; where the two rules
    disagree, the cell's deep write rule decides. The net drive must stay
    positive on the rule nodes and on a 1025-point grid. With DIBL >= 0 on both devices,
    h_n rises and h_p falls along the path, so the net drive is least at
    v_trip: where it exceeds 1e-9 of h_n(vdd) + beta0*h_p(v_trip), with both
    drives at v_trip normal floats, no node of either can round to <= 0. So
    one _drives call evaluates the rule nodes, v_trip and vdd, and the grid is
    evaluated only for a sequence with a cell this bound does not settle. A
    failing cell raises; the first one does if several fail. `c` is
    _columns(cells), if the caller has it.
    """
    c = _columns(cells) if c is None else c
    edges = _write_edges(c, [np.minimum(c.vddc, c.vdd)] if np.any(c.vddc < c.vdd) else [])
    (v8, w8), (v16, w16) = (_composite_rule(edges, order) for order in (8, 16))
    v = np.concatenate([c.v_trip, c.vdd, v8, v16], axis=-1)
    h_n, h_p = _drives(c, v)
    net = h_n - c.beta0 * h_p
    proved = ((np.minimum(c.nmos.dibl, c.pmos.dibl) >= 0.0) & (c.v_trip < c.vdd)
              & (np.minimum(h_n[:, :1], h_p[:, :1]) >= 1e-290)
              & (net[:, :1] > 1e-9 * (h_n[:, 1:2] + c.beta0 * h_p[:, :1])))
    if not proved.all():
        v = np.concatenate([_linspace(c.v_trip, c.vdd, 1025), v[:, 2:]], axis=-1)
        h_n, h_p = _drives(c, v)
        net = h_n - c.beta0 * h_p
        failing = np.flatnonzero(~(c.v_trip < c.vdd)[:, 0] | ~(np.min(net, axis=-1) > 0.0))
        if failing.size:
            i = failing[0]
            cell = cells[i]
            if not cell.v_trip < cell.vdd:
                raise ModelInapplicableError(
                    f"v_trip {cell.v_trip} is not below the write start voltage vdd {cell.vdd}")
            raise ModelInapplicableError(
                "pull-up overpowers pull-down in the closed write model "
                f"near v_q = {v[i, int(np.argmin(net[i]))]:.4f} V; closed write times are undefined"
            )
    split = v.shape[-1] - w16.shape[-1]
    coarse = np.add.accumulate(w8 / net[:, split - w8.shape[-1]:split], axis=-1)[:, -1]
    total = np.add.accumulate(w16 / net[:, split:], axis=-1)[:, -1]
    for i in np.flatnonzero(~(np.abs(total - coarse) <= _WRITE_REL_TOL * total)):
        total[i] = _deep_write_integrals(cells[i].write_path, c.beta0[i])[0]
    return total


def _deep_write_integrals(path, r):
    """W(r) of each ratio of the array r on the deep rule of a write_path, a
    lane's terms summed in node order: its bits do not depend on the batch."""
    w, h_n, h_p = path.deep()
    out = np.empty(r.size)
    step = max(1, _WRITE_CHUNK // w.size)
    for start in range(0, r.size, step):
        lanes = r[start:start + step, None]
        out[start:start + step] = np.add.accumulate(w / (h_n - lanes * h_p), axis=-1)[:, -1]
    return out


def write_time_ode(cell, vth_n, vth_p, t_max):
    """First crossing of v_trip by the written node, full current model, exact.

    From v_q = vdd the node falls at (i_m2 - i_m4)/c_q. Each current is
    exp(p) times its value at p = 0 (h_n, h_p), so the crossing time
    separates: t = c_q*exp(-p_n) * W(r), W(r) the integral over [v_trip, vdd]
    of dv / (h_n(v) - r*h_p(v)) with r = exp(p_p - p_n). h_p has a kink at
    vddc, so the path is split there. Returns math.inf for censored samples:
    r >= r_crit = min h_n/h_p on the path (the pull-up holds the node above
    v_trip for ever, or wins outright at the start), or a crossing after
    t_max. Each lane compares 8- and 16-node composite rules, summed node by
    node over chunks of _WRITE_CHUNK lanes into reused buffers; lanes where
    they disagree, close to r_crit, take the deep rule.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    n_b, p_b = np.broadcast_arrays(np.asarray(vth_n, dtype=float),
                                   np.asarray(vth_p, dtype=float))
    nm, pm = cell.nmos, cell.pmos
    vt = thermal_voltage(cell.temperature_c)
    p_n = np.clip(gate_polynomial(nm, cell.vwl, vt, n_b.ravel()), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    p_p = np.clip(gate_polynomial(pm, cell.vddc, vt, p_b.ravel()), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    r = np.exp(p_p - p_n)

    path = cell.write_path
    live = r < path.r_crit
    r_live = np.where(live, r, 0.0)  # dead lanes: a harmless integrand
    coarse, total = np.zeros(r.size), np.zeros(r.size)
    buf = np.empty(min(r.size, _WRITE_CHUNK))
    for start in range(0, r.size, _WRITE_CHUNK):
        part = slice(start, start + _WRITE_CHUNK)
        lanes = r_live[part]
        term = buf[:lanes.size]
        for acc, (w, h_n, h_p) in zip((coarse[part], total[part]), path.rules):
            for wk, nk, pk in zip(w, h_n, h_p):  # acc += wk / (nk - r*pk), in place
                np.multiply(lanes, pk, out=term)
                np.subtract(nk, term, out=term)
                np.divide(wk, term, out=term)
                acc += term
    deep = live & ~(np.abs(total - coarse) <= _WRITE_REL_TOL * total)
    if deep.any():
        total[deep] = _deep_write_integrals(path, r[deep])
    t = np.where(live, cell.c_q * np.exp(-p_n) * total, np.inf)
    t = np.where(t > t_max, np.inf, t).reshape(n_b.shape)
    return float(t) if t.ndim == 0 else t


def _critical_ratio(cell):
    """(r_crit, v*): the minimum of h_n/h_p on the write path and where it is.

    A grid minimum only bounds r_crit from above, so the grid argmin is
    refined by a bounded scalar minimisation over its neighbouring cells.
    """
    c = _columns(cell)
    grid = np.linspace(c.v_trip, min(c.vdd, c.vddc), 1025)
    with np.errstate(divide="ignore"):  # h_p = 0 at v = vddc
        ratio = np.divide(*_drives(c, grid))
    i = int(np.argmin(ratio))
    x, fun = _fminbound(lambda v: float(np.divide(*_drives(c, v))),
                        grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], xatol=1e-15)
    if fun < ratio[i]:
        return fun, x
    return ratio[i], grid[i]


def _sign(d):
    """np.sign(d) + (d == 0) of a number: -1.0 below zero, else 1.0 (_fminbound
    passes no nan: its steps stay finite between finite bounds)."""
    return -1.0 if d < 0.0 else 1.0


def _fminbound(func, x1, x2, xatol):
    """(x, f(x)) at a minimum of func on [x1, x2] by Brent's bounded method.

    A line-for-line port of scipy.optimize's _minimize_scalar_bounded, the
    method="bounded" of minimize_scalar: the same golden-section and parabolic
    steps, tolerances, evaluation order and 500-evaluation cap, so the same
    bits, without importing scipy.optimize (and its start-up cost) on the ODE
    write path. The bounds must be finite with x1 <= x2.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _FMINBOUND_MAX_EVALS:
            break
    return xf, fx


def default_write_t_max(cell, factor=100.0):
    """Censoring horizon: `factor` times the nominal closed-form write time."""
    return factor * float(write_time_closed(cell, cell.nmos.vth_nominal))
