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
evaluated lane-by-lane with no cross-lane coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .devices import (
    EXP_ARG_LIMIT,
    DeviceParams,
    _current_proposed,
    gate_polynomial,
    thermal_voltage,
)
from .artifacts import bundled_json, parsing, read_json, write_json
from .errors import DomainError, ModelInapplicableError, require_finite

TRIP_RATIO_BOUNDS = (0.40, 0.62)
BOOST_HEADROOM = 0.2
_READ_PANELS = 512  # s = vdd - dv from vdd down to vdd * 2**-52, geometric
_NEWTON_STEPS = 3
_WRITE_PANELS = 8  # per segment of the write path
_WRITE_GRADING = 10  # panels halving towards v*, per side
_WRITE_REL_TOL = 1e-12


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
    """Flattened (nodes, weights) of the `order`-node Gauss-Legendre rule on
    every panel between consecutive edges."""
    x, w = _GAUSS[order]
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return np.ravel(mid[:, None] + half[:, None] * x), np.ravel(half[:, None] * w)


@dataclass(frozen=True)
class CellConfig:
    """Voltages, capacitances, and device constants of one 6T cell.

    `vwl` and `vddc` are the effective wordline and cell-supply voltages
    after any assist; `apply_assist` produces modified copies. Construction
    checks only that the drain factors stay finite; the write integral at
    the nominal contention ratio, and the check that the pull-down stays
    ahead on the whole path, wait for the first `w_trip` read, so cells that
    only serve reads never pay for them.
    """

    nmos: DeviceParams
    pmos: DeviceParams
    vdd: float
    vwl: float
    vddc: float
    c_blb: float = 50e-15
    c_q: float = 1e-15
    v_trip: float | None = None
    temperature_c: float = 25.0

    def __post_init__(self):
        if self.v_trip is None:
            object.__setattr__(self, "v_trip", 0.5 * self.vddc)
        require_finite(self, ("vdd", "vwl", "vddc", "c_blb", "c_q", "v_trip", "temperature_c"))
        if self.nmos.polarity != "nmos":
            raise DomainError("CellConfig.nmos must have polarity 'nmos'")
        if self.pmos.polarity != "pmos":
            raise DomainError("CellConfig.pmos must have polarity 'pmos'")
        if self.vdd <= 0.0:
            raise DomainError(f"vdd must be positive, got {self.vdd}")
        if self.vwl < 0.0:
            raise DomainError(f"vwl must be >= 0, got {self.vwl}")
        if self.vddc <= 0.0:
            raise DomainError(f"vddc must be positive, got {self.vddc}")
        if self.c_blb <= 0.0 or self.c_q <= 0.0:
            raise DomainError("capacitances must be positive")
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
        thermal_voltage(self.temperature_c)  # rejects non-physical temperature
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
        [v_trip, vdd] (V/A), computed once.

        One _drives call covers a 1025-point grid, on which the net drive must
        stay positive, and the nodes of 8- and 16-node composite rules; where
        the two rules disagree, adaptive quadrature decides.
        """
        if not self.v_trip < self.vdd:
            raise ModelInapplicableError(
                f"v_trip {self.v_trip} is not below the write start voltage vdd {self.vdd}")
        cuts = [self.vddc] if self.vddc < self.vdd else []
        (v8, w8), (v16, w16) = (_composite_rule(_write_edges(self, cuts), order)
                                for order in (8, 16))
        v = np.concatenate([np.linspace(self.v_trip, self.vdd, 1025), v8, v16])
        h_n, h_p = _drives(self, v)
        net = h_n - self.beta0 * h_p
        if not np.min(net) > 0.0:
            raise ModelInapplicableError(
                "pull-up overpowers pull-down in the closed write model "
                f"near v_q = {v[int(np.argmin(net))]:.4f} V; closed write times are undefined"
            )
        split = v.size - w16.size
        coarse = np.add.accumulate(w8 / net[split - w8.size:split])[-1]
        total = np.add.accumulate(w16 / net[split:])[-1]
        if not abs(total - coarse) <= _WRITE_REL_TOL * total:
            total = _trip_quad(self, self.beta0, cuts)
        return float(total)

    # -- serialization --------------------------------------------------------
    def to_dict(self):
        return {
            "schema": 1,
            "vdd": self.vdd,
            "vwl": self.vwl,
            "vddc": self.vddc,
            "c_blb": self.c_blb,
            "c_q": self.c_q,
            "v_trip": self.v_trip,
            "temperature_c": self.temperature_c,
            "nmos": self.nmos.to_dict(),
            "pmos": self.pmos.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("cell JSON"):
            return cls(
                nmos=DeviceParams.from_dict(obj["nmos"]),
                pmos=DeviceParams.from_dict(obj["pmos"]),
                vdd=float(obj["vdd"]),
                vwl=float(obj["vwl"]),
                vddc=float(obj["vddc"]),
                c_blb=float(obj.get("c_blb", 50e-15)),
                c_q=float(obj.get("c_q", 1e-15)),
                v_trip=float(obj["v_trip"]) if obj.get("v_trip") is not None else None,
                temperature_c=float(obj.get("temperature_c", 25.0)),
            )


def read_cell_json(path):
    return CellConfig.from_dict(read_json(path, "cell JSON"))


def write_cell_json(cell, path):
    write_json(path, cell.to_dict())


def load_default_cell():
    """Bundled desk-scale default cell."""
    return CellConfig.from_dict(bundled_json("default_cell.json"))


@dataclass(frozen=True)
class AssistConfig:
    """Fixed voltage shifts modeling read/write assist circuits."""

    wl_underdrive: float = 0.0
    wl_boost: float = 0.0
    cell_vdd_delta: float = 0.0

    def __post_init__(self):
        require_finite(self, ("wl_underdrive", "wl_boost", "cell_vdd_delta"))
        if self.wl_underdrive < 0.0:
            raise DomainError(f"wl_underdrive must be >= 0, got {self.wl_underdrive}")
        if self.wl_boost < 0.0:
            raise DomainError(f"wl_boost must be >= 0, got {self.wl_boost}")


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
    Accepts scalar or array vth_n / t_read.
    """
    vth_n = np.asarray(vth_n, dtype=float)
    t = np.asarray(t_read, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t_read must be >= 0")
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    p = np.clip(gate_polynomial(nm, cell.vwl, vt, vth_n), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    ramp = nm.i0 * np.exp(p) * t / cell.c_blb  # discharge without the DIBL factor
    z = nm.dibl / (nm.n * vt)
    if z == 0.0:
        dv = ramp
    else:
        arg = z * ramp * math.exp(z * cell.vdd)
        drained = arg <= -1.0
        dv = np.where(drained, cell.vdd, np.log1p(np.where(drained, 0.0, arg)) / z)
    dv = np.clip(dv, 0.0, cell.vdd)
    return float(dv) if dv.ndim == 0 else dv


def read_time_closed(cell, vth_n, dv):
    """Read time at which delta_v_closed reaches dv in (0, vdd): its exact inverse,
    t = c_blb/(i0*e^p) * expm1(z*dv)/(z*e^(z*vdd)), or c_blb*dv/(i0*e^p) at zero
    DIBL. Overflow gives a time of 0 or inf. Accepts scalar or array vth_n / dv.
    """
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    p = np.clip(gate_polynomial(nm, cell.vwl, vt, vth_n), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    z = nm.dibl / (nm.n * vt)
    with np.errstate(over="ignore", divide="ignore"):
        ramp = dv if z == 0.0 else np.expm1(z * dv) / (z * np.exp(z * cell.vdd))
        return cell.c_blb / (nm.i0 * np.exp(p)) * ramp


def delta_v_linearized(cell, vth_n, t_read, p0=None):
    """Bitline differential with the second gate polynomial frozen at p0.

    This is the approximation behind the chi-square statistics: the result is
    affine in the sampled polynomial p, with an additive term that depends
    only on t_read. Requires a nonzero DIBL coefficient.
    """
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    z = nm.dibl / (nm.n * vt)
    if z == 0.0:
        raise DomainError("linearized form requires a nonzero DIBL coefficient")
    if p0 is None:
        p0 = gate_polynomial(nm, cell.vwl, vt)
    p = gate_polynomial(nm, cell.vwl, vt, np.asarray(vth_n, dtype=float))
    alpha = z * nm.i0 / cell.c_blb
    g = math.log(alpha * t_read + math.exp(-z * cell.vdd - p0)) / z + cell.vdd
    out = p / z + g
    return float(out) if np.ndim(out) == 0 else out


def _gauss_integral(f, lo, hi):
    """Lane-wise integral of f over [lo, hi] by 8-point Gauss-Legendre."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    acc = 0.0
    for x, w in zip(*_GAUSS[8]):
        acc = acc + w * f(mid + half * x)
    return half * acc


def delta_v_ode(cell, vth_n, t_read):
    """Bitline differential of the full current model, solved exactly.

    Keeps the drain factor the closed form drops. The sampled threshold
    enters the current only through exp(p), so every lane follows one
    trajectory in the scaled time tau = exp(p)*t/c_blb: with s = vdd - dv,
    tau = F(s), the integral of du/h(u) from s to vdd, h being the current
    at p = 0. F is tabulated once per call on panels geometric in s (F
    diverges logarithmically at full discharge) down to one ulp of vdd; each
    lane finds its panel by bisection and solves F(s) = tau by Newton steps
    with the exact slope -1/h(s). A tau past the table returns vdd.
    """
    vth_n = np.asarray(vth_n, dtype=float)
    t = np.asarray(t_read, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t_read must be >= 0")
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    p = np.clip(gate_polynomial(nm, cell.vwl, vt, vth_n), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    tau = np.exp(p) * t / cell.c_blb

    def inv_drive(s):  # vth = vwl makes the gate polynomial exactly 0
        return 1.0 / _current_proposed(nm, cell.vwl, s, vt, cell.vwl)

    edges = cell.vdd * np.exp2(np.linspace(0.0, -52.0, _READ_PANELS + 1))
    table = np.concatenate(([0.0], np.cumsum(_gauss_integral(inv_drive, edges[1:], edges[:-1]))))
    k = np.minimum(np.searchsorted(table, tau, side="right") - 1, _READ_PANELS - 1)
    hi, lo = edges[k], edges[k + 1]
    s = hi - (tau - table[k]) / (table[k + 1] - table[k]) * (hi - lo)
    for _ in range(_NEWTON_STEPS):
        residual = table[k] + _gauss_integral(inv_drive, s, hi) - tau
        s = np.clip(s + residual / inv_drive(s), lo, hi)
    dv = np.where(tau >= table[-1], cell.vdd, cell.vdd - s)
    return float(dv) if dv.ndim == 0 else dv


# -- write transition ----------------------------------------------------------

def write_time_closed(cell, vth_n):
    """Minimum write time, closed form: c_q * exp(-p_n) * W(beta0).

    This is write_time_ode's integral with the contention ratio r frozen at
    its nominal value beta0 (CellConfig.w_trip), so only the access-transistor
    polynomial varies per sample and at nominal thresholds the two agree.
    Raises ModelInapplicableError when the frozen pull-up overpowers the
    pull-down anywhere on the integration path.
    """
    w = cell.w_trip
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    p_n = np.clip(gate_polynomial(nm, cell.vwl, vt, np.asarray(vth_n, dtype=float)),
                  -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    t = cell.c_q * np.exp(-p_n) * w
    return float(t) if np.ndim(t) == 0 else t


def _write_edges(cell, cuts, v_star=None):
    """Panel edges on the write path [v_trip, vdd].

    _WRITE_PANELS equal panels between consecutive cuts (vddc, the kink of
    h_p, and for the ODE lanes v*), plus, given v*, edges halving their
    distance to it, where the integrand of a lane near r_crit peaks.
    """
    ends = [cell.v_trip, *sorted(cuts), cell.vdd]
    edges = np.concatenate([np.linspace(a, b, _WRITE_PANELS + 1)[:-1]
                            for a, b in zip(ends[:-1], ends[1:])] + [[cell.vdd]])
    if v_star is None:
        return edges
    width = (cell.vdd - cell.v_trip) / _WRITE_PANELS
    graded = v_star + np.outer(width * np.exp2(-np.arange(1, _WRITE_GRADING + 1)), [-1.0, 1.0])
    edges = np.unique(np.concatenate([edges, graded.ravel()]))
    return edges[(edges >= cell.v_trip) & (edges <= cell.vdd)]


def _drives(cell, v):
    """(h_n, h_p) on the write path: the access and pull-up currents at p = 0
    (vth = vgs makes each gate polynomial exactly 0)."""
    vt = thermal_voltage(cell.temperature_c)
    vds_p = np.maximum(cell.vddc - v, 0.0)
    return (_current_proposed(cell.nmos, cell.vwl, v, vt, cell.vwl),
            _current_proposed(cell.pmos, cell.vddc, vds_p, vt, cell.vddc))


def _trip_quad(cell, ratio, cuts):
    """W(ratio) by adaptive quadrature split at `cuts`, where fixed rules disagree.

    full_output keeps quad's roundoff warning near r_crit off stderr (and,
    unlike catch_warnings, is thread-safe); the cancellation in h_n - r*h_p
    limits the value there either way.
    """
    def integrand(v):
        h_n, h_p = _drives(cell, v)
        return 1.0 / (h_n - ratio * h_p)

    return quad(integrand, cell.v_trip, cell.vdd, points=cuts or None,
                epsabs=0.0, epsrel=_WRITE_REL_TOL, limit=200, full_output=1)[0]


def write_time_ode(cell, vth_n, vth_p, t_max):
    """First crossing of v_trip by the written node, full current model, exact.

    From v_q = vdd the node falls at (i_m2 - i_m4)/c_q. Each current is
    exp(p) times its value at p = 0 (h_n, h_p), so the crossing time
    separates: t = c_q*exp(-p_n) * W(r), W(r) the integral over [v_trip, vdd]
    of dv / (h_n(v) - r*h_p(v)) with r = exp(p_p - p_n). h_p has a kink at
    vddc, so the path is split there. Returns math.inf for censored samples:
    r >= r_crit = min h_n/h_p on the path (the pull-up holds the node above
    v_trip for ever, or wins outright at the start), or a crossing after
    t_max. Each lane compares 8- and 16-node composite rules; lanes close to
    r_crit, whose integrand peaks, fall back to adaptive quadrature.
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

    r_crit, v_star = _critical_ratio(cell)
    live = r < r_crit
    r_live = np.where(live, r, 0.0)  # dead lanes: a harmless integrand
    cuts = [v for v in (cell.vddc, v_star) if cell.v_trip < v < cell.vdd]
    edges = _write_edges(cell, cuts, v_star)
    sums = []
    for order in (8, 16):
        nodes, w = _composite_rule(edges, order)
        h_n, h_p = _drives(cell, nodes)
        acc = np.zeros(r.shape)
        for wk, nk, pk in zip(w, h_n, h_p):
            acc += wk / (nk - r_live * pk)
        sums.append(acc)
    coarse, total = sums
    for i in np.flatnonzero(live & ~(np.abs(total - coarse) <= _WRITE_REL_TOL * total)):
        total[i] = _trip_quad(cell, r[i], cuts)
    t = np.where(live, cell.c_q * np.exp(-p_n) * total, np.inf)
    t = np.where(t > t_max, np.inf, t).reshape(n_b.shape)
    return float(t) if t.ndim == 0 else t


def _critical_ratio(cell):
    """(r_crit, v*): the minimum of h_n/h_p on the write path and where it is.

    A grid minimum only bounds r_crit from above, so the grid argmin is
    refined by a bounded scalar minimisation over its neighbouring cells.
    """
    grid = np.linspace(cell.v_trip, min(cell.vdd, cell.vddc), 1025)
    with np.errstate(divide="ignore"):  # h_p = 0 at v = vddc
        ratio = np.divide(*_drives(cell, grid))
    i = int(np.argmin(ratio))
    best = minimize_scalar(lambda v: float(np.divide(*_drives(cell, v))), method="bounded",
                           bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
                           options={"xatol": 1e-15})
    if best.fun < ratio[i]:
        return best.fun, best.x
    return ratio[i], grid[i]


def default_write_t_max(cell, factor=100.0):
    """Censoring horizon: `factor` times the nominal closed-form write time."""
    return factor * float(write_time_closed(cell, cell.nmos.vth_nominal))
