"""Per-sample transient outcomes for a 6T cell.

Two quantities drive the timing-yield statistics: the bitline differential
reached by the read deadline, and the minimum time for a write to pull the
storage node below the opposing inverter's trip point. Each comes in two
flavors: a closed form derived from the exponential current model, and a
fixed-step RK4 integration of the full model that serves as the brute-force
reference. Fixed stepping keeps results bit-identical across platforms and
thread counts.

All vth arguments are per-sample threshold voltages; vectorized inputs are
evaluated lane-by-lane with no cross-lane coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
DELTA_V_ODE_STEPS = 4096
WRITE_ODE_STEPS = 8192
_SIMPSON_REL_TOL = 1e-10


def _adaptive_simpson(f, a, b, rel_tol):
    """Adaptive Simpson quadrature with Richardson acceptance test."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = rel_tol * max(abs(whole), 1e-300)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= 48 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, 0)


@dataclass(frozen=True)
class CellConfig:
    """Voltages, capacitances, and device constants of one 6T cell.

    `vwl` and `vddc` are the effective wordline and cell-supply voltages
    after any assist; `apply_assist` produces modified copies. The closed
    write-model quantities (contention prefactor and trip integral) are
    computed once here, so all evaluation calls are read-only.
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
        self._build_write_cache()

    # -- closed write model cache -------------------------------------------
    def _build_write_cache(self):
        vt = thermal_voltage(self.temperature_c)
        nm, pm = self.nmos, self.pmos
        p_n0 = gate_polynomial(nm, self.vwl, vt)
        p_p0 = gate_polynomial(pm, self.vddc, vt)
        beta0 = math.exp(min(max(p_p0 - p_n0, -EXP_ARG_LIMIT), EXP_ARG_LIMIT))
        object.__setattr__(self, "beta0", beta0)

        error = None
        w_trip = None
        if self.v_trip >= self.vdd:
            error = f"v_trip {self.v_trip} is not below the write start voltage vdd {self.vdd}"
        else:

            def net_scale(v):
                pull_down = nm.i0 * math.exp(nm.dibl * v / (nm.n * vt))
                pull_up = beta0 * pm.i0 * math.exp(pm.dibl * (self.vddc - v) / (pm.n * vt))
                return pull_down - pull_up

            grid = np.linspace(self.v_trip, self.vdd, 1025)
            values = np.array([net_scale(v) for v in grid])
            if not np.min(values) > 0.0:  # NaN too: Simpson never converges on it
                worst = grid[int(np.argmin(values))]
                error = (
                    "pull-up overpowers pull-down in the closed write model "
                    f"near v_q = {worst:.4f} V; closed write times are undefined"
                )
            else:
                w_trip = _adaptive_simpson(
                    lambda v: 1.0 / net_scale(v), self.v_trip, self.vdd, _SIMPSON_REL_TOL
                )
        object.__setattr__(self, "_w_trip", w_trip)
        object.__setattr__(self, "_write_error", error)

    @property
    def w_trip(self):
        """Cached trip integral of the closed write model (s*A/F units)."""
        if self._write_error is not None:
            raise ModelInapplicableError(self._write_error)
        return self._w_trip

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

    def to_dict(self):
        return {
            "schema": 1,
            "wl_underdrive": self.wl_underdrive,
            "wl_boost": self.wl_boost,
            "cell_vdd_delta": self.cell_vdd_delta,
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("assist JSON"):
            return cls(
                wl_underdrive=float(obj.get("wl_underdrive", 0.0)),
                wl_boost=float(obj.get("wl_boost", 0.0)),
                cell_vdd_delta=float(obj.get("cell_vdd_delta", 0.0)),
            )


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


def delta_v_ode(cell, vth_n, t_read, n_steps=DELTA_V_ODE_STEPS):
    """Bitline differential by RK4 on the full current model.

    Keeps the drain factor the closed form drops; fixed step t_read/n_steps.
    Fully discharged bitlines return vdd.
    """
    vth_n = np.asarray(vth_n, dtype=float)
    t = np.asarray(t_read, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t_read must be >= 0")
    vth_b, t_b = np.broadcast_arrays(vth_n, t)
    shape = vth_b.shape
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    dt = t_b / n_steps

    def slope(dv):
        vds = np.clip(cell.vdd - dv, 0.0, None)
        return _current_proposed(nm, cell.vwl, vds, vt, vth_b) / cell.c_blb

    dv = np.zeros(shape)
    for _ in range(n_steps):
        k1 = slope(dv)
        k2 = slope(dv + 0.5 * dt * k1)
        k3 = slope(dv + 0.5 * dt * k2)
        k4 = slope(dv + dt * k3)
        dv = dv + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        dv = np.minimum(dv, cell.vdd)
    return float(dv) if dv.ndim == 0 else dv


# -- write transition ----------------------------------------------------------

def write_time_closed(cell, vth_n):
    """Minimum write time, closed form: c_q * exp(-p_n) * w(v_trip).

    The trip integral w and the contention ratio beta0 are frozen at nominal
    thresholds, so only the access-transistor polynomial varies per sample.
    Raises ModelInapplicableError when the frozen pull-up overpowers the
    pull-down anywhere on the integration path.
    """
    w = cell.w_trip
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    p_n = np.clip(
        gate_polynomial(nm, cell.vwl, vt, np.asarray(vth_n, dtype=float)),
        -EXP_ARG_LIMIT,
        EXP_ARG_LIMIT,
    )
    t = cell.c_q * np.exp(-p_n) * w
    return float(t) if np.ndim(t) == 0 else t


def write_time_ode(cell, vth_n, vth_p, t_max, n_steps=WRITE_ODE_STEPS):
    """First crossing of v_trip by the written node, RK4 plus interpolation.

    Integrates the fight between the access pull-down (sampled vth_n) and the
    cell pull-up (sampled vth_p) from v_q = vdd. Returns math.inf for
    censored samples: no crossing by t_max, or a pull-up that wins outright
    at the start.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    vth_n = np.asarray(vth_n, dtype=float)
    vth_p = np.asarray(vth_p, dtype=float)
    n_b, p_b = np.broadcast_arrays(vth_n, vth_p)
    shape = n_b.shape
    nm, pm = cell.nmos, cell.pmos
    vt = thermal_voltage(cell.temperature_c)
    dt = t_max / n_steps

    def slope(vq):
        i_m2 = _current_proposed(nm, cell.vwl, np.clip(vq, 0.0, None), vt, n_b)
        i_m4 = _current_proposed(pm, cell.vddc, np.clip(cell.vddc - vq, 0.0, None), vt, p_b)
        return (i_m4 - i_m2) / cell.c_q

    vq = np.full(shape, float(cell.vdd))
    t_cross = np.full(shape, np.inf)
    crossed = slope(vq) >= 0.0  # pull-up wins outright: censored immediately
    for k in range(n_steps):
        if np.all(crossed):
            break
        k1 = slope(vq)
        k2 = slope(vq + 0.5 * dt * k1)
        k3 = slope(vq + 0.5 * dt * k2)
        k4 = slope(vq + dt * k3)
        vq_next = vq + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        hit = ~crossed & (vq > cell.v_trip) & (vq_next <= cell.v_trip)
        if np.any(hit):
            drop = np.where(hit, vq - vq_next, 1.0)  # hit rows always have drop > 0
            frac = (vq - cell.v_trip) / drop
            t_cross = np.where(hit, (k + frac) * dt, t_cross)
            crossed = crossed | hit
        vq = vq_next
    if np.ndim(t_cross) == 0:
        return float(t_cross)
    return t_cross


def default_write_t_max(cell, factor=100.0):
    """Censoring horizon: `factor` times the nominal closed-form write time."""
    return factor * float(write_time_closed(cell, cell.nmos.vth_nominal))
