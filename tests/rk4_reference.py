"""Fixed-step RK4 reference for the exact transient oracles.

These are the brute-force integrations of the full current model that the
package once used as its `ode` oracle. They stay here as an independent
reference: the tests check that the separable exact forms in
`sramyield.transients` land on the same trajectories, and that the RK4
results converge under step halving.
"""

import math

import numpy as np

from sramyield.devices import _current_proposed, thermal_voltage
from sramyield.errors import DomainError

DELTA_V_STEPS = 4096
WRITE_STEPS = 8192


def delta_v_rk4(cell, vth_n, t_read, n_steps=DELTA_V_STEPS):
    """Bitline differential by RK4, fixed step t_read/n_steps, clamped at vdd."""
    vth_b, t_b = np.broadcast_arrays(np.asarray(vth_n, dtype=float),
                                     np.asarray(t_read, dtype=float))
    nm = cell.nmos
    vt = thermal_voltage(cell.temperature_c)
    dt = t_b / n_steps

    def slope(dv):
        vds = np.clip(cell.vdd - dv, 0.0, None)
        return _current_proposed(nm, cell.vwl, vds, vt, vth_b) / cell.c_blb

    dv = np.zeros(vth_b.shape)
    for _ in range(n_steps):
        k1 = slope(dv)
        k2 = slope(dv + 0.5 * dt * k1)
        k3 = slope(dv + 0.5 * dt * k2)
        k4 = slope(dv + dt * k3)
        dv = dv + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        dv = np.minimum(dv, cell.vdd)
    return float(dv) if dv.ndim == 0 else dv


def write_time_rk4(cell, vth_n, vth_p, t_max, n_steps=WRITE_STEPS):
    """First crossing of v_trip by RK4 plus linear interpolation; inf if censored."""
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    n_b, p_b = np.broadcast_arrays(np.asarray(vth_n, dtype=float),
                                   np.asarray(vth_p, dtype=float))
    nm, pm = cell.nmos, cell.pmos
    vt = thermal_voltage(cell.temperature_c)
    dt = t_max / n_steps

    def slope(vq):
        i_m2 = _current_proposed(nm, cell.vwl, np.clip(vq, 0.0, None), vt, n_b)
        i_m4 = _current_proposed(pm, cell.vddc, np.clip(cell.vddc - vq, 0.0, None), vt, p_b)
        return (i_m4 - i_m2) / cell.c_q

    vq = np.full(n_b.shape, float(cell.vdd))
    t_cross = np.full(n_b.shape, np.inf)
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
    return float(t_cross) if np.ndim(t_cross) == 0 else t_cross
