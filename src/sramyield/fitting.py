"""Least-squares extraction of drain-current model constants from I-V data.

The fit minimizes log-current residuals (subthreshold currents span decades,
and the error metric of record is relative) with bounded least squares: the
trust-region reflective method of Branch, Coleman and Li (SIAM J. Sci. Comput.
21(1), 1999), which also finds a best fit that lies on a bound of the box.
`_least_squares` is a port of exactly the path scipy.optimize.least_squares
runs for this fit, with the same bits, so `fit` never imports scipy.optimize.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import norm

from .artifacts import Record
from .devices import EXP_ARG_LIMIT, DeviceParams, _current_proposed, thermal_voltage
from .errors import DomainError, FitConvergenceError, ParseError

IV_CSV_HEADER = ("vgs", "vds", "ids", "temp_c")

# Box bounds of the fitted vector (ln i0, k1, k2, dibl[, n]), as (lower, upper).
_BOUNDS = np.array([(-np.inf, np.inf), (1e-6, 2.0), (-0.2, 0.0), (-0.1, 0.2), (1.0, 3.0)]).T
_CURRENT_FLOOR = 1e-15


@dataclass
class IVDataset:
    """Measured or synthesized I-V points, one temperature per point."""

    vgs: np.ndarray
    vds: np.ndarray
    ids: np.ndarray
    temp_c: np.ndarray
    description: str = ""

    def __post_init__(self):
        self.vgs = np.asarray(self.vgs, dtype=float)
        self.vds = np.asarray(self.vds, dtype=float)
        self.ids = np.asarray(self.ids, dtype=float)
        self.temp_c = np.asarray(self.temp_c, dtype=float)
        sizes = {a.size for a in (self.vgs, self.vds, self.ids, self.temp_c)}
        if len(sizes) != 1:
            raise DomainError(f"column lengths differ: {sorted(sizes)}")
        if self.vgs.size == 0:
            raise ParseError("dataset has no points")
        if np.any(self.ids < 0.0):
            raise DomainError("negative drain current in dataset")
        for name, col in (("vgs", self.vgs), ("vds", self.vds)):
            if np.any((col < 0.0) | (col > 1.0)):
                raise DomainError(f"{name} outside [0, 1] V in dataset")
        if not self._has_sweep(self.vds, self.vgs):
            raise DomainError("dataset needs a vgs sweep: >= 20 vgs points at one fixed vds")
        if not self._has_sweep(self.vgs, self.vds):
            raise DomainError("dataset needs a vds sweep: >= 20 vds points at one fixed vgs")

    @staticmethod
    def _has_sweep(fixed, swept, min_points=20):
        for value in np.unique(fixed):
            if np.unique(swept[fixed == value]).size >= min_points:
                return True
        return False

    def __len__(self):
        return self.vgs.size


@dataclass(frozen=True)
class FitOptions:
    """`max_iterations` is the budget of residual evaluations of the
    least-squares solver (scipy's `max_nfev`: the evaluations of its
    finite-difference Jacobians are not counted), not of solver steps."""

    max_iterations: int = 500
    fit_n: bool = False


@dataclass(frozen=True)
class FitReport(Record):
    params: DeviceParams
    max_rel_error_sat: float
    avg_rel_error_sat: float
    iterations: int
    converged: bool
    residual_norm: float

    _JSON = {"schema": 1}
    _WHAT = "fit report JSON"


def read_iv_csv(path):
    """Read an IVDataset from CSV with header vgs,vds,ids,temp_c.

    Lines starting with '#' are ignored but counted, so errors name the file
    line. A NaN or inf cell is a domain error, as NaN is in the JSON inputs.
    """
    rows = []
    lineno = 0

    def data_lines(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                yield line

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(data_lines(fh))
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            if tuple(h.strip() for h in header) != IV_CSV_HEADER:
                raise ParseError(
                    f"{path}: expected header {','.join(IV_CSV_HEADER)}, got {','.join(header)}"
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != 4:
                    raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
                try:
                    values = [float(cell) for cell in row]
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise DomainError(f"{path}:{lineno}: non-finite value in {','.join(row)}")
                rows.append(values)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    cols = np.array(rows, dtype=float).T
    return IVDataset(cols[0], cols[1], cols[2], cols[3], description=str(path))


def write_iv_csv(dataset, path, comment=None):
    """The I-V CSV that read_iv_csv reads. No CLI command calls it; it stays to
    write grids such as the bundled warped `nch_svt_iv.csv`."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(IV_CSV_HEADER)
        for row in zip(dataset.vgs, dataset.vds, dataset.ids, dataset.temp_c):
            writer.writerow([repr(float(v)) for v in row])


def mismatch_field(vgs, vds, amplitude):
    """Smooth multiplicative warp standing in for a richer physical reference.

    Bounded by +-amplitude, slowly varying over the 0-0.7 V bias box. No CLI
    command calls it; it stays because it made the bundled warped I-V grid
    (`nch_svt_iv.csv`) that C08 fits, and regenerates it.
    """
    phase_g = 2.0 * np.pi * np.asarray(vgs) / 0.7
    phase_d = np.pi * np.asarray(vds) / 0.7
    return 1.0 + amplitude * np.sin(1.1 * phase_g + 0.4) * np.cos(1.3 * phase_d - 0.2)


def generate_iv_grid(
    params,
    vgs_values,
    vds_values,
    temperature_c=25.0,
    noise_sigma=0.0,
    mismatch_amplitude=0.0,
    seed=0,
    description="synthetic grid",
):
    """Synthesize a full-grid IVDataset from the model.

    `noise_sigma` applies multiplicative log-normal noise; `mismatch_amplitude`
    applies the deterministic smooth warp from mismatch_field.
    """
    vg, vd = [a.ravel() for a in np.meshgrid(vgs_values, vds_values, indexing="ij")]
    vt = thermal_voltage(temperature_c)
    ids = _current_proposed(params, vg, vd, vt)
    if mismatch_amplitude:
        ids = ids * mismatch_field(vg, vd, mismatch_amplitude)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        ids = ids * np.exp(noise_sigma * rng.standard_normal(ids.size))
    return IVDataset(vg, vd, ids, np.full(vg.size, temperature_c), description=description)


def default_init(data, vth_nominal, polarity="nmos", n=1.5):
    """Starting parameters centered inside the bundled-table value cloud."""
    top = data.vds == np.max(data.vds)
    i0 = float(np.median(data.ids[top]))
    if i0 <= 0.0:
        i0 = max(float(np.max(data.ids)), 1e-9)
    return DeviceParams(
        i0=i0, k1=0.3, k2=-0.01, dibl=0.02, vth_nominal=vth_nominal, n=n, polarity=polarity
    )


def saturation_mask(data, params):
    """Boolean mask of points with vds above the pinch-off estimate.

    The threshold is max(vgs - vth_nominal, 3*vt), so subthreshold points
    saturate a few thermal voltages above ground.
    """
    vt = np.array([thermal_voltage(t) for t in np.atleast_1d(data.temp_c)])
    vdsat = np.maximum(data.vgs - params.vth_nominal, 3.0 * vt)
    mask = data.vds > vdsat
    if not np.any(mask):
        raise DomainError(
            "saturation mask is empty; extend the vds sweep beyond "
            f"{float(np.min(vdsat)):.3f} V"
        )
    return mask


def error_stats(data, params):
    """(max, mean) relative current error over the saturation region."""
    mask = saturation_mask(data, params)
    vgs, vds, meas = data.vgs[mask], data.vds[mask], data.ids[mask]
    temp = data.temp_c[mask]
    nonzero = meas > 0.0
    dropped = int(np.sum(~nonzero))
    if dropped:
        warnings.warn(f"{dropped} zero-current points excluded from error stats")
    if not np.any(nonzero):
        raise DomainError("no nonzero-current points inside the saturation mask")
    vgs, vds, meas, temp = vgs[nonzero], vds[nonzero], meas[nonzero], temp[nonzero]
    model = np.empty_like(meas)
    for t in np.unique(temp):
        sel = temp == t
        model[sel] = _current_proposed(params, vgs[sel], vds[sel], thermal_voltage(t))
    rel = np.abs(model - meas) / meas
    return float(np.max(rel)), float(np.mean(rel))


def model_currents(params, data):
    """Full-model currents at every bias point of the dataset."""
    out = np.empty(data.vgs.shape)
    for t in np.unique(data.temp_c):
        sel = data.temp_c == t
        out[sel] = _current_proposed(params, data.vgs[sel], data.vds[sel], thermal_voltage(t))
    return out


def fit_device(data, init, options=None):
    """Fit (i0, k1, k2, dibl[, n]) to the dataset; vth_nominal stays at init.

    Returns a FitReport. `options.max_iterations` caps the residual
    evaluations, which `iterations` counts, and running out of them yields
    converged=False rather than an exception, unless the last iterate is not
    a valid DeviceParams: that raises FitConvergenceError.
    """
    options = options or FitOptions()
    if options.max_iterations < 1:
        raise DomainError(f"max_iterations must be >= 1, got {options.max_iterations}")
    keep = (data.ids >= _CURRENT_FLOOR) & (data.vds > 0.0)
    if not np.any(keep):
        raise DomainError(f"no points at or above the current floor {_CURRENT_FLOOR:g} A")
    vgs, vds, temp = data.vgs[keep], data.vds[keep], data.temp_c[keep]
    log_meas = np.log(data.ids[keep])
    vt = np.array([thermal_voltage(t) for t in temp])
    vth = init.vth_nominal

    def residual(theta):
        ln_i0, k1, k2, dibl = theta[:4]
        n = theta[4] if options.fit_n else init.n
        x = (vgs - vth) / (n * vt)
        p = np.clip(k1 * x + k2 * x * x, -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
        drain = -np.expm1(-k1 * vds / vt)
        return ln_i0 + p + dibl * vds / (n * vt) + np.log(drain) - log_meas

    size = 5 if options.fit_n else 4
    lo, hi = _BOUNDS[:, :size]
    theta0 = np.clip([np.log(init.i0), init.k1, init.k2, init.dibl, init.n][:size], lo, hi)
    if not np.all(np.isfinite(residual(theta0))):
        raise DomainError("non-finite residual at the initial parameters")
    theta, fun, nfev, status = _least_squares(residual, theta0, lo, hi, options.max_iterations)
    try:
        params = replace(
            init,
            i0=float(np.exp(theta[0])),
            k1=float(theta[1]),
            k2=float(theta[2]),
            dibl=float(theta[3]),
            n=float(theta[4]) if options.fit_n else init.n,
        )
    except DomainError as exc:
        if status > 0:
            raise
        # the bounds box admits constants DeviceParams rejects; a fit stopped
        # by its budget there has not converged, whatever its iterate is
        raise FitConvergenceError(f"fit did not converge in {nfev} residual evaluations, and "
                                  f"its last iterate is not a valid device: {exc}") from None
    max_err, avg_err = error_stats(data, params)
    return FitReport(
        params=params,
        max_rel_error_sat=max_err,
        avg_rel_error_sat=avg_err,
        iterations=nfev,
        converged=status > 0,
        residual_norm=float(norm(fun)),
    )


# The least-squares solver below ports, branch for branch, what
# scipy.optimize.least_squares(fun, x0, bounds=(lb, ub), max_nfev=max_nfev)
# runs in scipy 1.17.1: method "trf" with the exact (SVD) trust-region solver,
# x_scale 1 (its scalings are exact no-ops and are left out), linear loss,
# ftol = xtol = gtol = 1e-8 and a 2-point Jacobian. Array layouts are part of
# the port: the bits of a matrix-vector product depend on them.

_EPS = np.finfo(float).eps
_TOL = 1e-8  # ftol, xtol and gtol


def _least_squares(fun, x0, lb, ub, max_nfev):
    """(x, fun(x), nfev, status) of the bounded fit; status 0 means max_nfev
    ran out, 1 the gradient, 2 the cost, 3 the step and 4 both tolerances."""
    x = _strictly_feasible(np.array(x0, dtype=float), lb, ub, 1e-10)
    f = fun(x)
    nfev = 1
    J = _jacobian(fun, x, f, lb, ub)
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        # numpy's SVD has the values of scipy.linalg.svd, in C-ordered factors where
        # scipy's are Fortran-ordered, and the products below follow the layout
        U, s, V = np.linalg.svd(J_augmented, full_matrices=False)
        V = np.asfortranarray(V).T
        uf = np.asfortranarray(U).T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # step back from the bounds

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, 0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0
            ftol_met = actual_reduction < _TOL * cost and ratio > 0.25
            xtol_met = norm(step) < _TOL * (_TOL + norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    return x, f, nfev, 0 if status is None else status


def _strictly_feasible(x, lb, ub, rstep):
    """x moved off any bound it lies within rstep (relative) of: by rstep, or
    by one ulp when rstep is 0. The box here is never narrow enough for the
    move to cross the opposite bound."""
    x_new = x.copy()
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
        return x_new
    lower_dist, upper_dist = x - lb, ub - x
    lower_threshold = rstep * np.maximum(1, np.abs(lb))
    upper_threshold = rstep * np.maximum(1, np.abs(ub))
    lower = np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, lower_threshold))
    upper = np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, upper_threshold))
    x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
    x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    return x_new


def _jacobian(fun, x, f, lb, ub):
    """Forward-difference Jacobian at x, whose residuals are f, turning a step
    backward where it would leave the box (scipy's approx_derivative; it
    shortens a step only in a box too narrow for it either way, which this
    box is not). Built row by row as the transpose of a C-ordered (n, m) array."""
    sign_x = (x >= 0).astype(float) * 2 - 1
    h = _EPS**0.5 * sign_x * np.maximum(1.0, np.abs(x))
    x_h = x + h
    h[(x_h < lb) | (x_h > ub)] *= -1
    J_transposed = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        J_transposed[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return J_transposed.T


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling: the distance to the bound the gradient points to."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _trust_region_step(n, m, uf, s, V, Delta, alpha):
    """(p, alpha): the least-squares step within radius Delta from the SVD
    (uf = U.T f, s, V) by Moré's iteration on the Levenberg-Marquardt
    parameter alpha, at most 10 iterations, relative tolerance 0.01."""

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)  # keeps p on the trust-region boundary
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """(step, step in scaled variables, predicted reduction): the best of the
    trust-region step (cut back to stay strictly inside the box), its
    reflection off the first bound it hits, and the scaled anti-gradient."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # the reflected direction leaves the box or the trust region first
    a, b = np.dot(r_h, r_h), np.dot(p_h, r_h)
    c = np.dot(p_h, p_h) - Delta**2
    q = -(b + math.copysign(np.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta
    p_h *= theta
    p_value = _quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _step_to_bound(x, s, lb, ub):
    """(t, hits): the largest t with x + t*s in the box, and the sign of s at
    the components whose bound stops it."""
    non_zero = np.nonzero(s)
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s[non_zero],
                                     (ub - x)[non_zero] / s[non_zero])
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _quadratic(J, g, s, diag):
    """The model 0.5 s.(J.T J + diag) s + g.s at step s."""
    Js = J.dot(s)
    return 0.5 * (np.dot(Js, Js) + np.dot(s * diag, s)) + np.dot(s, g)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the model along s0 + t*s as a*t**2 + b*t (+ c)."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """(t, value) at the minimum of a*t**2 + b*t + c over [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]
