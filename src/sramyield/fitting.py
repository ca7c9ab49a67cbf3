"""Least-squares extraction of drain-current model constants from I-V data.

The fit minimizes log-current residuals (subthreshold currents span decades,
and the error metric of record is relative) with a damped Gauss-Newton
iteration: damping grows tenfold on a rejected step and shrinks tenfold on an
accepted one. Box bounds are enforced by projecting each step.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .devices import EXP_ARG_LIMIT, DeviceParams, _current_proposed, thermal_voltage
from .errors import DomainError, ParseError

IV_CSV_HEADER = ("vgs", "vds", "ids", "temp_c")

# Box bounds enforced by projection, in (k1, k2, dibl, n) order.
_K1_BOUNDS = (1e-6, 2.0)
_K2_BOUNDS = (-0.2, 0.0)
_DIBL_BOUNDS = (-0.1, 0.2)
_N_BOUNDS = (1.0, 3.0)


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
    max_iterations: int = 500
    rel_residual_tol: float = 1e-9
    step_norm_tol: float = 1e-10
    fit_n: bool = False
    current_floor: float = 1e-15
    initial_damping: float = 1e-3
    jacobian_rel_step: float = 1e-6


@dataclass(frozen=True)
class FitReport:
    params: DeviceParams
    max_rel_error_sat: float
    avg_rel_error_sat: float
    iterations: int
    converged: bool
    residual_norm: float

    def to_dict(self):
        return {
            "schema": 1,
            "params": self.params.to_dict(),
            "max_rel_error_sat": self.max_rel_error_sat,
            "avg_rel_error_sat": self.avg_rel_error_sat,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_norm": self.residual_norm,
        }


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
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(IV_CSV_HEADER)
        for row in zip(dataset.vgs, dataset.vds, dataset.ids, dataset.temp_c):
            writer.writerow([repr(float(v)) for v in row])


def mismatch_field(vgs, vds, amplitude):
    """Smooth multiplicative warp standing in for a richer physical reference.

    Bounded by +-amplitude, slowly varying over the 0-0.7 V bias box.
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


def _pack(params, fit_n):
    theta = [np.log(params.i0), params.k1, params.k2, params.dibl]
    if fit_n:
        theta.append(params.n)
    return np.array(theta, dtype=float)


def _unpack(theta, template, fit_n):
    n = float(theta[4]) if fit_n else template.n
    return replace(
        template,
        i0=float(np.exp(theta[0])),
        k1=float(theta[1]),
        k2=float(theta[2]),
        dibl=float(theta[3]),
        n=n,
    )


def _project(theta, fit_n):
    out = theta.copy()
    out[1] = np.clip(out[1], *_K1_BOUNDS)
    out[2] = np.clip(out[2], *_K2_BOUNDS)
    out[3] = np.clip(out[3], *_DIBL_BOUNDS)
    if fit_n:
        out[4] = np.clip(out[4], *_N_BOUNDS)
    return out


def fit_device(data, init, options=None):
    """Fit (i0, k1, k2, dibl[, n]) to the dataset; vth_nominal stays at init.

    Returns a FitReport; running out of iterations yields converged=False
    rather than an exception.
    """
    options = options or FitOptions()
    keep = (data.ids >= options.current_floor) & (data.vds > 0.0)
    if not np.any(keep):
        raise DomainError(
            f"no points at or above the current floor {options.current_floor:g} A"
        )
    vgs, vds, temp = data.vgs[keep], data.vds[keep], data.temp_c[keep]
    log_meas = np.log(data.ids[keep])
    vt = np.array([thermal_voltage(t) for t in temp])
    vth = init.vth_nominal

    def log_model(theta):
        ln_i0, k1, k2, dibl = theta[:4]
        n = theta[4] if options.fit_n else init.n
        x = (vgs - vth) / (n * vt)
        p = np.clip(k1 * x + k2 * x * x, -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
        drain = -np.expm1(-k1 * vds / vt)
        return ln_i0 + p + dibl * vds / (n * vt) + np.log(drain)

    def residual(theta):
        return log_model(theta) - log_meas

    theta = _project(_pack(init, options.fit_n), options.fit_n)
    r = residual(theta)
    if not np.all(np.isfinite(r)):
        raise DomainError("non-finite residual at the initial parameters")
    ssq = float(r @ r)
    damping = options.initial_damping
    converged = False
    iterations = 0

    for iterations in range(1, options.max_iterations + 1):
        jac = np.empty((r.size, theta.size))
        for m in range(theta.size):
            h = options.jacobian_rel_step * max(1.0, abs(theta[m]))
            bumped = theta.copy()
            bumped[m] += h
            jac[:, m] = (residual(bumped) - r) / h
        jtj = jac.T @ jac
        rhs = -jac.T @ r
        scale = np.diag(np.diag(jtj))
        try:
            step = np.linalg.solve(jtj + damping * scale, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jtj + damping * scale, rhs, rcond=None)[0]
        proposal = _project(theta + step, options.fit_n)
        actual_step = proposal - theta
        if float(np.linalg.norm(actual_step)) < options.step_norm_tol:
            converged = True
            break
        r_new = residual(proposal)
        ssq_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
        if ssq_new < ssq:
            rel_drop = (ssq - ssq_new) / ssq if ssq > 0.0 else 0.0
            theta, r, ssq = proposal, r_new, ssq_new
            damping = max(damping / 10.0, 1e-14)
            if rel_drop < options.rel_residual_tol:
                converged = True
                break
        else:
            damping = min(damping * 10.0, 1e14)

    params = _unpack(theta, init, options.fit_n)
    max_err, avg_err = error_stats(data, params)
    return FitReport(
        params=params,
        max_rel_error_sat=max_err,
        avg_rel_error_sat=avg_err,
        iterations=iterations,
        converged=converged,
        residual_norm=float(np.sqrt(ssq)),
    )
