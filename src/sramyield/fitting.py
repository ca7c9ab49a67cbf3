"""Least-squares extraction of drain-current model constants from I-V data.

The fit minimizes log-current residuals (subthreshold currents span decades,
and the error metric of record is relative) with scipy's bounded least squares
(`least_squares`, trust-region reflective), which also finds a best fit that
lies on a bound of the box.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import Record
from .devices import EXP_ARG_LIMIT, DeviceParams, _current_proposed, thermal_voltage
from .errors import DomainError, ParseError

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
    """`max_iterations` is the budget of residual evaluations (scipy's
    `max_nfev`; Jacobian evaluations are not counted), not of solver steps."""

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
    converged=False rather than an exception.
    """
    from scipy.optimize import least_squares  # fit only: keeps scipy.optimize off start-up

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
    sol = least_squares(residual, theta0, bounds=(lo, hi), max_nfev=options.max_iterations)
    theta = sol.x
    params = replace(
        init,
        i0=float(np.exp(theta[0])),
        k1=float(theta[1]),
        k2=float(theta[2]),
        dibl=float(theta[3]),
        n=float(theta[4]) if options.fit_n else init.n,
    )
    max_err, avg_err = error_stats(data, params)
    return FitReport(
        params=params,
        max_rel_error_sat=max_err,
        avg_rel_error_sat=avg_err,
        iterations=int(sol.nfev),
        converged=bool(sol.status > 0),
        residual_norm=float(np.linalg.norm(sol.fun)),
    )
