"""Gaussian-in-transform yield statistics.

The square root of the bitline differential and the square root of the log
write-time ratio are each modeled as plain Gaussians estimated from small
Monte Carlo sample sets. This module holds the estimators, the resulting
densities and failure probabilities (including the sense-amp offset
convolution), closed-form inversions for timing targets, and Q-Q
diagnostics. Both densities are single-branch forms: the mirrored branch of
the underlying chi-square is dropped, costing at most a Phi(-mu/sigma) mass
deficit, so constructors warn below a mu/sigma ratio of 4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .artifacts import parsing, read_json, write_csv, write_json
from .errors import DegenerateStatisticsError, DomainError, ParseError, require_finite
from .transients import _composite_rule, read_time_closed

SINGLE_BRANCH_RATIO = 4.0
FOUR_SIGMA_PF = 3.17e-5
DEFAULT_T0 = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BER_PANELS = 8  # equal panels in y = sqrt(v) over the offset window
_BER_REL_TOL = 1e-12  # 16- vs 32-node agreement; beyond it, adaptive quadrature
# offset quantiles mu + z*sigma at the ends of auto_read_grid's read-time grid
_GRID_Z_LO, _GRID_Z_HI = 1.6, 5.2


def _check_moments(mu, sigma, what):
    if not sigma > 0.0:
        raise DomainError(f"{what} sigma must be > 0, got {sigma}")
    if not mu > 0.0:
        raise DomainError(f"{what} mu must be > 0, got {mu}")
    if mu / sigma < SINGLE_BRANCH_RATIO:
        warnings.warn(
            f"{what} mu/sigma = {mu / sigma:.2f} < {SINGLE_BRANCH_RATIO:g}: "
            "single-branch density loses more than Phi(-4) of its mass",
            stacklevel=3,
        )


@dataclass(frozen=True)
class DeltaVDistribution:
    """Moments of sqrt(delta_v); delta_v in volts, moments in V**0.5."""

    mu_delta: float
    sigma_delta: float

    def __post_init__(self):
        require_finite(self, ("mu_delta", "sigma_delta"))
        _check_moments(self.mu_delta, self.sigma_delta, "DeltaVDistribution")

    def to_dict(self):
        return {
            "schema": 1,
            "kind": "access_delta",
            "mu_delta": self.mu_delta,
            "sigma_delta": self.sigma_delta,
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("delta distribution JSON"):
            return cls(mu_delta=float(obj["mu_delta"]), sigma_delta=float(obj["sigma_delta"]))


@dataclass(frozen=True)
class WriteTimeDistribution:
    """Moments of sqrt(ln(t/t0)); t0 is the reference time scale in seconds."""

    mu_w: float
    sigma_w: float
    t0: float = DEFAULT_T0

    def __post_init__(self):
        require_finite(self, ("mu_w", "sigma_w", "t0"))
        if not self.t0 > 0.0:
            raise DomainError(f"t0 must be > 0, got {self.t0}")
        _check_moments(self.mu_w, self.sigma_w, "WriteTimeDistribution")

    def to_dict(self):
        return {
            "schema": 1,
            "kind": "write_time",
            "mu_w": self.mu_w,
            "sigma_w": self.sigma_w,
            "t0": self.t0,
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("write distribution JSON"):
            return cls(
                mu_w=float(obj["mu_w"]),
                sigma_w=float(obj["sigma_w"]),
                t0=float(obj.get("t0", DEFAULT_T0)),
            )


@dataclass(frozen=True)
class OffsetVoltageDist:
    """Normal sense-amp offset voltage in volts."""

    mu_vos: float
    sigma_vos: float

    def __post_init__(self):
        require_finite(self, ("mu_vos", "sigma_vos"))
        if not self.sigma_vos > 0.0:
            raise DomainError(f"sigma_vos must be > 0, got {self.sigma_vos}")

    @cached_property
    def _ber_rules(self):
        """Nodes of access_fail_prob_ber, built once per offset: (y, c, k) with
        BER = sum_j c_j Phi((y_j - mu)/sigma) over the first k nodes (16-node
        rule) and over the rest (32-node rule).

        The offset window [mu_vos - 8 sigma, mu_vos + 8 sigma] is clipped at 0 V,
        below which no read fails, and mapped to y = sqrt(v): c_j folds the Gauss
        weight, the panel half-width, the offset density at y_j**2 and the
        Jacobian 2*y_j. None when the whole window lies at or below 0 V.
        """
        lo = self.mu_vos - 8.0 * self.sigma_vos
        hi = self.mu_vos + 8.0 * self.sigma_vos
        if not hi > 0.0:
            return None
        edges = np.linspace(math.sqrt(max(lo, 0.0)), math.sqrt(hi), _BER_PANELS + 1)
        (y16, c16), (y32, c32) = (_composite_rule(edges, order) for order in (16, 32))
        y, c = np.concatenate([y16, y32]), np.concatenate([c16, c32])
        density = np.exp(-((y * y - self.mu_vos) ** 2) / (2.0 * self.sigma_vos**2))
        return y, c * density * 2.0 * y / (self.sigma_vos * _SQRT_2PI), _BER_PANELS * 16

    def to_dict(self):
        return {
            "schema": 1,
            "kind": "offset",
            "mu_vos": self.mu_vos,
            "sigma_vos": self.sigma_vos,
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("offset JSON"):
            return cls(mu_vos=float(obj["mu_vos"]), sigma_vos=float(obj["sigma_vos"]))


# -- estimation -----------------------------------------------------------------

def _sqrt_moments(samples, what, floor, floor_advice, root):
    """Mean and sample deviation of root(samples), all of which must exceed floor.

    An inf sample is a censored lane, which carries no moment information.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 30:
        raise DegenerateStatisticsError(
            f"{what} estimation needs at least 30 samples, got {arr.size}"
        )
    censored = np.nonzero(arr == np.inf)[0]
    if censored.size:
        raise DegenerateStatisticsError(
            f"{what} sample {int(censored[0])} is inf (censored): no finite moments"
        )
    bad = np.nonzero(~(arr > floor))[0]
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{what} sample {i} = {float(arr[i])!r} is not above {floor_advice}"
        )
    r = root(arr)
    mu = float(np.mean(r))
    sigma = float(np.std(r, ddof=1))
    # relative floor: identical inputs leave only mean-subtraction rounding
    if not sigma > mu * 1e-12:
        raise DegenerateStatisticsError(f"{what} samples have zero variance")
    return mu, sigma


def estimate_delta_params(samples):
    """Sample moments of sqrt(delta_v). All samples must be positive volts."""
    mu, sigma = _sqrt_moments(samples, "delta_v", 0.0, "zero", np.sqrt)
    return DeltaVDistribution(mu_delta=mu, sigma_delta=sigma)


def estimate_write_params(samples, t0=DEFAULT_T0):
    """Sample moments of sqrt(ln(t/t0)). Samples at or below t0 are rejected."""
    if not t0 > 0.0:
        raise DomainError(f"t0 must be > 0, got {t0}")
    mu, sigma = _sqrt_moments(samples, "write-time", t0,
                              f"t0 = {t0!r}; choose a smaller reference t0",
                              lambda t: np.sqrt(np.log(t / t0)))
    return WriteTimeDistribution(mu_w=mu, sigma_w=sigma, t0=t0)


# -- densities and failure probabilities -----------------------------------------

def pdf_delta(dist, dv):
    """Single-branch density of delta_v; zero at and below zero volts."""
    scalar = np.ndim(dv) == 0
    dv = np.atleast_1d(np.asarray(dv, dtype=float))
    out = np.zeros(dv.shape)
    pos = dv > 0.0
    r = np.sqrt(dv[pos])
    out[pos] = np.exp(-((r - dist.mu_delta) ** 2) / (2.0 * dist.sigma_delta**2)) / (
        2.0 * dist.sigma_delta * _SQRT_2PI * r
    )
    return float(out[0]) if scalar else out


def pdf_write(dist, t):
    """Single-branch density of the write time; zero at and below t0."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape)
    pos = t > dist.t0
    ratio = t[pos] / dist.t0
    u = np.log(ratio)
    r = np.sqrt(u)
    out[pos] = np.exp(-((r - dist.mu_w) ** 2) / (2.0 * dist.sigma_w**2)) / (
        2.0 * dist.sigma_w * ratio * _SQRT_2PI * r
    ) / dist.t0
    return float(out[0]) if scalar else out


def access_fail_prob_fixed(dist, v_os):
    """P(delta_v < v_os) for a fixed offset; zero branch for v_os <= 0."""
    scalar = np.ndim(v_os) == 0
    v_os = np.atleast_1d(np.asarray(v_os, dtype=float))
    out = np.zeros(v_os.shape)
    pos = v_os > 0.0
    out[pos] = ndtr((np.sqrt(v_os[pos]) - dist.mu_delta) / dist.sigma_delta)
    return float(out[0]) if scalar else out


def _ber_quad(mu, sigma, offset):
    """BER of one (mu, sigma) pair by adaptive quadrature over v."""
    lo = offset.mu_vos - 8.0 * offset.sigma_vos
    hi = offset.mu_vos + 8.0 * offset.sigma_vos
    inv = 1.0 / (offset.sigma_vos * _SQRT_2PI)

    def integrand(v):
        w = inv * math.exp(-((v - offset.mu_vos) ** 2) / (2.0 * offset.sigma_vos**2))
        if v <= 0.0:
            return 0.0
        return w * float(ndtr((math.sqrt(v) - mu) / sigma))

    points = [0.0] if lo < 0.0 < hi else None
    result = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200,
                  points=points, full_output=1)
    if len(result) > 3:
        raise DomainError(
            f"offset quadrature did not converge: achieved abs error {result[1]:.3e} "
            f"({result[3].strip()})"
        )
    return float(result[0])


def access_fail_prob_ber(dist, offset):
    """Bit error rate: offset-weighted integral of the fixed-offset CDF.

    In y = sqrt(v) the integrand phi_V(y**2) * 2y * Phi((y - mu)/sigma) has
    no kink at 0 V, so the offset window [mu_vos - 8 sigma, mu_vos + 8 sigma],
    clipped at 0 V, takes composite Gauss-Legendre rules of 16 and 32 nodes on
    _BER_PANELS equal panels in y; their nodes depend only on the offset. The
    32-node sum is kept where the two agree within _BER_REL_TOL, otherwise the
    pair falls back to adaptive quadrature over v at 1e-10 relative tolerance.

    `dist` is one DeltaVDistribution (float out) or a sequence of them
    (array out). Each value is accumulated node by node, so it is the same
    bits whatever else the call holds.
    """
    scalar = isinstance(dist, DeltaVDistribution)
    dists = [dist] if scalar else list(dist)
    mu = np.array([d.mu_delta for d in dists], dtype=float)
    sigma = np.array([d.sigma_delta for d in dists], dtype=float)
    rules = offset._ber_rules
    if rules is None:
        total = np.zeros(mu.shape)
    else:
        y, c, k = rules
        terms = c * ndtr((y - mu[:, None]) / sigma[:, None])
        coarse, total = (np.add.accumulate(part, axis=1)[:, -1]
                         for part in (terms[:, :k], terms[:, k:]))
        bad = ~(np.abs(total - coarse) <= _BER_REL_TOL * total)
        for i in np.flatnonzero(bad):
            total[i] = _ber_quad(mu[i], sigma[i], offset)
    return float(total[0]) if scalar else total


def write_fail_prob(dist, t_write):
    """P(write time > t_write); everything at or below t0 fails outright."""
    if not t_write > 0.0:
        raise DomainError(f"t_write must be > 0, got {t_write}")
    if t_write <= dist.t0:
        return 1.0
    u = math.sqrt(math.log(t_write / dist.t0))
    return float(ndtr((dist.mu_w - u) / dist.sigma_w))


def delta_quantile(dist, q):
    """Quantile of delta_v; the transform floor clamps at zero volts."""
    q = np.asarray(q, dtype=float)
    root = np.maximum(dist.mu_delta + dist.sigma_delta * ndtri(q), 0.0)
    out = root**2
    return float(out) if out.ndim == 0 else out


def write_quantile(dist, q):
    """Quantile of the write time in seconds."""
    q = np.asarray(q, dtype=float)
    root = np.maximum(dist.mu_w + dist.sigma_w * ndtri(q), 0.0)
    out = dist.t0 * np.exp(root**2)
    return float(out) if out.ndim == 0 else out


def relative_error(pf_ref, pf_hat):
    """|pf_ref - pf_hat| / pf_ref with the reference strictly positive."""
    if not pf_ref > 0.0:
        raise DomainError(f"reference probability must be > 0, got {pf_ref}")
    return abs(pf_ref - pf_hat) / pf_ref


# -- characterization table -------------------------------------------------------

@dataclass(frozen=True)
class AccessCharacterization:
    """Read-time grid with per-point sqrt(delta_v) moments.

    Monotone-cubic interpolation between grid points; queries outside the
    grid raise rather than extrapolate.
    """

    t_read: tuple
    mu_delta: tuple
    sigma_delta: tuple

    def __post_init__(self):
        t = np.asarray(self.t_read, dtype=float)
        mu = np.asarray(self.mu_delta, dtype=float)
        sg = np.asarray(self.sigma_delta, dtype=float)
        if t.size < 1:
            raise DomainError("characterization needs at least 1 grid point")
        if t.size != mu.size or t.size != sg.size:
            raise DomainError("characterization columns must have equal length")
        if not np.isfinite([t, mu, sg]).all():
            raise DomainError("characterization values must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("t_read grid must be strictly increasing")
        if np.any(~(sg > 0.0)) or np.any(~(mu > 0.0)):
            raise DomainError("characterization moments must be positive")
        object.__setattr__(self, "t_read", tuple(float(v) for v in t))
        object.__setattr__(self, "mu_delta", tuple(float(v) for v in mu))
        object.__setattr__(self, "sigma_delta", tuple(float(v) for v in sg))
        table = np.column_stack([mu, sg])
        if t.size == 1:
            # Degenerate single-row table: the range check pins queries to the
            # one characterized time, so a constant "interpolant" is exact.
            object.__setattr__(self, "_interp", lambda _t, _row=table[0]: _row)
        else:
            object.__setattr__(self, "_interp", PchipInterpolator(t, table, extrapolate=False))

    def distribution_at(self, t):
        t, lo, hi = float(t), self.t_read[0], self.t_read[-1]
        if not lo <= t <= hi:
            raise DomainError(f"t_read {t!r} outside the characterized grid [{lo!r}, {hi!r}]")
        mu, sigma = self._interp(t)
        return DeltaVDistribution(mu_delta=float(mu), sigma_delta=float(sigma))

    def ber_at(self, t, offset):
        """BER at read time t, or an array of BERs at each time of a sequence."""
        if np.ndim(t) == 0:
            return access_fail_prob_ber(self.distribution_at(t), offset)
        return access_fail_prob_ber([self.distribution_at(v) for v in t], offset)

    def to_dict(self):
        return {
            "schema": 1,
            "kind": "access_characterization",
            "rows": [
                {"t_read": t, "mu_delta": m, "sigma_delta": s}
                for t, m, s in zip(self.t_read, self.mu_delta, self.sigma_delta)
            ],
        }

    @classmethod
    def from_dict(cls, obj):
        with parsing("characterization JSON"):
            rows = obj["rows"]
            return cls(
                t_read=tuple(float(r["t_read"]) for r in rows),
                mu_delta=tuple(float(r["mu_delta"]) for r in rows),
                sigma_delta=tuple(float(r["sigma_delta"]) for r in rows),
            )


def invert_for_constraint(dist, target_pf, offset=None):
    """Timing constraint whose forward failure probability equals target_pf.

    Write distributions invert in closed form. Access inversion requires the
    characterization table plus an offset distribution and solves the BER
    curve by bracketed root finding on the characterized grid.
    """
    if not 0.0 < target_pf < 1.0:
        raise DomainError(f"target_pf must be in (0, 1), got {target_pf}")
    if isinstance(dist, WriteTimeDistribution):
        root = dist.mu_w + dist.sigma_w * ndtri(1.0 - target_pf)
        if root < 0.0:
            ceiling = float(ndtr(dist.mu_w / dist.sigma_w))
            raise DomainError(
                f"target_pf {target_pf} exceeds the single-branch ceiling {ceiling!r}"
            )
        return dist.t0 * math.exp(root**2)
    if isinstance(dist, AccessCharacterization):
        if offset is None:
            raise DomainError("access inversion requires an offset distribution")
        lo, hi = dist.t_read[0], dist.t_read[-1]
        pf_lo, pf_hi = dist.ber_at((lo, hi), offset).tolist()
        # BER falls as the read window grows
        if not (min(pf_lo, pf_hi) <= target_pf <= max(pf_lo, pf_hi)):
            raise DomainError(
                f"target_pf {target_pf} outside the achievable range "
                f"[{min(pf_lo, pf_hi):.6e}, {max(pf_lo, pf_hi):.6e}] of the grid"
            )
        if lo == hi:
            return lo
        # xtol scales with the grid: read times span fs to ns across cells
        return float(brentq(lambda t: dist.ber_at(t, offset) - target_pf, lo, hi,
                            xtol=1e-12 * lo, rtol=1e-12))
    raise DomainError(f"cannot invert a {type(dist).__name__}")


def auto_read_grid(cell, offset, points=12):
    """Geometric t_read grid bracketing the useful BER range.

    Endpoints are the exact inverse of the nominal closed-form discharge
    (read_time_closed) at offset quantiles mu + z*sigma: the low end sits
    where the BER is still large (around 1e-2) and the high end beyond the
    4-sigma target, so constraint inversion stays inside the grid.
    """
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    dv_lo = offset.mu_vos + _GRID_Z_LO * offset.sigma_vos
    dv_hi = offset.mu_vos + _GRID_Z_HI * offset.sigma_vos
    if not 0.0 < dv_lo < dv_hi < cell.vdd:
        raise DomainError(
            f"offset quantile window [{dv_lo!r}, {dv_hi!r}] V does not fit below vdd"
        )
    ends = read_time_closed(cell, cell.nmos.vth_nominal, np.array([dv_lo, dv_hi]))
    for dv, t in zip((dv_lo, dv_hi), ends):
        if not 0.0 < t <= 1.0:  # also rejects NaN, inf and underflow to 0
            raise DomainError(f"cannot reach delta_v {dv!r} V on this cell")
    return np.geomspace(*ends, points)


# -- Q-Q diagnostics --------------------------------------------------------------

def qq_points(samples, dist, tail=None, tail_fraction=0.01):
    """Model quantiles at plotting positions vs empirical order statistics.

    Returns (points, correlation) where points is an (m, 2) array of
    (theoretical, empirical) pairs at positions (i - 0.5)/n and correlation
    is their Pearson coefficient.  With tail="low" or "high" only the
    extreme tail_fraction of the order statistics is kept; plotting
    positions stay relative to the full sample count so the pairing with
    model quantiles survives the restriction.
    """
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    n = arr.size
    if n < 100:
        raise DegenerateStatisticsError(f"qq_points needs at least 100 samples, got {n}")
    ranks = np.arange(1, n + 1)
    if tail is not None:
        if not 0.0 < tail_fraction <= 1.0:
            raise DomainError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
        m = max(int(round(n * tail_fraction)), 2)
        if tail == "low":
            keep = slice(0, m)
        elif tail == "high":
            keep = slice(n - m, n)
        else:
            raise DomainError(f"tail must be 'low', 'high' or None, got {tail!r}")
        arr = arr[keep]
        ranks = ranks[keep]
    p = (ranks - 0.5) / n
    if isinstance(dist, DeltaVDistribution):
        theo = delta_quantile(dist, p)
    elif isinstance(dist, WriteTimeDistribution):
        theo = write_quantile(dist, p)
    else:
        raise DomainError(f"qq_points does not support {type(dist).__name__}")
    if np.std(arr) == 0.0 or np.std(theo) == 0.0:
        raise DegenerateStatisticsError("constant samples: correlation undefined")
    corr = float(np.corrcoef(theo, arr)[0, 1])
    return np.column_stack([theo, arr]), corr


def write_qq_csv(points, corr, path):
    write_csv(path, f"# pearson_r: {corr!r}\ntheoretical,empirical",
              (f"{float(theo)!r},{float(emp)!r}\n" for theo, emp in points))


# -- JSON round trip ---------------------------------------------------------------

_KINDS = {
    "access_delta": DeltaVDistribution,
    "write_time": WriteTimeDistribution,
    "offset": OffsetVoltageDist,
    "access_characterization": AccessCharacterization,
}


def write_distribution_json(obj, path):
    write_json(path, obj.to_dict())


def read_distribution_json(path):
    obj = read_json(path, "distribution JSON")
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown distribution kind {kind!r} in {path}")
    return _KINDS[kind].from_dict(obj)
