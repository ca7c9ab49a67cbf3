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
from scipy.special import ndtr, ndtri

from .artifacts import Record, csv_text, json_value, parsing, read_json, write_csv
from .errors import DegenerateStatisticsError, DomainError, ParseError, require_finite
from .transients import CellConfig, _composite_rule, read_time_closed

SINGLE_BRANCH_RATIO = 4.0
FOUR_SIGMA_PF = 3.17e-5
DEFAULT_T0 = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BER_PANELS = 8  # equal panels in y = sqrt(v) over the offset window
_BER_REL_TOL = 1e-12  # 16- vs 32-node agreement; beyond it, adaptive quadrature
# offset quantiles mu + z*sigma at the ends of auto_read_grid's read-time grid
_GRID_Z_LO, _GRID_Z_HI = 1.6, 5.2
_BRENT_MAX_ITER = 100  # scipy's brentq default
# (distribution, node) terms per BER call of a batched inversion; 2**16 held
# about 0.6 MB more at once and ran no faster on a 2-core host
_BER_TERMS = 1 << 14


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
class DeltaVDistribution(Record):
    """Moments of sqrt(delta_v); delta_v in volts, moments in V**0.5."""

    mu_delta: float
    sigma_delta: float

    _JSON = {"schema": 1, "kind": "access_delta"}
    _WHAT = "delta distribution JSON"

    def __post_init__(self):
        require_finite(self, ("mu_delta", "sigma_delta"))
        _check_moments(self.mu_delta, self.sigma_delta, "DeltaVDistribution")


@dataclass(frozen=True)
class WriteTimeDistribution(Record):
    """Moments of sqrt(ln(t/t0)); t0 is the reference time scale in seconds."""

    mu_w: float
    sigma_w: float
    t0: float = DEFAULT_T0

    _JSON = {"schema": 1, "kind": "write_time"}
    _WHAT = "write distribution JSON"

    def __post_init__(self):
        require_finite(self, ("mu_w", "sigma_w", "t0"))
        if not self.t0 > 0.0:
            raise DomainError(f"t0 must be > 0, got {self.t0}")
        _check_moments(self.mu_w, self.sigma_w, "WriteTimeDistribution")


@dataclass(frozen=True)
class OffsetVoltageDist(Record):
    """Normal sense-amp offset voltage in volts."""

    mu_vos: float
    sigma_vos: float

    _JSON = {"schema": 1, "kind": "offset"}
    _WHAT = "offset JSON"

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


# -- estimation -----------------------------------------------------------------

def _estimate(cls, samples, what, floor, floor_advice, root, root_name, **fields):
    """`cls` of the mean and sample deviation of root(samples), every sample
    above floor and every root finite; a 2-D array gives a list, one per row.

    Rows go in order: those before the first failing row are built (and warn
    as they would alone), then that row's error is raised. An inf sample is a
    censored lane, which carries no moment information; a finite sample whose
    root(sample), named `root_name`, overflows is a domain error.
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim != 2:
        rows = rows.reshape(1, -1)
    if rows.shape[1] < 30:
        raise DegenerateStatisticsError(
            f"{what} estimation needs at least 30 samples, got {rows.shape[1]}"
        )
    invalid = ~((rows > floor) & (rows < np.inf)).all(axis=1)
    stop = int(np.argmax(invalid)) if invalid.any() else len(rows)
    with np.errstate(over="ignore"):
        r = root(rows[:stop])
    finite = np.isfinite(r)
    overflow = None
    if not finite.all():
        stop = int(np.argmax(~finite.all(axis=1)))
        overflow = int(np.argmax(~finite[stop]))
        r = r[:stop]
    mu, sigma = np.mean(r, axis=1), np.std(r, axis=1, ddof=1)
    # relative floor: identical inputs leave only mean-subtraction rounding
    flat = ~(sigma > mu * 1e-12)
    error = None
    if flat.any():
        stop = int(np.argmax(flat))
        error = DegenerateStatisticsError(f"{what} samples have zero variance")
    elif overflow is not None:
        error = DomainError(f"{what} sample {overflow} = {float(rows[stop, overflow])!r} "
                            f"overflows {root_name}")
    elif stop < len(rows):
        row = rows[stop]
        censored = np.flatnonzero(row == np.inf)
        if censored.size:
            error = DegenerateStatisticsError(
                f"{what} sample {int(censored[0])} is inf (censored): no finite moments")
        else:
            i = int(np.flatnonzero(~(row > floor))[0])
            error = DomainError(f"{what} sample {i} = {float(row[i])!r} is not above {floor_advice}")
    dists = [cls(m, s, **fields) for m, s in zip(mu[:stop].tolist(), sigma[:stop].tolist())]
    if error is not None:
        raise error
    return dists if np.ndim(samples) == 2 else dists[0]


def estimate_delta_params(samples):
    """Sample moments of sqrt(delta_v). All samples must be positive volts.
    A 2-D array gives a list of distributions, one per row."""
    return _estimate(DeltaVDistribution, samples, "delta_v", 0.0, "zero", np.sqrt, "sqrt(delta_v)")


def estimate_write_params(samples, t0=DEFAULT_T0):
    """Sample moments of sqrt(ln(t/t0)). Samples at or below t0 are rejected.
    A 2-D array gives a list of distributions, one per row."""
    if not t0 > 0.0:
        raise DomainError(f"t0 must be > 0, got {t0}")
    return _estimate(WriteTimeDistribution, samples, "write-time", t0,
                     f"t0 = {t0!r}; choose a smaller reference t0",
                     lambda t: np.sqrt(np.log(t / t0)), f"sqrt(ln(t/t0)) at t0 = {t0!r}", t0=t0)


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


# access_fail_prob_fixed, delta_quantile and write_quantile have no CLI caller;
# they stay as the closed CDF and quantiles that the C01/C02 gates check.
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
    from scipy.integrate import quad  # fallback only: keeps scipy.integrate off start-up

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

def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (Moler's pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))


class _Pchip:
    """Monotone piecewise-cubic (PCHIP) interpolants: x (..., G) increasing,
    y (..., G, k), one table per leading index, each column interpolated.

    A numpy port of scipy's PchipInterpolator that reproduces its bits:
    Fritsch-Butland weighted-harmonic-mean slopes inside (zero at a flat
    secant or a slope sign change), one-sided end slopes, the straight line
    through a 2-point table, CubicHermiteSpline's coefficients, and PPoly's
    evaluation on the piece holding t (the last piece at the right end). A
    1-point table is a constant. scipy.interpolate would import
    scipy.optimize, .linalg and .fft on every command that reads a table.
    """

    def __init__(self, x, y):
        self.x = x
        if x.shape[-1] == 1:
            zero = np.zeros_like(y)
            self.c = np.stack([zero, zero, zero, y], axis=-1)  # (..., piece, k, 4)
            return
        h = np.diff(x, axis=-1)[..., None]
        m = np.diff(y, axis=-2) / h
        if x.shape[-1] == 2:
            d = np.concatenate([m, m], axis=-2)
        else:
            h0, h1, m0, m1 = h[..., :-1, :], h[..., 1:, :], m[..., :-1, :], m[..., 1:, :]
            w1, w2 = 2 * h1 + h0, h1 + 2 * h0
            with np.errstate(divide="ignore", invalid="ignore"):
                inner = 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2))
            flat = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
            first = _pchip_end_slope(h[..., 0, :], h[..., 1, :], m[..., 0, :], m[..., 1, :])
            last = _pchip_end_slope(h[..., -1, :], h[..., -2, :], m[..., -1, :], m[..., -2, :])
            d = np.concatenate([first[..., None, :], np.where(flat, 0.0, inner),
                                last[..., None, :]], axis=-2)
        bend = (d[..., :-1, :] + d[..., 1:, :] - 2 * m) / h
        self.c = np.stack([bend / h, (m - d[..., :-1, :]) / h - bend, d[..., :-1, :],
                           y[..., :-1, :]], axis=-1)

    def __call__(self, t, rows=...):
        """Values (..., k) of every column of the tables `rows` at t (...),
        which must lie in [x[0], x[-1]] of each table."""
        t = np.asarray(t, dtype=float)
        x, c = self.x[rows], self.c[rows]
        i = np.minimum(np.sum(x <= t[..., None], axis=-1), c.shape[-3]) - 1
        s = (t - np.take_along_axis(x, i[..., None], axis=-1)[..., 0])[..., None]
        c = np.take_along_axis(c, i[..., None, None, None], axis=-3)[..., 0, :, :]
        return c[..., 3] + c[..., 2] * s + c[..., 1] * (s * s) + c[..., 0] * (s * s * s)


def _table(chars):
    """One _Pchip over the (t_read; mu_delta, sigma_delta) tables of a sequence
    of AccessCharacterization that share a grid size."""
    return _Pchip(np.array([c.t_read for c in chars]),
                  np.stack([np.array([c.mu_delta for c in chars]),
                            np.array([c.sigma_delta for c in chars])], axis=-1))


def _distributions(moments):
    """DeltaVDistribution of each (mu, sigma) row of an (m, 2) array."""
    return [DeltaVDistribution(mu, sigma) for mu, sigma in moments.tolist()]


@dataclass(frozen=True)
class AccessCharacterization:
    """Read-time grid with per-point sqrt(delta_v) moments.

    Monotone-cubic interpolation between grid points; queries outside the
    grid raise rather than extrapolate.
    """

    t_read: tuple
    mu_delta: tuple
    sigma_delta: tuple

    _JSON = {"schema": 1, "kind": "access_characterization"}

    def __post_init__(self):
        names = ("t_read", "mu_delta", "sigma_delta")
        t, mu, sg = (np.asarray(getattr(self, name), dtype=float) for name in names)
        if t.size < 1:
            raise DomainError("characterization needs at least 1 grid point")
        if t.size != mu.size or t.size != sg.size:
            raise DomainError("characterization columns must have equal length")
        table = np.array((t, mu, sg))
        if not np.isfinite(table).all():
            raise DomainError("characterization values must be finite")
        if not (t[1:] > t[:-1]).all():  # the values are finite: a step <= 0 is t[i+1] <= t[i]
            raise DomainError("t_read grid must be strictly increasing")
        if not (table[1:] > 0.0).all():
            raise DomainError("characterization moments must be positive")
        for name, column in zip(names, table.tolist()):
            object.__setattr__(self, name, tuple(column))

    @cached_property
    def _interp(self):
        return _table([self])

    def distribution_at(self, t):
        t, lo, hi = float(t), self.t_read[0], self.t_read[-1]
        if not lo <= t <= hi:
            raise DomainError(f"t_read {t!r} outside the characterized grid [{lo!r}, {hi!r}]")
        (dist,) = _distributions(self._interp([t]))
        return dist

    def ber_at(self, t, offset):
        """BER at read time t, or an array of BERs at each time of a sequence."""
        if np.ndim(t) == 0:
            return access_fail_prob_ber(self.distribution_at(t), offset)
        return access_fail_prob_ber([self.distribution_at(v) for v in t], offset)

    def to_dict(self):
        return {
            **self._JSON,
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
                t_read=tuple(json_value(r["t_read"], float, "t_read") for r in rows),
                mu_delta=tuple(json_value(r["mu_delta"], float, "mu_delta") for r in rows),
                sigma_delta=tuple(json_value(r["sigma_delta"], float, "sigma_delta")
                                  for r in rows),
            )


def invert_for_constraint(dist, target_pf, offset=None):
    """Timing constraint whose forward failure probability equals target_pf.

    Write distributions invert in closed form. Access inversion requires the
    characterization table plus an offset distribution and solves the BER
    curve by bracketed root finding on the characterized grid. `dist` is one
    distribution (float out) or a list or tuple of one kind (array out),
    inverted together; each result has the bits of its own inversion.
    """
    if not 0.0 < target_pf < 1.0:
        raise DomainError(f"target_pf must be in (0, 1), got {target_pf}")
    single = not isinstance(dist, (list, tuple))
    dists = [dist] if single else list(dist)
    if all(isinstance(d, WriteTimeDistribution) for d in dists):
        roots = _invert_write(dists, target_pf)
    elif all(isinstance(d, AccessCharacterization) for d in dists):
        if offset is None:
            raise DomainError("access inversion requires an offset distribution")
        if len({len(d.t_read) for d in dists}) > 1:  # one table per grid size
            roots = np.array([invert_for_constraint(d, target_pf, offset) for d in dists])
        else:
            roots = _invert_access(dists, target_pf, offset)
    else:
        kind = next(d for d in dists if not isinstance(d, (WriteTimeDistribution,
                                                              AccessCharacterization)))
        raise DomainError(f"cannot invert a {type(kind).__name__}")
    return float(roots[0]) if single else roots


def _invert_write(dists, target_pf):
    # 1 - target_pf rounds to 1 below about 1.1e-16, where ndtri is inf
    if 1.0 - target_pf == 1.0:
        raise DomainError(f"target_pf {target_pf} is below the resolution of the write "
                          "inversion: 1 - target_pf rounds to 1")
    mu = np.array([d.mu_w for d in dists])
    sigma = np.array([d.sigma_w for d in dists])
    root = mu + sigma * ndtri(1.0 - target_pf)
    negative = np.flatnonzero(root < 0.0)
    if negative.size:
        d = dists[negative[0]]
        ceiling = float(ndtr(d.mu_w / d.sigma_w))
        raise DomainError(
            f"target_pf {target_pf} exceeds the single-branch ceiling {ceiling!r}"
        )
    try:  # per-distribution scalars: math.exp keeps libm's bits
        return np.array([d.t0 * math.exp(r**2) for d, r in zip(dists, root)])
    except OverflowError:
        raise DomainError(f"the write time at target_pf {target_pf} overflows") from None


def _invert_access(chars, target_pf, offset):
    size = max(1, _BER_TERMS // (_BER_PANELS * (16 + 32)))  # nodes of the two BER rules
    if len(chars) > size:  # bounds the memory of the BER calls
        return np.concatenate([_invert_access(chars[s:s + size], target_pf, offset)
                               for s in range(0, len(chars), size)])
    table = _table(chars)
    lo, hi = table.x[:, 0], table.x[:, -1]
    lanes = np.arange(len(chars))

    def ber(t, rows):
        return access_fail_prob_ber(_distributions(table(t, rows)), offset)

    pf_lo, pf_hi = np.split(ber(np.concatenate([lo, hi]), np.concatenate([lanes, lanes])), 2)
    # BER falls as the read window grows
    for a, b in zip(pf_lo.tolist(), pf_hi.tolist()):
        if not (min(a, b) <= target_pf <= max(a, b)):
            raise DomainError(
                f"target_pf {target_pf} outside the achievable range "
                f"[{min(a, b):.6e}, {max(a, b):.6e}] of the grid"
            )
    if table.x.shape[-1] == 1:
        return lo
    # xtol scales with the grid: read times span fs to ns across cells
    return _brentq(lambda t, rows: ber(t, rows) - target_pf, lo, hi,
                   pf_lo - target_pf, pf_hi - target_pf, xtol=1e-12 * lo, rtol=1e-12)


def _brentq(f, xa, xb, fa, fb, xtol, rtol):
    """Roots of f on the brackets [xa, xb] (arrays, one lane each) by Brent's
    method, all lanes in lockstep.

    A port of scipy's brentq.c: every lane takes the steps, tolerances and
    float operations scipy takes on its own bracket, so it gives the same
    root bits, without importing scipy.optimize (and its start-up cost) on
    every command that inverts a BER curve. fa and fb are f at xa and xb;
    f(x, lanes) returns f at x for the lanes still iterating (an index
    array), so a converged lane drops out of the next call.
    """
    xa, xb, fa, fb = (np.array(v, dtype=float) for v in (xa, xb, fa, fb))
    xtol = np.broadcast_to(xtol, xa.shape)
    root = np.where(fa == 0.0, xa, xb)
    live = (fa != 0.0) & (fb != 0.0)
    unbracketed = np.flatnonzero(live & (np.signbit(fa) == np.signbit(fb)))
    if unbracketed.size:
        i = unbracketed[0]
        raise DomainError(f"no sign change of the root function on "
                          f"[{xa[i].item()!r}, {xb[i].item()!r}]")
    lanes = np.flatnonzero(live)
    xpre, xcur, fpre, fcur, tol = xa[lanes], xb[lanes], fa[lanes], fb[lanes], xtol[lanes]
    xblk = fblk = spre = scur = np.zeros(lanes.size)
    for _ in range(_BRENT_MAX_ITER):
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        step = xcur - xpre
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (tol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            root[lanes[done]] = xcur[done]
            keep = ~done
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, tol, delta, sbis = (
                v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                  tol, delta, sbis))
            if lanes.size == 0:
                return root
        # both trial steps for every lane; the one a lane does not take may divide by zero
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, inverse)
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))  # good short step
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, lanes)
    if lanes.size == 0:
        return root
    i = lanes[0]
    raise DomainError(f"root finding did not converge in {_BRENT_MAX_ITER} iterations "
                      f"on [{xa[i].item()!r}, {xb[i].item()!r}]")


def auto_read_grid(cell, offset, points=12):
    """Geometric t_read grid bracketing the useful BER range.

    Endpoints are the exact inverse of the nominal closed-form discharge
    (read_time_closed) at offset quantiles mu + z*sigma: the low end sits
    where the BER is still large (around 1e-2) and the high end beyond the
    4-sigma target, so constraint inversion stays inside the grid. A
    sequence of cells gets one grid per row; the first cell without one raises.
    """
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    dv_lo = offset.mu_vos + _GRID_Z_LO * offset.sigma_vos
    dv_hi = offset.mu_vos + _GRID_Z_HI * offset.sigma_vos
    ends = read_time_closed(cell, None, np.array([dv_lo, dv_hi]))
    cells = [cell] if isinstance(cell, CellConfig) else cell
    for c, row in zip(cells, ends.reshape(-1, 2).tolist()):
        if not 0.0 < dv_lo < dv_hi < c.vdd:
            raise DomainError(
                f"offset quantile window [{dv_lo!r}, {dv_hi!r}] V does not fit below vdd"
            )
        for dv, t in zip((dv_lo, dv_hi), row):
            if not 0.0 < t <= 1.0:  # also rejects NaN, inf and underflow to 0
                raise DomainError(f"cannot reach delta_v {dv!r} V on this cell")
    return np.geomspace(ends[..., 0], ends[..., 1], points, axis=-1)


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
    points = np.asarray(points, dtype=float)
    write_csv(path, f"# pearson_r: {corr!r}\ntheoretical,empirical",
              csv_text(len(points), lambda part: [points[part, 0], points[part, 1]]))


# -- JSON round trip ---------------------------------------------------------------

_KINDS = {cls._JSON["kind"]: cls for cls in (DeltaVDistribution, WriteTimeDistribution,
                                              OffsetVoltageDist, AccessCharacterization)}


def read_distribution_json(path):
    obj = read_json(path, "distribution JSON")
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown distribution kind {kind!r} in {path}")
    return _KINDS[kind].from_dict(obj)
