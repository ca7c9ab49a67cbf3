"""Compact drain-current models for near- and subthreshold MOSFETs.

One four-constant exponential model (current scale, linear and quadratic
gate-overdrive coefficients, and a DIBL coefficient) plus two baseline
variants used for comparison: the classic textbook exponential and the
transregional form without the DIBL factor.

PMOS devices are evaluated with source-referenced magnitudes: callers pass
|V_gs| and |V_ds| and the model itself is polarity-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import Record, bundled_json, read_json
from .errors import DomainError, check_domains, domain

# Exact SI 2019 values, the same floats scipy.constants holds; importing it
# would add to the start-up of every command.
_BOLTZMANN_J_PER_K = 1.380649e-23
_ELEMENTARY_CHARGE_C = 1.602176634e-19
_ZERO_C_IN_K = 273.15

# Exponent clamp: far outside the fitted bias domain, keeps exp() finite
# while preserving monotonicity.
EXP_ARG_LIMIT = 60.0

_POLARITIES = ("nmos", "pmos")


def thermal_voltage(temperature_c):
    """k_B*T/q in volts for a temperature in degrees Celsius."""
    kelvin = temperature_c + _ZERO_C_IN_K
    if not kelvin > 0.0:
        raise DomainError(
            f"temperature {temperature_c} C is at or below absolute zero"
        )
    return _BOLTZMANN_J_PER_K * kelvin / _ELEMENTARY_CHARGE_C


@dataclass(frozen=True)
class DeviceParams(Record):
    """Fitted constants of the exponential drain-current model.

    Attributes
    ----------
    i0 : float
        Current scale in amperes.
    k1, k2 : float
        Linear and quadratic coefficients of the gate overdrive polynomial.
    dibl : float
        DIBL coefficient; serialized under the JSON key "lambda". May be
        negative.
    n : float
        Subthreshold swing factor (dimensionless, >= 1).
    vth_nominal : float
        Nominal threshold voltage in volts (a magnitude for PMOS).
    polarity : str
        "nmos" or "pmos".
    vgs_max : float
        Upper end of the declared gate-bias fitting range in volts; the
        monotonicity invariant is enforced up to this bias.
    """

    i0: float = domain(0.0)
    k1: float = domain(0.0)
    k2: float = domain()
    dibl: float = domain(metadata={"key": "lambda"})
    vth_nominal: float = domain()
    n: float = domain(1.0, closed=True, default=1.5)
    polarity: str = "nmos"
    vgs_max: float = domain(0.0, default=0.7)

    _WHAT = "device JSON"

    def __post_init__(self):
        check_domains(self)
        if abs(self.k2) >= self.k1:
            raise DomainError(
                f"|k2| must be below k1 for a monotone I-V (k1={self.k1}, k2={self.k2})"
            )
        if self.polarity not in _POLARITIES:
            raise DomainError(f"polarity must be one of {_POLARITIES}, got {self.polarity!r}")
        # Monotone current up to the declared gate range: k1 + 2*k2*x > 0 at
        # the largest overdrive reached. Checked at the 25 C fitting
        # condition, where the constants are defined.
        if self.k2 < 0.0:
            x_top = max(self.vgs_max - self.vth_nominal, 0.0) / (self.n * thermal_voltage(25.0))
            if self.k1 + 2.0 * self.k2 * x_top <= 0.0:
                raise DomainError(
                    f"current not monotone in vgs up to {self.vgs_max} V: "
                    f"k1 + 2*k2*x = {self.k1 + 2.0 * self.k2 * x_top:.4g} at x = {x_top:.3f}"
                )


@dataclass(frozen=True)
class OperatingPoint:
    """A single bias point; PMOS biases are source-referenced magnitudes."""

    vgs: float = domain(0.0, closed=True)
    vds: float = domain(0.0, closed=True)
    temperature_c: float = domain(-_ZERO_C_IN_K, default=25.0)

    def __post_init__(self):
        check_domains(self)


def gate_polynomial(params, vgs, vt, vth=None):
    """Gate overdrive polynomial k1*x + k2*x**2 with x = (vgs - vth)/(n*vt).

    `vth` defaults to the nominal threshold; Monte Carlo callers pass a
    sampled value. Accepts scalars or numpy arrays for `vgs`/`vth`.
    """
    if vth is None:
        vth = params.vth_nominal
    x = (vgs - vth) / (params.n * vt)
    return params.k1 * x + params.k2 * x * x


def _current_proposed(params, vgs, vds, vt, vth=None):
    """Array-friendly kernel of the full model; no OperatingPoint checks."""
    p = np.clip(gate_polynomial(params, vgs, vt, vth), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    dibl = np.exp(params.dibl * vds / (params.n * vt))
    transregional = -np.expm1(-params.k1 * vds / vt)
    return params.i0 * np.exp(p) * dibl * transregional


def _current_at_zero_overdrive(params, vds, vt):
    """_current_proposed with the gate polynomial exactly 0 (vth = vgs), bit
    for bit, since i0 * exp(0) == i0: the drain factors alone, without the
    clip and exp of the gate term. The exact oracles evaluate every current
    this way and scale it by exp(p) per sample."""
    dibl = np.exp(params.dibl * vds / (params.n * vt))
    transregional = -np.expm1(-params.k1 * vds / vt)
    return params.i0 * dibl * transregional


def ids_proposed(params, op):
    """Drain current of the full model: DIBL factor and transregional factor.

    Exactly zero at vds = 0; subthreshold bias yields a small positive
    current rather than an error.
    """
    vt = thermal_voltage(op.temperature_c)
    return float(_current_proposed(params, op.vgs, op.vds, vt))


# ids_classic and ids_transregional have no CLI caller; they stay as the
# paper's baseline current models, which the proposed model is compared with.
def ids_classic(params, op):
    """Classic exponential baseline: linear gate exponent, vt-scaled drain factor."""
    vt = thermal_voltage(op.temperature_c)
    arg = (op.vgs - params.vth_nominal) / (params.n * vt)
    arg = min(max(arg, -EXP_ARG_LIMIT), EXP_ARG_LIMIT)
    dibl = math.exp(params.dibl * op.vds / (params.n * vt))
    return params.i0 * math.exp(arg) * dibl * -math.expm1(-op.vds / vt)


def ids_transregional(params, op):
    """Full model without the DIBL factor (drain-bias exponential dropped)."""
    vt = thermal_voltage(op.temperature_c)
    p = np.clip(gate_polynomial(params, op.vgs, vt), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    return float(params.i0 * np.exp(p) * -np.expm1(-params.k1 * op.vds / vt))


def load_device_table():
    """Bundled fitted constants, six device flavors at the typical corner, 25 C.

    Returns a dict keyed by flavor name (e.g. "nch_svt").
    """
    raw = bundled_json("device_table.json")
    return {name: DeviceParams.from_dict(row) for name, row in raw.items()}


def read_device_json(path):
    """Load one DeviceParams from a JSON file."""
    return DeviceParams.from_dict(read_json(path, "device JSON"))
