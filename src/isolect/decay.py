"""Calibration of swadesh distances to calendar time.

Competing decay laws map a distance L (swadesh units) to an age t in
thousands of years, given a replacement rate per millennium. The plain
exponential-retention law gives t proportional to L; excluding borrowings
shifts every measured distance down by a constant s, so the true age of a
measured distance is (L + s)/(100 * rate). Forcing a through-the-origin
line onto the shifted truth requires a smaller rate and distorts ages on
both sides of the anchor point. Word-aging laws replace the linear time
dependence with t^2, with or without a retention-dependent correction
factor exp(0.005 L).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .lexstat import _check_length, _check_positive

__all__ = [
    "CurveSample",
    "DecayParams",
    "calibration_laws",
    "classify_initial_rate",
    "decay_rate",
    "sample_curves",
    "time_linear",
    "time_linear_shifted",
    "time_quadratic",
    "time_starostin",
]

# 0.14 per millennium is the conventional 100-item replacement rate; it is a
# configurable default, not a fitted value.
DEFAULT_RATE = 0.14
# Shift of the worked borrowing-exclusion example: 5 loan slots in a
# 100-item list, s = 100*ln(100/95).
DEFAULT_SHIFT = 100.0 * math.log(100.0 / 95.0)

CURVE_TAGS = ("linear", "linear_shifted", "refit_linear", "quadratic", "starostin")


@dataclass(frozen=True)
class DecayParams:
    """Replacement rate per millennium, aging exponent, borrowing shift."""

    rate: float = DEFAULT_RATE
    alpha: float = 1.0
    shift: float = DEFAULT_SHIFT

    def __post_init__(self):
        _check_positive(self.rate, "rate")
        _check_positive(self.alpha, "alpha")
        _check_length(self.shift, "shift")


def time_linear(l: float, p: DecayParams) -> float:
    """Constant-rate law: t = L / (100 * rate)."""
    return _check_length(l, "swadesh distance") / (100.0 * p.rate)


def time_linear_shifted(l: float, p: DecayParams) -> float:
    """True age of a borrowing-excluded distance: t = (L + shift) / (100 * rate)."""
    return (_check_length(l, "swadesh distance") + p.shift) / (100.0 * p.rate)


def time_quadratic(l: float, p: DecayParams) -> float:
    """Word-aging law c = exp(-rate * t^2): t = sqrt(L / (100 * rate))."""
    return math.sqrt(_check_length(l, "swadesh distance") / (100.0 * p.rate))


def time_starostin(l: float, p: DecayParams) -> float:
    """Retention-corrected aging law: t = exp(0.005 L) * sqrt(L / (100 * rate))."""
    l = _check_length(l, "swadesh distance")
    return math.exp(0.005 * l) * math.sqrt(l / (100.0 * p.rate))


def _solve_implicit_retention(t: float, p: DecayParams) -> float:
    """Solve c = exp(-rate * c * t^alpha) by fixed-point iteration from c = 1."""
    k = p.rate * t**p.alpha
    c = 1.0
    for _ in range(200):
        c_next = math.exp(-k * c)
        if abs(c_next - c) < 1e-12:
            return c_next
        c = c_next
    raise ConvergenceError(
        f"implicit retention did not converge after 200 iterations (t={t}, "
        f"rate={p.rate}, alpha={p.alpha})"
    )


def decay_rate(t: float, p: DecayParams) -> float:
    """Instantaneous dc/dt of the generalized law c = exp(-rate * c * t^alpha).

    The inner c is the instantaneous retention solved from the implicit
    equation; the derivative is evaluated as
    -rate * c * alpha * t^(alpha-1) * exp(-rate * c * t^alpha).
    At t = 0 this is -rate for alpha = 1, zero for alpha > 1 and negative
    infinity for alpha < 1.
    """
    t = _check_length(t, "time")
    if t == 0.0:
        if p.alpha > 1.0:
            return 0.0
        if p.alpha == 1.0:
            return -p.rate
        return -math.inf
    c = _solve_implicit_retention(t, p)
    return -p.rate * c * p.alpha * t ** (p.alpha - 1.0) * math.exp(
        -p.rate * c * t**p.alpha
    )


def classify_initial_rate(alpha: float) -> str:
    """Behaviour of |dc/dt| at t = 0: 'zero', 'finite' or 'infinite'.

    Only alpha = 1 yields a finite nonzero initial replacement speed.
    """
    _check_positive(alpha, "alpha")
    if alpha > 1.0:
        return "zero"
    if alpha == 1.0:
        return "finite"
    return "infinite"


@dataclass(frozen=True)
class CurveSample:
    """One calibration curve sampled on a common distance grid."""

    tag: str
    distances: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        if self.tag not in CURVE_TAGS:
            raise DomainError(f"unknown curve tag {self.tag!r}")
        d = np.asarray(self.distances, dtype=float)
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(d) <= 0.0):
            raise DomainError("curve distances must be strictly ascending")
        if np.any(t < 0.0):
            raise DomainError("curve times must be >= 0")
        d.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "times", t)


def refit_rate(p: DecayParams, t0: float = 1.0) -> float:
    """Rate of the through-the-origin line anchored on the shifted truth at t0.

    The anchor is the point of the shifted curve at age ``t0``; pushing a
    line through the origin and that point needs the smaller rate
    rate - shift / (100 * t0).
    """
    _check_positive(t0, "anchor time")
    reduced = p.rate - p.shift / (100.0 * t0)
    if reduced <= 0.0:
        raise DomainError(
            f"shift {p.shift} too large for an anchored line at t0={t0}: "
            f"implied rate {reduced} is not positive"
        )
    return reduced


def calibration_laws(p: DecayParams, t0: float = 1.0) -> tuple:
    """The five calibration laws, each a function of one distance, in ``CURVE_TAGS`` order.

    Laws: plain linear law, the same law shifted by the borrowing exclusion,
    the refit line through the origin and the shifted curve's point at
    ``t0``, the quadratic aging law, and the retention-corrected aging law.
    """
    reduced = refit_rate(p, t0)
    return (
        lambda l: time_linear(l, p),
        lambda l: time_linear_shifted(l, p),
        lambda l: _check_length(l, "swadesh distance") / (100.0 * reduced),
        lambda l: time_quadratic(l, p),
        lambda l: time_starostin(l, p),
    )


def sample_curves(
    l_max: float, step: float, p: DecayParams, t0: float = 1.0
) -> tuple:
    """Sample the five ``calibration_laws`` on a common grid for plotting."""
    _check_positive(l_max, "l_max")
    _check_positive(step, "step")
    grid = np.arange(0.0, l_max + step / 2.0, step)
    return tuple(
        CurveSample(tag, grid, np.array([law(l) for l in grid.tolist()]))
        for tag, law in zip(CURVE_TAGS, calibration_laws(p, t0))
    )
