"""Power nonlinearity |u|^(alpha-1) u with sign, and its antiderivative functional.

A :class:`Nonlinearity` is also the ``[nonlinearity]`` section of the INI
configuration: its fields are the section's keys, and it validates them.

Evaluation is pseudospectral: synthesize to the (oversampled) quadrature grid,
apply the pointwise power, and analyze back.  Each direction is one fast
transform of the model's domain (FFT on the torus, DST/DCT on the interval),
at every level size.  Analysis is the quadrature adjoint of synthesis, and
the grid pairing makes
``<u, F(u)>`` a nonnegative quadrature sum times the sign, so the structural
identity ``Re <i u, F(u)> = 0`` holds to rounding regardless of aliasing.
:func:`eval_F` and :func:`eval_Fhat` take a level and the coefficients of its
modes, and run its model's fast transforms on them
(``level.model.synthesize(u, level.dim)``); a caller that means all modes
passes the model's top level, ``build_level(model, model.max_level)``.

The solver's step loop does not call :func:`eval_F` or :func:`eval_Fhat`: its
drift workspace applies the same pointwise power (``_pointwise_power``) and
quadrature between the level's bound transform pair, which on small levels
multiplies by a dense pair instead, and the tests hold the two paths equal to
rounding.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import ConfigurationError
from .spectral import GalerkinLevel

DEFOCUSING = +1
FOCUSING = -1


@dataclasses.dataclass(frozen=True)
class Nonlinearity:
    """``[nonlinearity]``: kind (defocusing: sign +1, focusing: -1), exponent alpha > 1."""

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in ("defocusing", "focusing"):
            raise ConfigurationError("nonlinearity kind must be defocusing or focusing")
        if not (self.alpha > 1.0) or not math.isfinite(self.alpha):
            raise ConfigurationError(f"alpha must be > 1, got {self.alpha}")

    @property
    def sign(self) -> int:
        return DEFOCUSING if self.kind == "defocusing" else FOCUSING


def defocusing(alpha: float) -> Nonlinearity:
    return Nonlinearity("defocusing", float(alpha))


def focusing(alpha: float) -> Nonlinearity:
    return Nonlinearity("focusing", float(alpha))


def admissible_alpha_cap(sign: int, dimension: int, beta: float = 1.0) -> float:
    """Largest admissible exponent (exclusive) for global well-posedness.

    Defocusing: ``1 + 4*beta / (d - 2*beta)`` when ``d > 2*beta``, else
    unbounded.  Focusing: ``1 + 4*beta / d``.  ``beta = 1`` gives the
    classical windows; the fractional scaling shrinks them accordingly.
    """
    if dimension not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {dimension}")
    if sign == DEFOCUSING:
        if dimension <= 2 * beta:
            return math.inf
        return 1.0 + 4.0 * beta / (dimension - 2.0 * beta)
    if sign == FOCUSING:
        return 1.0 + 4.0 * beta / dimension
    raise ConfigurationError(f"sign must be +1 or -1, got {sign}")


def validate_exponent(nl: Nonlinearity, dimension: int, beta: float = 1.0) -> None:
    """Reject exponents outside the admissible window (strict upper bound)."""
    cap = admissible_alpha_cap(nl.sign, dimension, beta)
    if not (nl.alpha < cap):
        raise ConfigurationError(
            f"{nl.kind} alpha={nl.alpha} not admissible in dimension {dimension} "
            f"with beta={beta}: requires alpha < {cap}"
        )


def _pointwise_power(values: np.ndarray, alpha: float) -> np.ndarray:
    """``|v|^(alpha-1) v`` pointwise; alpha > 1, so a zero sample stays zero.

    Overflow to inf is not masked here: the solver's step loop reads it as a
    diverged fixed-point iterate, and :func:`eval_F` silences the warnings.
    """
    return np.abs(values) ** (alpha - 1.0) * values


def eval_F(level: GalerkinLevel, nl: Nonlinearity, coefficients: np.ndarray) -> np.ndarray:
    """Coefficients of sign * |u|^(alpha-1) u on the level's modes.

    Computing only those coefficients is exactly the composition with the
    orthogonal projection onto their span.
    """
    model, dim = level.model, level.dim
    values = model.synthesize(coefficients, dim)
    # overflow to inf is acceptable: callers iterating toward a fixed point
    # read it as a diverged step and shorten
    with np.errstate(over="ignore", invalid="ignore"):
        power = _pointwise_power(values, nl.alpha)
    return nl.sign * model.analyze(power, dim)


def eval_Fhat(level: GalerkinLevel, nl: Nonlinearity, coefficients: np.ndarray) -> float:
    """Antiderivative functional sign/(alpha+1) * ||u||_{L^{alpha+1}}^{alpha+1}.

    Its directional derivative in h is ``Re <F(u), h>``, which pairs it with
    :func:`eval_F`; both use the same quadrature so the identity survives
    discretisation.
    """
    model = level.model
    values = model.synthesize(coefficients, level.dim)
    integral = float(np.sum(model.grid_weights * np.abs(values) ** (nl.alpha + 1.0)))
    return nl.sign * integral / (nl.alpha + 1.0)
