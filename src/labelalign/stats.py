"""Student-t tail probabilities via the regularized incomplete beta function.

Self-contained so the package has no SciPy dependency; the continued
fraction is evaluated by the modified Lentz algorithm to a relative
tolerance of 1e-10.
"""

from __future__ import annotations

import math

BETA_TOL = 1e-10
_FPMIN = 1e-300
_MAX_ITER = 500


def _nonzero(v: float) -> float:
    """``v``, or ``_FPMIN`` where ``|v|`` is below it, so that Lentz never divides by 0."""
    return _FPMIN if abs(v) < _FPMIN else v


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta I_x(a, b), by modified Lentz.

    Term m of the fraction has two coefficients, an even one
    ``m (b - m) x / ((a - 1 + 2m) (a + 2m))`` and an odd one
    ``-(a + m) (a + b + m) x / ((a + 2m) (a + 1 + 2m))``. Each goes through
    the one Lentz update of the running ratios ``d`` and ``c``, clamped away
    from 0, and multiplies the estimate ``h`` by their product. The fraction
    has converged when the odd coefficient's product is within ``BETA_TOL``
    of 1; it raises :class:`ArithmeticError` after ``_MAX_ITER`` terms.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < BETA_TOL:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """Two-sided tail probability of Student's t with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    return regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
