"""Weighted power mean kernel.

All composition in this package runs through a single two-place operator:
a weighted power mean of a fixed coefficient ``a`` and a free variable
``x``, both in the unit interval,

    wpm(a, x) = (w * a**p + (1 - w) * x**p) ** (1/p)

with weight ``0 < w < 1`` and exponent ``p > 0``.  The operator is
idempotent (``wpm(t, t) == t``), internal (the value lies between
``min(a, x)`` and ``max(a, x)``) and strictly increasing in ``x`` because
``1 - w > 0``.  Strict monotonicity makes the equation ``wpm(a, x) == t``
solvable in closed form whenever a solution exists:

    x = ((t**p - w * a**p) / (1 - w)) ** (1/p)

A solution exists iff both

  * ``a <= t / w**(1/p)``   (otherwise even ``x = 0`` overshoots), and
  * ``t**p < 1 - w`` or ``a >= ((t**p + w - 1) / w) ** (1/p)``
    (otherwise even ``x = 1`` falls short).

Both tests and the inverse are one array pass, ``entry_pass``, which
computes ``t**p`` once for all three; the second root is used only where
``t**p >= 1 - w``, and ``wpm_inverse`` is its one-entry case.  Strict
inequalities use the band ``CLASSIFY_TOL`` so knife-edge inputs resolve
to the solvable side.  Powers of single entries use ``np.float_power``,
which rounds like Python's scalar ``**``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NoSolutionError, ParameterDomainError

__all__ = [
    "CLASSIFY_TOL",
    "FEASIBILITY_TOL",
    "WpmParams",
    "wpm",
    "wpm_inverse",
]

#: Tolerance band for the strict inequalities that classify a coefficient
#: as solvable, unreachable or blocking.  Ties land on the solvable side.
CLASSIFY_TOL = 1e-9

#: Tolerance on reconstructed row values: ``x`` counts as solving a row
#: when the composed value is within this distance of the right-hand side.
FEASIBILITY_TOL = 1e-6

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class WpmParams:
    """Operator parameters: weight ``w`` in (0, 1), exponent ``p`` in (0, inf).

    Both endpoints of the weight range are excluded: ``w == 1`` removes the
    dependence on ``x`` entirely and ``w == 0`` degenerates the inverse
    formula's denominator.  Nonpositive exponents are rejected because the
    formulas rely on real p-th roots of nonnegative quantities.
    """

    w: float
    p: float

    def __post_init__(self) -> None:
        w = float(self.w)
        p = float(self.p)
        if not np.isfinite(w) or not 0.0 < w < 1.0:
            raise ParameterDomainError(f"weight must satisfy 0 < w < 1, got {self.w}")
        if not np.isfinite(p) or p <= 0.0:
            raise ParameterDomainError(f"exponent must satisfy p > 0, got {self.p}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "p", p)

    @property
    def blocking_scale(self) -> float:
        """``w ** (1/p)``: a coefficient blocks target ``t`` iff ``a > t / this``."""
        return float(self.w ** (1.0 / self.p))


def _require_unit(name: str, value: ArrayLike) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return arr


def wpm(a: ArrayLike, x: ArrayLike, params: WpmParams) -> ArrayLike:
    """Weighted power mean of ``a`` and ``x``; broadcasts over arrays.

    Returns ``(w * a**p + (1 - w) * x**p) ** (1/p)``, which by internality
    is again in [0, 1].
    """
    a_arr = _require_unit("a", a)
    x_arr = _require_unit("x", x)
    w, p = params.w, params.p
    out = (w * a_arr**p + (1.0 - w) * x_arr**p) ** (1.0 / p)
    if out.ndim == 0:
        return float(out)
    return out


def entry_pass(
    A: np.ndarray, b: np.ndarray, params: WpmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocking mask, inert mask and level of every entry ``A[i, j]`` against ``b[i]``.

    The level is the inverse, clamped into [0, 1]; it is valid where
    neither mask is set.  ``b**p`` is computed once for the masks and the
    levels.
    """
    w, p = params.w, params.p
    with np.errstate(all="ignore"):  # b / w**(1/p) is inf or nan once w**(1/p) underflows
        blocking = A > (b / params.blocking_scale + CLASSIFY_TOL)[:, None]
    t_pow = np.float_power(b, p)
    # clamp before dividing: a negative numerator over a tiny w overflows
    reach = np.float_power(np.maximum(t_pow + w - 1.0, 0.0) / w, 1.0 / p)
    guarded = (t_pow >= 1.0 - w)[:, None]
    inert = ~blocking & guarded & (A < (reach - CLASSIFY_TOL)[:, None])
    numerator = t_pow[:, None] - w * np.float_power(A, p)
    x = np.where(numerator < 0.0, 0.0, numerator) / (1.0 - w)
    return blocking, inert, np.float_power(np.where(1.0 < x, 1.0, x), 1.0 / p)


def wpm_inverse(a: float, target: float, params: WpmParams) -> float:
    """Solve ``wpm(a, x) == target`` for ``x``.

    Raises :class:`NoSolutionError` when no ``x`` in [0, 1] attains the
    target: either ``a`` is so large that the mean exceeds ``target`` even
    at ``x = 0``, or so small that the mean stays below ``target`` even at
    ``x = 1``.  Both conditions are tested with the ``CLASSIFY_TOL`` band;
    the returned value is clamped into [0, 1] so in-band inputs still
    yield a valid point.
    """
    a_f = float(_require_unit("a", a))
    t_f = float(_require_unit("target", target))
    blocking, inert, levels = entry_pass(np.array([[a_f]]), np.array([t_f]), params)
    if blocking[0, 0]:
        raise NoSolutionError(f"coefficient {a_f} overshoots target {t_f} even at x = 0")
    if inert[0, 0]:
        raise NoSolutionError(f"coefficient {a_f} cannot reach target {t_f} even at x = 1")
    return float(levels[0, 0])
