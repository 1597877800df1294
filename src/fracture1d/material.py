"""Stored-energy densities for the two-well inverse-stretch description.

A material is a plain record: the inverse density ``wstar`` with wells at
H = 0 (broken phase) and H = 1 (unstretched), its first and second
derivatives, and the quadratic-growth constants (C, M) with
wstar(H) >= C*H^2 for H >= M.
Densities must be defined and finite on [0, inf) and accept numpy arrays.
A model's surface constant ``c_wstar`` is integrated once per instance,
and ``builtin_lj`` gives one shared model per process.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MaterialModel",
    "DirectDensityView",
    "GrowthReport",
    "NonConvergence",
    "builtin_lj",
    "polynomial_model",
    "resolve_model",
    "validate_model",
    "c_wstar",
    "surface_constant_quadrature",
    "check_growth",
]


class NonConvergence(RuntimeError):
    """Adaptive quadrature exhausted its refinement budget.

    Carries the best value and error estimate reached so far.
    """

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class MaterialModel:
    """Inverse stored-energy density with metadata.

    Attributes:
        name: identifier used for CLI selection and report metadata
        wstar: energy density as a function of inverse stretch H >= 0
        wstar_prime: derivative of wstar
        wstar_second: derivative of wstar_prime, the curvature a Newton
            step reads
        growth_constants: (C, M) with wstar(H) >= C*H^2 for H >= M
    """

    name: str
    wstar: Callable[[np.ndarray], np.ndarray]
    wstar_prime: Callable[[np.ndarray], np.ndarray]
    wstar_second: Callable[[np.ndarray], np.ndarray]
    growth_constants: tuple[float, float]

    # Kept in the instance's __dict__ after the first read, not in a table
    # keyed on the model: a list of growth constants makes it unhashable.
    # A replaced model is a new instance and integrates again.
    @functools.cached_property
    def _c_wstar(self) -> float:
        value, _ = surface_constant_quadrature(self, QUADRATURE_TOL)
        return value


@dataclass(frozen=True)
class DirectDensityView:
    """Direct density w(F) = F * wstar(1/F) induced by an inverse model."""

    model: MaterialModel

    def w(self, f):
        f = np.asarray(f, dtype=float)
        if np.any(f <= 0.0):
            raise ValueError("direct stretch F must be positive")
        out = f * self.model.wstar(1.0 / f)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of sampling the growth bound wstar(H) >= C*H^2 on [M, 10M]."""

    passed: bool
    worst_margin: float
    worst_h: float
    c: float
    m: float


@functools.cache
def builtin_lj() -> MaterialModel:
    """Inverse density H*(1-H)^2 of the Lennard-Jones-type direct density.

    The direct counterpart is w(F) = (1 - 1/F)^2.  Growth constants
    (C, M) = (1/4, 2) are verified by sampling at the first call.  The
    model is frozen and its densities stateless, so every call of a
    process returns that one model, and its ``c_wstar`` is integrated once.
    """

    def wstar(h):
        h = np.asarray(h, dtype=float)
        out = 1.0 - h
        out *= out
        out *= h
        return float(out) if out.ndim == 0 else out

    def wstar_prime(h):
        h = np.asarray(h, dtype=float)
        out = 1.0 - 3.0 * h
        out *= 1.0 - h
        return float(out) if out.ndim == 0 else out

    def wstar_second(h):
        out = 6.0 * np.asarray(h, dtype=float) - 4.0
        return float(out) if out.ndim == 0 else out

    model = MaterialModel("lj", wstar, wstar_prime, wstar_second, (0.25, 2.0))
    validate_model(model)
    return model


def polynomial_model(
    name: str,
    coeffs: Sequence[float],
    growth_constants: tuple[float, float] | None = None,
) -> MaterialModel:
    """Build a model with wstar(H) = sum_k coeffs[k] * H^k.

    Coefficients are given lowest order first.  When growth constants are
    not supplied they are derived by sampling: M = 2 and C is 90% of the
    smallest wstar(H)/H^2 on [M, 10M].
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least two polynomial coefficients")
    dc = c[1:] * np.arange(1, c.size)
    ddc = dc[1:] * np.arange(1, dc.size)

    def wstar(h):
        h = np.asarray(h, dtype=float)
        out = np.polynomial.polynomial.polyval(h, c)
        return float(out) if out.ndim == 0 else out

    def wstar_prime(h):
        h = np.asarray(h, dtype=float)
        out = np.polynomial.polynomial.polyval(h, dc)
        return float(out) if out.ndim == 0 else out

    def wstar_second(h):
        h = np.asarray(h, dtype=float)
        out = np.polynomial.polynomial.polyval(h, ddc)
        return float(out) if out.ndim == 0 else out

    if growth_constants is None:
        m = 2.0
        hs = np.linspace(m, 10.0 * m, 512)
        ratio = wstar(hs) / hs**2
        cmin = float(np.min(ratio))
        if cmin <= 0.0:
            raise ValueError(
                f"model {name!r} violates quadratic growth on [{m}, {10 * m}]"
            )
        growth_constants = (0.9 * cmin, m)

    model = MaterialModel(name, wstar, wstar_prime, wstar_second, growth_constants)
    validate_model(model)
    return model


def resolve_model(name: str, custom: dict[str, MaterialModel] | None = None) -> MaterialModel:
    """Look up a model by name; ``custom`` maps config-defined names."""
    if custom and name in custom:
        return custom[name]
    if name == "lj":
        return builtin_lj()
    raise KeyError(f"unknown material model {name!r}")


def validate_model(model: MaterialModel) -> None:
    """Check the two-well structure, the growth bound and both derivatives.

    Raises ValueError on the first violated property.
    """
    samples = 256  # points at which each property is sampled
    w0 = float(model.wstar(0.0))
    w1 = float(model.wstar(1.0))
    if abs(w0) > 1e-12 or abs(w1) > 1e-12:
        raise ValueError(f"model {model.name!r}: wells at 0 and 1 required")
    grid = np.linspace(0.01, 0.99, samples)
    if np.min(model.wstar(grid)) <= 0.0:
        raise ValueError(f"model {model.name!r}: wstar must be positive between wells")
    report = check_growth(model, samples)
    if not report.passed:
        raise ValueError(
            f"model {model.name!r}: growth bound fails at H={report.worst_h:g}"
        )
    # Centered differences; step sized against the cubic truncation term.
    hs = 0.05 + 2.9 * (np.arange(samples) + 0.5) / samples
    step = 1e-6
    for f, df, message in (
        (model.wstar, model.wstar_prime, "wstar_prime disagrees with wstar"),
        (model.wstar_prime, model.wstar_second, "wstar_second disagrees with wstar_prime"),
    ):
        fd = (f(hs + step) - f(hs - step)) / (2.0 * step)
        err = np.abs(fd - df(hs)) / (1.0 + np.abs(fd))
        if np.max(err) > 1e-6:
            raise ValueError(f"model {model.name!r}: {message}")


def check_growth(model: MaterialModel, samples: int = 256) -> GrowthReport:
    """Sample H on [M, 10M] and report the worst margin wstar(H) - C*H^2."""
    if samples < 100:
        raise ValueError("growth check needs at least 100 samples")
    c, m = model.growth_constants
    hs = np.linspace(m, 10.0 * m, samples)
    margin = model.wstar(hs) - c * hs**2
    i = int(np.argmin(margin))
    return GrowthReport(bool(margin[i] >= 0.0), float(margin[i]), float(hs[i]), c, m)


# 15-point Kronrod extension of 7-point Gauss (positive abscissae).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: returns (K15 value, |K15 - G7| estimate)."""
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    nodes = np.empty(15)
    nodes[:7] = center - halfwidth * np.asarray(_XGK[:7])
    nodes[7] = center
    nodes[8:] = center + halfwidth * np.asarray(_XGK[6::-1])
    fv = np.asarray(f(nodes), dtype=float)
    kronrod = _WGK[7] * fv[7]
    gauss = _WG[3] * fv[7]
    for i in range(7):
        pair = fv[i] + fv[14 - i]
        kronrod += _WGK[i] * pair
        if i % 2 == 1:
            gauss += _WG[i // 2] * pair
    return halfwidth * kronrod, halfwidth * abs(kronrod - gauss)


def adaptive_quadrature(f, a: float, b: float, abs_tol: float) -> tuple[float, float]:
    """Integrate f on [a, b] to absolute accuracy abs_tol.

    Gauss-Kronrod panels refined by bisection of the worst interval; no
    endpoint evaluations, so square-root behaviour at a or b only slows
    convergence locally.  Returns (value, error estimate).  Raises
    NonConvergence when 4096 panels do not reach abs_tol.
    """
    max_intervals = 4096
    if not 0.0 < abs_tol < math.inf:
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    if a == b:
        return 0.0, 0.0
    value, err = _gk15(f, a, b)
    # Heap of (-error, a, b, value, error); worst interval refined first.
    heap = [(-err, a, b, value, err)]
    while True:
        total_err = sum(item[4] for item in heap)
        if total_err <= 0.5 * abs_tol:
            break
        if len(heap) >= max_intervals:
            total = math.fsum(item[3] for item in heap)
            raise NonConvergence(
                f"quadrature stalled at {len(heap)} intervals "
                f"(error {total_err:.3e} > {abs_tol:.3e})",
                value=total,
                error=total_err,
            )
        _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        vl, el = _gk15(f, lo, mid)
        vr, er = _gk15(f, mid, hi)
        heapq.heappush(heap, (-el, lo, mid, vl, el))
        heapq.heappush(heap, (-er, mid, hi, vr, er))
    total = math.fsum(item[3] for item in heap)
    return total, sum(item[4] for item in heap)


# Absolute accuracy of c_wstar, and the default of ``cwstar --abs-tol``.
QUADRATURE_TOL = 1e-10


def surface_constant_quadrature(model: MaterialModel, abs_tol: float) -> tuple[float, float]:
    """Integral of sqrt(2*wstar) over [0, 1] with its error estimate."""

    def integrand(tau):
        # wstar may round a hair below zero at the wells.
        return np.sqrt(np.maximum(2.0 * model.wstar(tau), 0.0))

    return adaptive_quadrature(integrand, 0.0, 1.0, abs_tol)


def c_wstar(model: MaterialModel) -> float:
    """Per-crack surface-energy constant of the sharp-interface limit, to
    within QUADRATURE_TOL.

    Integrated once per model instance and kept on it; a model made with
    ``dataclasses.replace`` integrates its own.  ``cwstar`` calls
    ``surface_constant_quadrature`` instead, at its own tolerance.
    """
    return model._c_wstar
