"""Discrete minimization of the gradient-regularized energies.

Fields live on a uniform grid of N cells, V's inverse deformation h at
its nodes and E's inverse stretch H = h' at its cell midpoints.  Both
share one interfacial kernel: V's energy and gradient are E's at its
slopes plus the foundation term.  Both functionals are minimized by
projected gradient descent with Barzilai-Borwein steps safeguarded by
backtracking along the projected direction; the one projection per
iteration also certifies convergence.  E's Hessian is tridiagonal, so
an E descent still running after ``_NEWTON_AFTER`` first-order
iterations, which pick its basin, goes on in the same loop with
projected Newton steps, one cyclic-reduction solve each.  A descent
stops when the stationarity test holds, at its iteration cap (both kinds
of iteration together), when no step passes the line search, or when its
Newton steps stall: no diagonal shift gives a descent direction, or
residual/tol has not halved over a window of steps, or over a shorter
run of steps that each needed a diagonal shift.
Exact projections (Michelot's active-set shift for the mass constraint,
PAV for monotonicity) and convex combinations of feasible points keep
every iterate feasible, so energies are meaningful throughout.  Each
functional is one record of kernels (geometry, energy, gradient,
projection) that the descent calls itself: the gradient at an accepted
point reads the geometry that the point's energy evaluation built.  A
solve has one or more rows, each row after the first continued from the
minimizer of the one before it; the caller hands the starts of all rows
from one queue to a worker on every CPU of the process's affinity mask,
with the same result on any count.

The foundation-coupled energy is the unrescaled one with interaction
stiffness k = epsilon * mu; dividing by epsilon gives the quantity that
approaches the sharp-interface value as epsilon shrinks, and solve
results report both.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .material import MaterialModel, c_wstar
from .sharp import (
    PiecewiseConstantField,
    PiecewiseLinearField,
    build_sharp_minimizer,
    crack_count,
)

__all__ = [
    "DiscreteField",
    "CellField",
    "SolveSettings",
    "SolveResult",
    "eval_E_eps",
    "grad_E_eps",
    "project_H",
    "eval_V_eps",
    "grad_V_eps",
    "project_h",
    "isotonic_regression",
    "minimize",
    "mollify_sharp_candidate",
    "transition_profile",
    "transition_count_values",
    "transition_count_slopes",
    "phi_interpolator",
    "mm_lower_bound_H",
    "mm_lower_bound_slopes",
]


# A sweep solves on one grid; eight entries bound what a process that
# solves on many grids keeps.
@functools.lru_cache(maxsize=8)
def _midpoints(lam: float, n_cells: int) -> np.ndarray:
    """The midpoints (j + 1/2) * lam / n_cells of the cells, built once
    per grid and shared read-only: where E's values sit."""
    midpoints = (np.arange(n_cells) + 0.5) * (lam / n_cells)
    midpoints.flags.writeable = False
    return midpoints


def _check_grid(domain_length: float, values: np.ndarray) -> None:
    if not 0.0 < domain_length < math.inf:
        raise ValueError("domain length must be positive and finite")
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need at least three values")


@dataclass
class DiscreteField:
    """Node values on the uniform grid y_j = j * domain_length / N.

    The constructor stores a float copy of ``values``, so the caller may
    go on changing its array, and checks it.  The projections check their
    input, build a fresh array per call and hand it over through
    ``_adopt``, which keeps it uncopied and unchecked.
    """

    domain_length: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        _check_grid(self.domain_length, self.values)
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    @classmethod
    def _adopt(cls, domain_length: float, values: np.ndarray) -> DiscreteField:
        """A field holding ``values`` itself: a finite float array on a
        checked grid that the caller has just built and shares with no one."""
        out = object.__new__(cls)
        out.domain_length, out.values = domain_length, values
        return out

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n_cells

    @staticmethod
    def grid_points(domain_length: float, n_cells: int) -> np.ndarray:
        return np.linspace(0.0, domain_length, n_cells + 1)

    def points(self) -> np.ndarray:
        return self.grid_points(self.domain_length, self.n_cells)

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.spacing


class CellField(DiscreteField):
    """N values at the cell midpoints (j + 1/2) * d: E's inverse stretch."""

    grid_points = staticmethod(_midpoints)

    @property
    def n_cells(self) -> int:
        return self.values.size


# epsilon**2 scales the gradient terms; it must stay a finite float.
_EPSILON_MAX = float(np.sqrt(np.finfo(float).max))

# Each random start is a full descent, and a solve builds every row's
# starts before the first descends, so a larger count only exhausts
# the time or memory of the run.
_MULTISTART_MAX = 1000


@dataclass
class SolveSettings:
    """One solve: the load ``lam``, the regularization ``epsilon``, the
    foundation stiffness ``mu`` (V only), the number of grid cells, the
    iteration cap of each descent (first-order and Newton iterations
    together), and the count and seed of the random starts.  The grid
    must resolve the transition width.  These defaults are also the
    command line's.  The stationarity tolerance ``GTOL`` and the
    line-search and Newton-phase constants are fixed beside ``_descend``.
    """

    lam: float
    epsilon: float
    mu: float = 0.0
    grid_n: int = 1000
    max_iterations: int = 1500
    multistart: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        if not 0.0 < self.epsilon < _EPSILON_MAX:
            raise ValueError(
                f"epsilon must be positive and below {_EPSILON_MAX:.4g} so that "
                f"epsilon^2 is finite, got {self.epsilon!r}"
            )
        if not 0.0 <= self.mu < np.inf:
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu!r}")
        for name in ("grid_n", "max_iterations", "multistart", "seed"):
            try:
                setattr(self, name, operator.index(getattr(self, name)))  # numpy's integers pass
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.grid_n < 16:
            raise ValueError("grid_n must be at least 16")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 <= self.multistart <= _MULTISTART_MAX:
            raise ValueError(
                f"multistart must be between 0 and {_MULTISTART_MAX}, got {self.multistart!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


@dataclass
class SolveResult:
    minimizer: DiscreteField
    energy: float
    rescaled_energy: float
    iterations: int
    transition_count: int
    converged: bool
    start_label: str
    energy_history: list[float] = field(default_factory=list)


def eval_E_eps(h_field: DiscreteField, epsilon: float, model: MaterialModel) -> float:
    """Interfacial energy of N cell values H_j of width d, the inverse
    stretch: (epsilon^2 / 2d) * sum (H_{j+1} - H_j)^2 + d * sum W*(H_j)."""
    return _e_energy_at(_e_geometry(h_field.values, h_field.domain_length), epsilon, model)


def grad_E_eps(h_field: DiscreteField, epsilon: float, model: MaterialModel) -> np.ndarray:
    return _e_grad_at(_e_geometry(h_field.values, h_field.domain_length), epsilon, model)


def eval_V_eps(
    h_field: DiscreteField, epsilon: float, mu: float, model: MaterialModel
) -> float:
    """Foundation-coupled energy with stiffness k = epsilon * mu.

    The interfacial part is ``eval_E_eps`` of the slopes
    H_j = (h_{j+1} - h_j) / d; the foundation term adds
    (k d / 2) * sum H_j m_j^2 with the misfit m = y - lam * h at the cell
    midpoints.  Divide by epsilon for the rescaled value.
    """
    return _v_energy_at(_v_geometry(h_field.values, h_field.domain_length), epsilon, mu, model)


def grad_V_eps(
    h_field: DiscreteField, epsilon: float, mu: float, model: MaterialModel
) -> np.ndarray:
    lam = h_field.domain_length
    return _v_grad_at(_v_geometry(h_field.values, lam), lam, epsilon, mu, model)


def _e_geometry(values, lam):
    """Cell values, cell width and the differences of neighbouring cells:
    what the E energy and gradient share."""
    return values, lam / values.size, values[1:] - values[:-1]


def _e_energy_at(geometry, epsilon, model) -> float:
    values, d, dif = geometry
    grad_term = (epsilon**2 / (2.0 * d)) * float(dif.dot(dif))
    return grad_term + d * float(np.add.reduce(model.wstar(values)))


def _e_grad_at(geometry, epsilon, model) -> np.ndarray:
    values, d, dif = geometry
    scaled = (epsilon**2 / d) * dif
    g = model.wstar_prime(values)
    g *= d
    g[:-1] -= scaled
    g[1:] += scaled
    return g


def _e_hessian_at(geometry, epsilon, model):
    """E's Hessian (epsilon^2 / d) * L + d * diag(W*''(H)), L the path
    Laplacian: its diagonal and its one off-diagonal value."""
    values, d, _ = geometry
    k = epsilon**2 / d
    diag = model.wstar_second(values) * d
    diag[1:-1] += 2.0 * k
    diag[[0, -1]] += k
    return diag, -k


def _v_geometry(values, lam):
    """E's cell geometry of the slopes H_j = (h_{j+1} - h_j) / d and the
    misfit at the cell midpoints: what the V energy and gradient share."""
    n = values.size - 1
    d = lam / n
    left, right = values[:-1], values[1:]
    slopes = right - left
    slopes /= d
    # midpoints - (lam * 0.5) * (left + right), in place
    misfit = left + right
    misfit *= lam * 0.5
    np.subtract(_midpoints(lam, n), misfit, out=misfit)
    return (slopes, d, slopes[1:] - slopes[:-1]), misfit


def _v_energy_at(geometry, epsilon, mu, model) -> float:
    cells, misfit = geometry
    slopes, d, _ = cells
    # Stiffness k = epsilon * mu keeps the misfit term at unit order
    # after rescaling by 1/epsilon.
    foundation = d * 0.5 * epsilon * mu * float((slopes * misfit).dot(misfit))
    return _e_energy_at(cells, epsilon, model) + foundation


def _v_grad_at(geometry, lam, epsilon, mu, model) -> np.ndarray:
    cells, misfit = geometry
    slopes, d, _ = cells
    k = epsilon * mu
    # H_j = (h_{j+1} - h_j) / d puts a derivative in H_j, divided by d, on
    # node j + 1 and its negative on node j; the misfit reads the midpoint
    # value (h_j + h_{j+1}) / 2, so both nodes get half of its derivative.
    # In place, and rounded as by_slope = e / d + (0.5 * k) * misfit**2,
    # by_value = ((-0.5 * d * k * lam) * slopes) * misfit, g = 0,
    # g[1:] = by_slope + by_value and g[:-1] += by_value - by_slope.
    by_slope = _e_grad_at(cells, epsilon, model)
    by_slope /= d
    square = misfit**2
    square *= 0.5 * k
    by_slope += square
    by_value = -0.5 * d * k * lam * slopes
    by_value *= misfit
    g = np.empty(slopes.size + 1)
    g[0] = 0.0
    np.add(by_slope, by_value, out=g[1:])
    by_value -= by_slope
    g[:-1] += by_value
    return g


def project_H(values: Sequence[float], lam: float) -> CellField:
    """Euclidean projection of N cell values onto the simplex
    {H >= 0, d * sum(H) = 1}, d = lam / N.

    The projection is max(0, raw - tau).  Michelot's iteration (J. Optim.
    Theory Appl. 50, 1986) starts with every cell active and repeats:
    tau = (sum_A raw - 1/d) / |A| puts the sum over the active set A on
    1/d, and A drops the cells with raw <= tau.  tau never decreases, so A
    only shrinks, and in exact arithmetic it never empties, since its
    terms sum to 1/d > 0; the loop ends within N passes at a point that
    meets the optimality conditions, with d * sum(H) = 1 to machine
    accuracy.  A domain length or a value count that ``DiscreteField``
    rejects raises its ValueError first, and so does a NaN or +inf value,
    or a sum of values or a 1/d that overflows; a -inf value projects to
    0.  The result is a new array, never a view of ``values``.
    """
    raw = np.asarray(values, dtype=float)
    _check_grid(lam, raw)
    target = raw.size / lam  # 1/d, the sum of H
    r = raw
    while True:
        tau = (r.sum() - target) / r.size
        keep = r > tau
        if keep.all():
            if tau == -math.inf:  # a sum of finite values, or 1/d, overflowed
                raise ValueError("field values must be finite")
            h = raw - tau
            return CellField._adopt(lam, np.maximum(0.0, h, out=h))
        if not keep.any():
            # A NaN or +inf makes the first tau NaN or +inf, so no cell
            # stays, as does a finite sum that overflows; an infinite 1/d
            # would share +inf.  (A -inf cell drops out of an earlier pass, to 0.)
            if not (np.isfinite(r).all() and target < math.inf):
                raise ValueError("field values must be finite")
            # Rounding drops every cell once a spike exceeds about 2^53 / d.
            # The last active set, the cells at or above its least value,
            # agrees to rounding, so its cells share the mass 1/d equally.
            return CellField._adopt(lam, np.where(raw >= r.min(), target / r.size, 0.0))
        r = r[keep]


def isotonic_regression(y: Sequence[float]) -> np.ndarray:
    """Least-squares fit of a 1-d array under a nondecreasing constraint
    (PAV); an array of any other dimension raises ValueError.

    Pool-adjacent-violators pushes one element at a time and pools the
    top block into the one below while the lower mean is the larger.
    This loop visits only the stretches that pool: it starts at each drop
    y[k] > y[k + 1] not yet pooled, keeps one block open, pools it back
    into the elements and closed blocks below and absorbs the elements
    after it while they lie below its mean.  Every other element is its
    own fit and keeps its input value.  The merges are the one-at-a-time
    loop's, (M * C + m * c) / (C + c) with the lower block first, in the
    same order, so the result is bitwise that loop's.

    The loop reads plain Python floats, one at a time, through a
    memoryview of its own copy of ``y``, which it overwrites with the fit.
    """
    out = np.array(y, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"isotonic regression needs a 1-d array, got {out.ndim} dimensions")
    # A block's weight is its size, as a float.  Closed blocks stack left
    # to right as (start, mean, weight, end); below_end is where the top one ends.
    ys = memoryview(out)
    closed = []
    below_end = 0
    for k in (out[:-1] > out[1:]).nonzero()[0].tolist():
        if k < below_end:
            continue  # inside a pooled block, or the drop a block closed at
        s, m, c = k + 1, ys[k + 1], 1.0
        while True:
            # Pool back: unpooled elements come straight from the input.
            # pm ends as the mean below the open block.
            while s:
                below = s == below_end
                ps, pm, pc, _ = closed[-1] if below else (s - 1, ys[s - 1], 1.0, s)
                if not pm > m:
                    break
                if below:
                    closed.pop()
                    below_end = closed[-1][3] if closed else 0
                m = (pm * pc + m * c) / (pc + c)
                c += pc
                s = ps
            else:
                pm = -math.inf
            # Absorb forward (y * 1 is y, so that merge needs no product)
            # until the block closes or its mean falls below pm.
            for v in ys[s + int(c):]:
                if not m > v:
                    break
                m = (m * c + v) / (c := c + 1.0)  # the product reads the old c
                if pm > m:
                    break
            if not pm > m:
                break
        below_end = s + int(c)
        closed.append((s, m, c, below_end))
    for s, m, _, end in closed:
        out[s:end] = m
    return out


def project_h(values: Sequence[float], lam: float) -> DiscreteField:
    """Projection onto {nondecreasing, h(0) = 0, h(lam) = 1}.

    With both ends fixed, the projection is the interior's isotonic fit
    clipped to [0, 1].  It is the limit of PAV over all nodes with end
    weights growing without bound: an interior block pooled into a fixed
    end takes that end's value, and clipping gives every block that would
    have pooled into it the same value.  The end values are replaced.  As
    in ``project_H``, a bad domain length or value count, or a NaN or +inf
    anywhere, the ends included, raises ``DiscreteField``'s ValueError, and
    a -inf projects to 0.  The result is a new array, never a view of ``values``.
    """
    raw = np.asarray(values, dtype=float)
    _check_grid(lam, raw)
    fit = isotonic_regression(raw[1:-1])
    # The ends are not read into the fit, where a NaN or +inf, given or from
    # a pooled sum that overflows, stays and is the max; the clip hides a +inf.
    if not (raw[0] < math.inf and raw[-1] < math.inf and fit.max() < math.inf):
        raise ValueError("field values must be finite")
    out = np.empty(raw.size)
    out[0], out[-1] = 0.0, 1.0
    # np.clip(fit, 0.0, 1.0) in two cheaper calls; maximum(0.0, fit), in
    # this order, keeps a -0.0 of the fit as the clip does.
    inner = out[1:-1]
    np.maximum(0.0, fit, out=inner)
    np.minimum(inner, 1.0, out=inner)
    return DiscreteField._adopt(lam, out)


def transition_count_values(values: np.ndarray) -> int:
    """Crossings of the level 1/2, the midpoint between the wells."""
    above = np.asarray(values) > 0.5
    return int(np.sum(above[1:] != above[:-1]))


def transition_count_slopes(h_field: DiscreteField) -> int:
    return transition_count_values(h_field.slopes())


def phi_interpolator(model: MaterialModel, s_max: float = 3.0):
    """Antiderivative of sqrt(2*wstar) on [0, s_max] as a vectorized map."""
    if not 0.0 < s_max < np.inf:
        raise ValueError(f"s_max must be positive and finite, got {s_max!r}")
    grid = np.linspace(0.0, s_max, 8193)
    f = np.sqrt(np.maximum(2.0 * model.wstar(grid), 0.0))
    phi = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))))
    return lambda s: np.interp(np.asarray(s, dtype=float), grid, phi)


def _phi_variation(values: np.ndarray, model: MaterialModel) -> float:
    phi = phi_interpolator(model, s_max=float(np.max(values)) + 1.0)
    return float(np.sum(np.abs(np.diff(phi(values)))))


def mm_lower_bound_H(h_field: DiscreteField, model: MaterialModel) -> float:
    """Total variation of phi(H): the equipartition bound on the rescaled energy."""
    return _phi_variation(h_field.values, model)


def mm_lower_bound_slopes(h_field: DiscreteField, model: MaterialModel) -> float:
    return _phi_variation(h_field.slopes(), model)


def transition_profile(model: MaterialModel, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Heteroclinic well-to-well profile of the rescaled interfacial energy.

    Integrates epsilon * q' = sqrt(2 * wstar(q)) from q = delta = 1e-4
    to q = 1 - delta by quadrature of the separated form, on 4001 nodes
    graded toward the wells where the slope degenerates.  Returns
    (offsets, q) with the offset origin at q = 1/2, padded so
    interpolation clamps to exactly 0 and 1 outside the truncated core.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    delta, samples = 1e-4, 4001
    u = np.linspace(0.0, 1.0, samples)
    q = delta + (1.0 - 2.0 * delta) * (3.0 * u**2 - 2.0 * u**3)
    dq = (1.0 - 2.0 * delta) * 6.0 * u * (1.0 - u)
    integrand = dq / np.sqrt(np.maximum(2.0 * model.wstar(q), 1e-300))
    t = np.concatenate(([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) / (samples - 1))))
    offsets = epsilon * (t - np.interp(0.5, q, t))
    pad = max(epsilon, offsets[-1] - offsets[0])
    offsets = np.concatenate(([offsets[0] - pad], offsets, [offsets[-1] + pad]))
    q = np.concatenate(([0.0], q, [1.0]))
    return offsets, q


def _mollify_step_values(
    pc: PiecewiseConstantField,
    epsilon: float,
    model: MaterialModel,
    points: np.ndarray,
) -> np.ndarray:
    out = np.asarray(pc.value_at(points), dtype=float).copy()
    jumps = pc.jumps()
    if not jumps:
        return out
    offsets, q = transition_profile(model, epsilon)
    reach = max(-offsets[1], offsets[-2])
    centers = [b for b, _, _ in jumps]
    for i, (b, left, right) in enumerate(jumps):
        lo = b - reach if i == 0 else max(b - reach, 0.5 * (centers[i - 1] + b))
        hi = b + reach if i + 1 == len(centers) else min(b + reach, 0.5 * (b + centers[i + 1]))
        mask = (points >= lo) & (points <= hi)
        local = points[mask] - b
        if right > left:  # rising through the profile
            out[mask] = left + (right - left) * np.interp(local, offsets, q)
        else:
            out[mask] = right + (left - right) * np.interp(-local, offsets, q)
    return out


def mollify_sharp_candidate(
    sharp_field: PiecewiseConstantField | PiecewiseLinearField,
    epsilon: float,
    model: MaterialModel,
    grid_n: int,
) -> DiscreteField:
    """Smooth a sharp candidate into a discrete near-minimizer.

    Each jump of a step field, or slope step of an inverse deformation,
    as ``sharp`` finds them, is replaced by the heteroclinic profile at
    the cell midpoints, a ``CellField`` for a step field.  A smoothed
    slope is integrated up to nodes and rescaled so the ends survive.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    lam = sharp_field.domain_length
    mids = _midpoints(lam, grid_n)
    if isinstance(sharp_field, PiecewiseConstantField):
        return CellField(lam, _mollify_step_values(sharp_field, epsilon, model, mids))

    smooth = _mollify_step_values(sharp_field.slope_steps(), epsilon, model, mids)
    h = np.concatenate(([0.0], np.cumsum(smooth) * (lam / grid_n)))
    h /= h[-1]
    h[0] = 0.0
    return DiscreteField(lam, h)


def _smooth_noise(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Random bump of six low sine modes at the points t, zero at 0 and 1.

    Smoothness keeps the second-difference energy of perturbed starts
    moderate, so descent is not spent grinding down kink curvature.
    """
    out = np.zeros(t.size)
    for k in range(1, 7):
        out += (rng.standard_normal() / k) * np.sin(k * np.pi * t)
    peak = float(np.max(np.abs(out)))
    return out / peak if peak > 0.0 else out


def _sharp_neighbours(model, settings: SolveSettings):
    """Both variants for the predicted crack count and its neighbours."""
    lam, mu = settings.lam, settings.mu
    cw = c_wstar(model)
    n_star = crack_count(cw, mu, lam)
    return [
        (f"mollified-{variant}{nn}", build_sharp_minimizer(nn, lam, variant, cw, mu).field)
        for nn in sorted({max(1, n_star - 1), n_star, n_star + 1})
        for variant in ("A", "B")
    ]


def _start_battery(
    kind: _Functional, model, settings: SolveSettings
) -> list[tuple[str, np.ndarray]]:
    """The homogeneous state (the zero-noise start), mollified sharp
    candidates of a stretched bar (lambda > 1, as in ``sharp``), then
    seeded random perturbations, where the functional's values sit."""
    lam, n = settings.lam, settings.grid_n
    t = kind.field.grid_points(1.0, n)
    starts = [("homogeneous", kind.start(lam, np.zeros(t.size)))]
    if lam > 1.0:
        for label, sharp in kind.sharp_candidates(model, settings):
            cand = mollify_sharp_candidate(sharp, settings.epsilon, model, n)
            starts.append((label, cand.values))
    rng = np.random.default_rng(settings.seed)
    for i in range(settings.multistart):
        starts.append((f"random-{i}", kind.start(lam, _smooth_noise(rng, t))))
    return starts


# Stationarity tolerance: a descent converges once
# ||x - P(x - g)|| <= GTOL * (1 + ||g||).  Sweep metadata records it.
GTOL = 1e-8

# Step-length bounds and line-search constants of the descent.
_STEP_INIT = 1.0
_STEP_MIN = 1e-14
_STEP_MAX = 1e6
_ARMIJO = 1e-4
_BACKTRACK = 0.5


# After this many first-order iterations a descent whose functional has a
# tridiagonal Hessian (E) takes projected Newton steps until it ends.  It
# ends unconverged, a stall, when residual/tol has not halved over a
# window of Newton steps.  The first-order iterations pick the basin: over
# 192 E rows a prefix of 40 kept every certified minimum, 30 lost two, and
# a window of 25 or 30 stalls criterion 6's epsilon 0.08 row.  A run of
# shifted steps stalls sooner, when it has not halved residual/tol.
_NEWTON_AFTER = 50
_NEWTON_WINDOW = 50
_SHIFTED_WINDOW = 15


def _descend(
    x0: np.ndarray, kind: _Functional, settings: SolveSettings, model: MaterialModel
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Projected descent on ``kind`` from x0: Barzilai-Borwein steps, and
    for E projected Newton steps (Bertsekas, SIAM J. Control Optim. 20,
    1982) once it has run ``_NEWTON_AFTER`` first-order iterations.  Each
    energy evaluation builds its point's geometry, and the gradient at an
    accepted point reads that geometry, so no gradient builds one.

    The Barzilai-Borwein step s.s / s.y reads its pair s = x - x_prev,
    y = g - g_prev from the accepted trial's back = x_prev - x: IEEE
    subtraction and dot products are sign-symmetric, so s is -back to the
    bit, s.y is -(back.y), and s.s is back.back, which is first.first, the
    squared residual, when the first trial is accepted.

    Both kinds of iteration share the stationarity test, the cap, the
    accept-and-update step and ``history``.  A Newton iteration tests with
    the unit step, then steps along the projected arc P(x + t delta) from
    ``_newton_direction``, backtracking from t = 1 until the Armijo test
    f <= fx + _ARMIJO * t * slope holds, so the energy never rises.  The
    descent has six exits:

    - gtol: the stationarity test holds (converged);
    - cap: ``settings.max_iterations`` iterations, both kinds together;
    - no step: backtracking finds no step of sufficient decrease;
    - no direction: no diagonal shift gives a Newton descent direction;
    - window stall: residual/tol has not halved over ``_NEWTON_WINDOW``
      Newton iterations;
    - shifted stall: it has not halved over the last ``_SHIFTED_WINDOW``
      Newton iterations, each of whose directions needed a shift (a slide
      along a soft mode, two or more solves a step).

    An iteration counts when it certifies or steps, and a first-order one
    also when its line search fails; a Newton iteration that stalls or
    finds no direction or step is not spent."""
    lam = settings.lam
    x = kind.project(np.asarray(x0, dtype=float), lam)
    # epsilon^2 / d scales the differences and W*(1/lambda) sets the homogeneous
    # energy: near their bounds they overflow, and an infinite ||g|| would
    # pass the stationarity test at once.
    with np.errstate(over="ignore", invalid="ignore"):
        geometry = kind.geometry(x, lam)
        fx = kind.energy_at(geometry, settings, model)
        gx = kind.gradient_at(geometry, settings, model)
        if not (np.isfinite(fx) and np.isfinite(np.linalg.norm(gx))):
            raise ValueError(
                f"lambda {lam!r} and epsilon {settings.epsilon!r} make the energy or "
                f"gradient of a start on {settings.grid_n} cells overflow"
            )
    history = [fx]
    prev = None  # the last accepted step's back, back . back and gradient
    step = _STEP_INIT
    converged = False
    iterations = 0
    mark = math.inf
    run = []  # residual/tol before each direction of the last run of shifted ones
    while iterations < settings.max_iterations:
        newton = kind.hessian_at is not None and iterations >= _NEWTON_AFTER
        if newton:
            step = 1.0
        elif prev is not None:
            back_prev, ss, g_prev = prev
            sy = -float(back_prev.dot(gx - g_prev))
            if sy > 1e-30:
                step = min(max(ss / sy, _STEP_MIN), _STEP_MAX)
            else:
                step = min(2.0 * step, _STEP_MAX)
        xn = kind.project(x - step * gx, lam)
        # Stationarity test ||x - P(x - g)|| <= tol from the first trial
        # alone.  For a projection onto a convex set, r(t) = ||x - P(x - t g)||
        # is nondecreasing in t and r(t) / t nonincreasing (Calamai & More,
        # Math. Program. 39, 1987, Lemma 2.2): r(1) <= r(step) if step >= 1
        # and r(1) <= r(step) / step if step < 1, so ||x - xn|| / min(step, 1)
        # bounds the unit-step residual r(1) from above.  The norms are
        # np.linalg.norm's arithmetic for a 1-d float array.  The bound holds
        # in exact arithmetic only: with a tiny step, x - step * g rounds
        # back to x and r(step) reads 0.  So a pass with step < 1 is
        # confirmed once with the unit-step residual itself.  A Newton
        # iteration takes step 1, so its first trial is the unit step.
        tol = GTOL * (1.0 + math.sqrt(gx.dot(gx)))
        back = first = x - xn
        ff = float(first.dot(first))
        residual = math.sqrt(ff)
        if residual / min(step, 1.0) <= tol:
            unit = first if step >= 1.0 else x - kind.project(x - gx, lam)
            if math.sqrt(unit.dot(unit)) <= tol:
                iterations += 1
                converged = True
                break
        if newton:
            ratio = residual / tol
            if (iterations - _NEWTON_AFTER) % _NEWTON_WINDOW == 0:
                if ratio > 0.5 * mark:
                    break
                mark = ratio
            if len(run) >= _SHIFTED_WINDOW and ratio > 0.5 * run[-_SHIFTED_WINDOW]:
                break
            delta, slope, shifted = _newton_direction(x, gx, geometry, kind, settings, model)
            if delta is None:
                break
            if shifted:
                run.append(ratio)
            else:
                run.clear()
        # Backtrack.  A first-order iteration goes along the projected
        # direction d = P(x - step g) - x (Birgin, Martinez & Raydan, SIAM
        # J. Optim. 10, 2000): x + t d is feasible for t in (0, 1] by
        # convexity, so no trial but the first needs a projection, and d is
        # -first exactly, so x - t * first is x + t * d to the bit.  A
        # Newton iteration projects each trial on its arc; with step 1 its
        # t never falls below _STEP_MIN within the 40 trials.
        t = 1.0
        accepted = False
        for attempt in range(40):
            if newton:
                xn = kind.project(x + t * delta, lam)
                bound = fx + _ARMIJO * t * slope
            else:
                if attempt:
                    xn = x - t * first
                    back = x - xn
                bound = fx - _ARMIJO * float(gx.dot(back))
            geometry = kind.geometry(xn, lam)
            fn = kind.energy_at(geometry, settings, model)
            if fn <= bound:
                accepted = True
                break
            t *= _BACKTRACK
            if step * t < _STEP_MIN:
                break
        if not accepted:
            iterations += not newton
            break  # no admissible descent step left at this precision
        iterations += 1
        prev = back, ff if back is first else float(back.dot(back)), gx
        x, fx = xn, fn
        gx = kind.gradient_at(geometry, settings, model)
        history.append(fx)
    return x, fx, iterations, converged, history


def _newton_direction(x, gx, geometry, kind, settings, model):
    """The projected Newton direction at x, its slope g . delta < 0 and
    whether the diagonal needed a shift, or (None, 0.0, True) when no
    shift gives a finite descent direction.

    nu, the mean gradient over the positive cells, estimates the mass
    multiplier.  The free set F holds the cells with H > 0 or g < nu;
    the others sit at 0 and would leave the simplex by growing.  On F the
    step solves the Hessian restricted to F, a tridiagonal matrix whose
    off-diagonal is 0 where F has a gap, for g_F and for 1 in one
    ``_tridiagonal_solve``; delta = -a + (sum a / sum b) b then keeps the
    mass.  The fixed cells take the diagonally scaled gradient step
    (nu - g) / Hii <= 0, which the projection takes back to 0.  Where the
    step is not a finite descent direction (W*'' < 0 inside an interface
    can make the restricted Hessian indefinite), the diagonal is shifted
    by 4d, four times more at each retry."""
    pos = x > 0.0
    nu = gx[pos].mean()
    free = pos | (gx < nu)
    diag, off = kind.hessian_at(geometry, settings, model)
    links = np.where(free[1:] & free[:-1], off, 0.0)
    rhs = np.stack((np.where(free, gx, 0.0), free.astype(float)))
    shift = 0.0
    for _ in range(40):
        with np.errstate(all="ignore"):
            shifted = diag + shift
            a, b = _tridiagonal_solve(links, np.where(free, shifted, 1.0), rhs)
            delta = b * (a.sum() / b.sum()) - a
            slope = float(gx @ delta)
            delta = np.where(free, delta, (nu - gx) / shifted)
        if slope < 0.0 and np.isfinite(delta).all():
            return delta, slope, shift > 0.0
        shift = 4.0 * shift if shift else 4.0 * settings.lam / x.size
    return None, 0.0, True


def _tridiagonal_solve(off: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve T x = r for each row r of ``rhs`` (k rows of n values), T the
    symmetric tridiagonal matrix with diagonal ``diag`` (n values) and
    off-diagonal ``off`` (n - 1 values), by cyclic reduction.

    The system is padded with identity rows to 2^m - 1 rows.  Each level
    eliminates the even rows from the odd ones, which keeps the matrix
    symmetric and halves it in a few whole-array operations; back
    substitution then recovers the even rows level by level.  So a solve
    costs O(log n) numpy calls, not the O(n) Python steps of the Thomas
    algorithm.  There is no pivoting: T should be positive definite or
    diagonally dominant, and a zero pivot gives values that are not
    finite, which the caller checks."""
    n = diag.size
    size = (1 << n.bit_length()) - 1
    b = np.ones(size)
    b[:n] = diag
    e = np.zeros(size + 1)  # e[i] couples rows i - 1 and i
    e[1:n] = off
    d = np.zeros((rhs.shape[0], size))
    d[:, :n] = rhs
    levels = []
    while b.size > 1:
        inv = 1.0 / b[::2]
        left, right = e[::2] * inv, e[1::2] * inv
        levels.append((inv, left, right, d[:, ::2]))
        b = b[1::2] - e[1:-1:2] * right[:-1] - e[2::2] * left[1:]
        d = d[:, 1::2] - right[:-1] * d[:, :-1:2] - left[1:] * d[:, 2::2]
        e = -e[::2] * right
    x = d / b
    for inv, left, right, even in reversed(levels):
        full = np.empty((x.shape[0], 2 * x.shape[1] + 1))
        full[:, 1::2] = x
        full[:, ::2] = even * inv
        full[:, 2::2] -= left[1:] * x
        full[:, :-2:2] -= right[:-1] * x
        x = full
    return x[:, :n]


class _Functional(NamedTuple):
    """What the solver needs to know about one regularized functional."""

    geometry: Callable  # (values, lam) -> what the energy and gradient share
    energy_at: Callable  # (geometry, settings, model) -> float
    gradient_at: Callable  # (geometry, settings, model) -> gradient
    project: Callable  # (values, lam) -> feasible values
    start: Callable  # (lam, noise) -> homogeneous state perturbed by noise
    field: type  # the class of the minimizer, where its values sit
    sharp_candidates: Callable  # (model, settings) -> [(label, sharp field)]
    transitions: Callable  # DiscreteField -> transition count
    # (geometry, settings, model) -> (diagonal, off-diagonal) of a
    # tridiagonal Hessian, for the Newton phase; None keeps the descent
    # first-order.
    hessian_at: Callable | None


# Projections are looked up when called, so they can be replaced at
# their module-level names.
_FUNCTIONALS = {
    "E": _Functional(
        geometry=_e_geometry,
        energy_at=lambda geo, s, model: _e_energy_at(geo, s.epsilon, model),
        gradient_at=lambda geo, s, model: _e_grad_at(geo, s.epsilon, model),
        project=lambda v, lam: project_H(v, lam).values,
        start=lambda lam, noise: (1.0 / lam) * (1.0 + 0.6 * noise),
        field=CellField,
        sharp_candidates=lambda model, s: [
            ("mollified-endA", PiecewiseConstantField(s.lam, (1.0,), (1.0, 0.0))),
            ("mollified-endB", PiecewiseConstantField(s.lam, (s.lam - 1.0,), (0.0, 1.0))),
        ],
        transitions=lambda f: transition_count_values(f.values),
        hessian_at=lambda geo, s, model: _e_hessian_at(geo, s.epsilon, model),
    ),
    "V": _Functional(
        geometry=_v_geometry,
        energy_at=lambda geo, s, model: _v_energy_at(geo, s.epsilon, s.mu, model),
        gradient_at=lambda geo, s, model: _v_grad_at(geo, s.lam, s.epsilon, s.mu, model),
        project=lambda v, lam: project_h(v, lam).values,
        start=lambda lam, noise: np.linspace(0.0, 1.0, noise.size) + 0.25 * noise,
        field=DiscreteField,
        sharp_candidates=_sharp_neighbours,
        transitions=transition_count_slopes,
        hessian_at=None,
    ),
}


def minimize(
    functional: str,
    model: MaterialModel,
    rows: Sequence[SolveSettings],
    warm: np.ndarray | None = None,
) -> list[SolveResult]:
    """Best-of-multistart projected descent on E or V, one result per row
    of ``rows``: a single solve is one row, and an epsilon sweep is one row
    per epsilon, largest first.

    Each row's battery holds the homogeneous state, mollified sharp
    candidates for crack counts around the predicted one, and seeded
    random perturbations.  Each row after the first adds, last, the start
    labelled "continuation": the minimizer of the row before it, so every
    row must solve on the grid of the first, and it can descend only once
    that row is done.  ``warm``, the values of an earlier solve on that
    grid, is the first row's continuation.  A row's winner is its least
    energy, the earlier start in battery order on a tie, so the results
    are the same bits on any CPU count.  Results never raise on
    non-convergence; check the ``converged`` flag.

    The caller keeps the starts of all rows in one queue and hands out the
    next one whenever a descent is free to run: a ready continuation
    first, else the next battery start in row order.  When two or more
    starts can run at once, it forks one worker per CPU of the affinity
    mask, at most one per start, and only schedules.  A worker descends
    each task it receives, ``(row, start, continuation values or None)``,
    sends back the descent or its ValueError, and stops on None; floats
    pickle exactly.  The batteries reach the workers through fork,
    unpickled, since the functional's kernels and a model's densities may
    be closures.  Forking a process that runs other threads is unsafe, so
    then, with one CPU, or without fork, the caller descends every start
    itself.  Any other exception ends its worker, and a worker that dies
    before its last result makes the call raise RuntimeError as soon as
    the caller finds its pipe closed.  No worker outlives the call.

    An epsilon so large that a start's energy or gradient overflows, or so
    small that the rescaled energy does, raises ValueError, as a loop over
    the rows would: the earliest failing row's error.  A start's overflow
    keeps the rows after its own from starting.
    """
    kind = _FUNCTIONALS.get(functional.upper())
    if kind is None:
        raise ValueError("functional must be 'E' or 'V'")
    batteries = [_start_battery(kind, model, settings) for settings in rows]
    if not batteries:
        return []
    shape = batteries[0][0][1].shape  # the homogeneous state's
    if any(battery[0][1].shape != shape for battery in batteries):
        raise ValueError("every row must solve on the grid of the first")
    if warm is not None:
        if np.shape(warm) != shape:
            raise ValueError(f"a warm start needs {shape[0]} values")
        batteries[0].append(("continuation", np.asarray(warm, float)))

    order = [(r, i) for r, battery in enumerate(batteries) for i in range(len(battery))]
    n_rows = len(batteries)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(order) + n_rows - 1)
    fork = None
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")

    left = [len(battery) + (r > 0) for r, battery in enumerate(batteries)]
    best = [None] * n_rows  # each row's (energy, start, descent) so far
    errors = {}  # row -> (start, ValueError), its earliest start that raised
    queue = iter(order)
    ready = None  # the row whose continuation can start
    stop = n_rows  # the first row not to start

    def take():
        nonlocal ready
        if ready is not None:
            r, ready = ready, None
            return r, len(batteries[r]), best[r - 1][2][0]
        r, i = next(queue, (n_rows, 0))
        return (r, i, None) if r < stop else None

    def finish(r, i, outcome):
        nonlocal ready, stop
        left[r] -= 1
        if isinstance(outcome, ValueError):
            stop = min(stop, r + 1)
            if r not in errors or i < errors[r][0]:
                errors[r] = i, outcome
        elif best[r] is None or (outcome[1], i) < best[r][:2]:
            best[r] = outcome[1], i, outcome
        if left[r] == 0 and r + 1 < stop:
            ready = r + 1

    def descend(r, i, x0):
        try:
            return _descend(batteries[r][i][1] if x0 is None else x0, kind, rows[r], model)
        except ValueError as exc:  # an epsilon that overflows the start
            return exc

    if fork is None:
        while (task := take()) is not None:
            finish(*task[:2], descend(*task))
    else:
        from multiprocessing.connection import wait

        def serve(conn):
            for task in iter(conn.recv, None):
                conn.send(descend(*task))

        procs, busy = {}, {}

        def died(conn):
            procs[conn].join()
            return RuntimeError(f"a descent worker died with exit code {procs[conn].exitcode}")

        try:
            for _ in range(workers):
                conn, theirs = fork.Pipe()
                proc = fork.Process(target=serve, args=(theirs,), daemon=True)
                proc.start()
                # Only the worker holds its end, so the pipe closes when it dies.
                theirs.close()
                procs[conn] = proc
            idle = list(procs)
            while True:
                while idle and (task := take()) is not None:
                    conn = idle.pop()
                    busy[conn] = task[:2]
                    try:
                        conn.send(task)
                    except OSError:  # a worker that died idle
                        raise died(conn) from None
                if not busy:
                    break
                for conn in wait(list(busy)):
                    try:
                        outcome = conn.recv()
                    except (EOFError, OSError):  # a reset if it died with the task unread
                        raise died(conn) from None
                    finish(*busy.pop(conn), outcome)
                    idle.append(conn)
        finally:
            # Workers forked later hold the caller's ends of earlier pipes,
            # so an idle worker is told to stop rather than left to see EOF.
            for conn, proc in procs.items():
                if conn in busy:
                    proc.terminate()
                    continue
                try:
                    conn.send(None)
                except OSError:  # it died idle, after its last result
                    pass
            for conn, proc in procs.items():
                proc.join()
                conn.close()

    results = []
    for r, (settings, battery) in enumerate(zip(rows, batteries)):
        if r in errors:
            raise errors[r][1]
        _, i, (x, fx, iterations, converged, history) = best[r]
        with np.errstate(over="ignore"):
            rescaled = fx / settings.epsilon
        if not np.isfinite(rescaled):
            raise ValueError(
                f"epsilon {settings.epsilon!r} makes the rescaled energy "
                f"{float(fx)!r} / epsilon overflow"
            )
        out = kind.field(settings.lam, x)
        results.append(
            SolveResult(
                minimizer=out,
                energy=fx,
                rescaled_energy=rescaled,
                iterations=iterations,
                transition_count=kind.transitions(out),
                converged=converged,
                start_label=battery[i][0] if i < len(battery) else "continuation",
                energy_history=history,
            )
        )
    return results
