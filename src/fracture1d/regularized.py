"""Discrete minimization of the gradient-regularized energies.

Fields live on a uniform node grid.  Both functionals are minimized by
projected gradient descent with Barzilai-Borwein steps safeguarded by
backtracking; feasibility is maintained by exact projections (weighted
clipped-affine shift for the mass constraint, pool-adjacent-violators
for monotonicity), so energies are meaningful at every iterate.

The foundation-coupled energy is the unrescaled one with interaction
stiffness k = epsilon * mu; dividing by epsilon gives the quantity that
approaches the sharp-interface value as epsilon shrinks, and solve
results report both.
"""

from __future__ import annotations

import warnings
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
    "SolveSettings",
    "SolveResult",
    "Infeasible",
    "OverlapWarning",
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


class Infeasible(ValueError):
    """The requested projection target set is empty."""


class OverlapWarning(UserWarning):
    """Adjacent transition profiles were truncated against each other."""


@dataclass
class DiscreteField:
    """Node values on the uniform grid y_j = j * domain_length / N."""

    domain_length: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.domain_length <= 0.0:
            raise ValueError("domain length must be positive")
        if self.values.ndim != 1 or self.values.size < 3:
            raise ValueError("need at least three node values")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("node values must be finite")

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.domain_length, self.values.size)

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.spacing


@dataclass
class SolveSettings:
    """One solve: the load ``lam``, the regularization ``epsilon``, the
    foundation stiffness ``mu`` (V only), the number of grid cells, the
    iteration cap and stationarity tolerance of each descent, and the
    count and seed of the random starts.  The grid must resolve the
    transition width; the line-search constants are fixed in ``_descend``.
    """

    lam: float
    epsilon: float
    mu: float = 0.0
    grid_n: int = 1000
    max_iterations: int = 1500
    gtol: float = 1e-8
    multistart: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if self.grid_n < 16:
            raise ValueError("grid_n must be at least 16")
        if self.gtol <= 0.0:
            raise ValueError("gtol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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
    """Interfacial energy of an inverse-stretch field.

    Midpoint rule for the squared difference quotient, composite
    trapezoid for the well term.
    """
    return _e_energy(h_field.values, h_field.domain_length, epsilon, model)


def grad_E_eps(h_field: DiscreteField, epsilon: float, model: MaterialModel) -> np.ndarray:
    return _e_grad(h_field.values, h_field.domain_length, epsilon, model)


def eval_V_eps(
    h_field: DiscreteField, epsilon: float, mu: float, model: MaterialModel
) -> float:
    """Foundation-coupled energy with stiffness k = epsilon * mu.

    Second differences carry the interfacial part; the well term is
    evaluated at forward-difference slopes; the misfit term is sampled
    at cell midpoints.  Divide by epsilon for the rescaled value.
    """
    return _v_energy(h_field.values, h_field.domain_length, epsilon, mu, model)


def grad_V_eps(
    h_field: DiscreteField, epsilon: float, mu: float, model: MaterialModel
) -> np.ndarray:
    return _v_grad(h_field.values, h_field.domain_length, epsilon, mu, model)


def _trapezoid_weights(n_nodes: int, spacing: float) -> np.ndarray:
    a = np.full(n_nodes, spacing)
    a[0] = a[-1] = 0.5 * spacing
    return a


def _e_energy(values, lam, epsilon, model) -> float:
    d = lam / (values.size - 1)
    dif = np.diff(values)
    grad_term = (epsilon**2 / (2.0 * d)) * float(dif @ dif)
    w = model.wstar(values)
    well_term = d * (float(np.sum(w)) - 0.5 * (w[0] + w[-1]))
    return grad_term + well_term


def _e_grad(values, lam, epsilon, model) -> np.ndarray:
    d = lam / (values.size - 1)
    dif = np.diff(values)
    g = np.zeros_like(values)
    g[:-1] -= (epsilon**2 / d) * dif
    g[1:] += (epsilon**2 / d) * dif
    g += _trapezoid_weights(values.size, d) * model.wstar_prime(values)
    return g


def _v_pieces(values, lam, epsilon, mu, model):
    n = values.size - 1
    d = lam / n
    slopes = np.diff(values) / d
    curv = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / d**2
    bend = 0.5 * epsilon**2 * d * float(curv @ curv)
    well = d * float(np.sum(model.wstar(slopes)))
    # Stiffness k = epsilon * mu keeps the misfit term at unit order
    # after rescaling by 1/epsilon.
    mids_misfit = (np.arange(n) + 0.5) * d - lam * 0.5 * (values[:-1] + values[1:])
    foundation = d * 0.5 * epsilon * mu * float((slopes * mids_misfit) @ mids_misfit)
    return bend, well, foundation, slopes, curv, mids_misfit, d


def _v_energy(values, lam, epsilon, mu, model) -> float:
    bend, well, foundation, *_ = _v_pieces(values, lam, epsilon, mu, model)
    return bend + well + foundation


def _v_grad(values, lam, epsilon, mu, model) -> np.ndarray:
    n = values.size - 1
    _, _, _, slopes, curv, misfit, d = _v_pieces(values, lam, epsilon, mu, model)
    curv_full = np.zeros(n + 1)
    curv_full[1:-1] = curv
    g = -2.0 * curv_full
    g[:-1] += curv_full[1:]
    g[1:] += curv_full[:-1]
    g *= epsilon**2 / d

    wp = model.wstar_prime(slopes)
    g[1:] += wp
    g[:-1] -= wp

    k = epsilon * mu
    by_slope = 0.5 * k * misfit**2
    g[1:] += by_slope
    g[:-1] -= by_slope
    by_value = -0.5 * d * k * lam * slopes * misfit
    g[1:] += by_value
    g[:-1] += by_value
    return g


def project_H(values: Sequence[float], lam: float) -> DiscreteField:
    """Euclidean projection onto {H >= 0, trapezoid integral = 1}.

    The projection has the clipped-affine form max(0, raw - theta * a)
    with a the trapezoid weight vector.  The weighted sum is piecewise
    linear and decreasing in theta, so theta is located by bisection
    over its clipping breakpoints and then solved exactly on the
    resulting active set; the weighted sum lands on 1 to machine
    accuracy, far inside the 1e-12 feasibility budget.
    """
    if lam <= 0.0:
        raise Infeasible("cannot normalize the integral on a nonpositive domain")
    raw = np.asarray(values, dtype=float)
    a = _trapezoid_weights(raw.size, lam / (raw.size - 1))
    breaks = raw / a  # component j clips to zero for theta >= breaks[j]
    order = np.argsort(breaks)
    aw = a[order]
    # Suffix sums give the weighted sum on each breakpoint interval:
    # W(theta) = s1[k] - theta * s2[k] while the active set is order[k:].
    s2 = np.cumsum((aw * aw)[::-1])[::-1]
    s1 = np.cumsum((aw * raw[order])[::-1])[::-1]
    tb = breaks[order]
    at_breaks = s1 - tb * s2  # W evaluated at each breakpoint, decreasing
    k = int(np.searchsorted(-at_breaks, -1.0))
    theta = (s1[k] - 1.0) / s2[k]
    return DiscreteField(lam, np.maximum(0.0, raw - theta * a))


def isotonic_regression(y: Sequence[float], weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted least-squares fit under a nondecreasing constraint (PAV)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    # Stack of pooled blocks on plain floats; numpy scalars are too slow here.
    ylist = y.tolist()
    wlist = w.tolist()
    means = [0.0] * n
    wsums = [0.0] * n
    counts = [0] * n
    top = -1
    for i in range(n):
        top += 1
        means[top] = ylist[i]
        wsums[top] = wlist[i]
        counts[top] = 1
        while top > 0 and means[top - 1] > means[top]:
            total = wsums[top - 1] + wsums[top]
            means[top - 1] = (
                means[top - 1] * wsums[top - 1] + means[top] * wsums[top]
            ) / total
            wsums[top - 1] = total
            counts[top - 1] += counts[top]
            top -= 1
    return np.repeat(means[: top + 1], counts[: top + 1])


def project_h(values: Sequence[float], lam: float) -> DiscreteField:
    """Projection onto {nondecreasing, h(0) = 0, h(lam) = 1}.

    PAV with dominating endpoint weights pins the boundary values; the
    exact reset plus a clip to [0, 1] removes the residual of the
    finite pinning weight.
    """
    raw = np.asarray(values, dtype=float).copy()
    raw[0], raw[-1] = 0.0, 1.0
    if np.all(np.diff(raw) >= 0.0):
        out = np.clip(raw, 0.0, 1.0)  # already monotone: pin and clamp only
    else:
        w = np.ones_like(raw)
        w[0] = w[-1] = 1e12
        out = np.clip(isotonic_regression(raw, w), 0.0, 1.0)
        out[0], out[-1] = 0.0, 1.0
    return DiscreteField(lam, out)


def transition_count_values(values: np.ndarray) -> int:
    """Crossings of the level 1/2, the midpoint between the wells."""
    above = np.asarray(values) > 0.5
    return int(np.sum(above[1:] != above[:-1]))


def transition_count_slopes(h_field: DiscreteField) -> int:
    return transition_count_values(h_field.slopes())


def phi_interpolator(model: MaterialModel, s_max: float = 3.0, samples: int = 8193):
    """Antiderivative of sqrt(2*wstar) on [0, s_max] as a vectorized map."""
    grid = np.linspace(0.0, s_max, samples)
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


def transition_profile(
    model: MaterialModel, epsilon: float, delta: float = 1e-4, samples: int = 4001
) -> tuple[np.ndarray, np.ndarray]:
    """Heteroclinic well-to-well profile of the rescaled interfacial energy.

    Integrates epsilon * q' = sqrt(2 * wstar(q)) from q = delta to
    q = 1 - delta by quadrature of the separated form, on a grid graded
    toward the wells where the slope degenerates.  Returns (offsets, q)
    with the offset origin at q = 1/2, padded so interpolation clamps to
    exactly 0 and 1 outside the truncated core.
    """
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


def _jump_positions(pc: PiecewiseConstantField) -> list[tuple[float, float, float]]:
    out = []
    for i, b in enumerate(pc.breakpoints):
        left, right = pc.values[i], pc.values[i + 1]
        if abs(right - left) > 1e-12:
            out.append((b, left, right))
    return out


def _mollify_step_values(
    pc: PiecewiseConstantField,
    epsilon: float,
    model: MaterialModel,
    points: np.ndarray,
) -> np.ndarray:
    out = np.asarray(pc.value_at(points), dtype=float).copy()
    jumps = _jump_positions(pc)
    if not jumps:
        return out
    offsets, q = transition_profile(model, epsilon)
    reach = max(-offsets[1], offsets[-2])
    centers = [b for b, _, _ in jumps]
    for i, (b, left, right) in enumerate(jumps):
        if i + 1 < len(centers) and centers[i + 1] - b < 10.0 * epsilon:
            warnings.warn(
                f"transitions at y={b:g} and y={centers[i + 1]:g} are closer "
                f"than 10*epsilon; profiles truncated",
                OverlapWarning,
                stacklevel=3,
            )
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

    Each well-to-well transition is replaced by the heteroclinic
    profile.  For inverse deformations the smoothed slope is integrated
    back up and rescaled affinely so the endpoint values survive.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    lam = sharp_field.domain_length
    if isinstance(sharp_field, PiecewiseConstantField):
        nodes = np.linspace(0.0, lam, grid_n + 1)
        return DiscreteField(lam, _mollify_step_values(sharp_field, epsilon, model, nodes))

    slopes = sharp_field.slopes()
    knots = sharp_field.knots
    breaks, vals = [], [float(slopes[0])]
    for i in range(1, len(slopes)):
        if abs(slopes[i] - vals[-1]) > 1e-9:
            breaks.append(knots[i])
            vals.append(float(slopes[i]))
    slope_pc = PiecewiseConstantField(lam, tuple(breaks), tuple(vals))
    d = lam / grid_n
    mids = (np.arange(grid_n) + 0.5) * d
    smooth = _mollify_step_values(slope_pc, epsilon, model, mids)
    h = np.concatenate(([0.0], np.cumsum(smooth) * d))
    h /= h[-1]
    h[0] = 0.0
    return DiscreteField(lam, h)


def _smooth_noise(rng: np.random.Generator, n_nodes: int, modes: int = 6) -> np.ndarray:
    """Random low-frequency bump vanishing at both ends.

    Smoothness keeps the second-difference energy of perturbed starts
    moderate, so descent is not spent grinding down kink curvature.
    """
    t = np.linspace(0.0, 1.0, n_nodes)
    out = np.zeros(n_nodes)
    for k in range(1, modes + 1):
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
    candidates of a stretched bar, then seeded random perturbations."""
    lam, n = settings.lam, settings.grid_n
    starts = [("homogeneous", kind.start(lam, np.zeros(n + 1)))]
    if lam > 1.0 + 1e-12:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverlapWarning)
            for label, sharp in kind.sharp_candidates(model, settings):
                cand = mollify_sharp_candidate(sharp, settings.epsilon, model, n)
                starts.append((label, cand.values))
    rng = np.random.default_rng(settings.seed)
    for i in range(settings.multistart):
        starts.append((f"random-{i}", kind.start(lam, _smooth_noise(rng, n + 1))))
    return starts


# Step-length bounds and line-search constants of the descent.
_STEP_INIT = 1.0
_STEP_MIN = 1e-14
_STEP_MAX = 1e6
_ARMIJO = 1e-4
_BACKTRACK = 0.5


def _descend(
    x0: np.ndarray,
    energy: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    proj: Callable[[np.ndarray], np.ndarray],
    settings: SolveSettings,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    x = proj(np.asarray(x0, dtype=float))
    fx = energy(x)
    gx = gradient(x)
    history = [fx]
    x_prev = g_prev = None
    step = _STEP_INIT
    converged = False
    iterations = 0
    stall_window = 30
    for iterations in range(1, settings.max_iterations + 1):
        pg = x - proj(x - gx)
        if float(np.linalg.norm(pg)) <= settings.gtol * (1.0 + float(np.linalg.norm(gx))):
            converged = True
            break
        if x_prev is not None:
            s = x - x_prev
            yv = gx - g_prev
            sy = float(s @ yv)
            if sy > 1e-30:
                step = min(max(float(s @ s) / sy, _STEP_MIN), _STEP_MAX)
            else:
                step = min(2.0 * step, _STEP_MAX)
        trial = step
        accepted = False
        for _ in range(40):
            xn = proj(x - trial * gx)
            fn = energy(xn)
            if fn <= fx - _ARMIJO * float(gx @ (x - xn)):
                accepted = True
                break
            trial *= _BACKTRACK
            if trial < _STEP_MIN:
                break
        if not accepted:
            break  # no admissible descent step left at this precision
        x_prev, g_prev = x, gx
        x, fx = xn, fn
        gx = gradient(x)
        history.append(fx)
        if (
            len(history) > stall_window
            and history[-stall_window - 1] - fx <= 1e-12 * (1.0 + abs(fx))
        ):
            break  # energy has flatlined; the gradient test decides convergence
    return x, fx, iterations, converged, history


class _Functional(NamedTuple):
    """What the solver needs to know about one regularized functional."""

    energy: Callable  # (values, settings, model) -> float
    gradient: Callable  # (values, settings, model) -> node gradient
    project: Callable  # (values, lam) -> feasible values
    start: Callable  # (lam, noise) -> homogeneous state perturbed by noise
    sharp_candidates: Callable  # (model, settings) -> [(label, sharp field)]
    transitions: Callable  # DiscreteField -> transition count


# Projections are looked up when called, so they can be replaced at
# their module-level names.
_FUNCTIONALS = {
    "E": _Functional(
        energy=lambda v, s, model: _e_energy(v, s.lam, s.epsilon, model),
        gradient=lambda v, s, model: _e_grad(v, s.lam, s.epsilon, model),
        project=lambda v, lam: project_H(v, lam).values,
        start=lambda lam, noise: (1.0 / lam) * (1.0 + 0.6 * noise),
        sharp_candidates=lambda model, s: [
            ("mollified-endA", PiecewiseConstantField(s.lam, (1.0,), (1.0, 0.0))),
            ("mollified-endB", PiecewiseConstantField(s.lam, (s.lam - 1.0,), (0.0, 1.0))),
        ],
        transitions=lambda f: transition_count_values(f.values),
    ),
    "V": _Functional(
        energy=lambda v, s, model: _v_energy(v, s.lam, s.epsilon, s.mu, model),
        gradient=lambda v, s, model: _v_grad(v, s.lam, s.epsilon, s.mu, model),
        project=lambda v, lam: project_h(v, lam).values,
        start=lambda lam, noise: np.linspace(0.0, 1.0, noise.size) + 0.25 * noise,
        sharp_candidates=_sharp_neighbours,
        transitions=transition_count_slopes,
    ),
}


def minimize(
    functional: str,
    model: MaterialModel,
    settings: SolveSettings,
    init: DiscreteField | str | None = None,
    extra_inits: Sequence[tuple[str, np.ndarray]] = (),
) -> SolveResult:
    """Best-of-multistart projected gradient descent on E or V.

    ``init`` may pin a single start (a field, or one of the named
    strategies "homogeneous" / "random-0" / "mollified-..."); otherwise
    the battery holds the homogeneous state, mollified sharp candidates
    for crack counts around the predicted one, and seeded random
    perturbations.  Results never raise on non-convergence; check the
    ``converged`` flag.
    """
    kind = _FUNCTIONALS.get(functional.upper())
    if kind is None:
        raise ValueError("functional must be 'E' or 'V'")
    energy = lambda v: kind.energy(v, settings, model)
    gradient = lambda v: kind.gradient(v, settings, model)
    proj = lambda v: kind.project(v, settings.lam)
    battery = _start_battery(kind, model, settings)

    if isinstance(init, DiscreteField):
        starts = [("user", init.values)]
    elif isinstance(init, str):
        named = {label: v for label, v in battery}
        if init not in named:
            raise ValueError(f"unknown start strategy {init!r}")
        starts = [(init, named[init])]
    else:
        starts = battery
    starts = list(starts) + [(label, np.asarray(v, float)) for label, v in extra_inits]

    best = None
    for label, x0 in starts:
        x, fx, iterations, converged, history = _descend(
            x0, energy, gradient, proj, settings
        )
        if best is None or fx < best[1]:
            best = (x, fx, iterations, converged, history, label)

    x, fx, iterations, converged, history, label = best
    out = DiscreteField(settings.lam, x)
    return SolveResult(
        minimizer=out,
        energy=fx,
        rescaled_energy=fx / settings.epsilon,
        iterations=iterations,
        transition_count=kind.transitions(out),
        converged=converged,
        start_label=label,
        energy_history=history,
    )
