"""Desk-scale convergence experiments.

Epsilon sweeps drive the regularized solver toward the sharp-interface
predictions and tabulate energies, transition counts and distances to
the nearest sharp candidate; the crack scan tabulates the closed-form
count law across loads.  Rows are computed largest epsilon first so
each solve warm-starts the next (continuation), and best-of-multistart
results are recorded as found: a row that escapes the lower/upper
sandwich is flagged suspect, not rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .material import MaterialModel, c_wstar
from .regularized import (
    SolveSettings,
    minimize,
    mm_lower_bound_H,
    mm_lower_bound_slopes,
)
from .sharp import (
    PiecewiseConstantField,
    build_sharp_minimizer,
    continuous_crack_estimate,
    crack_count,
    v_n,
)

__all__ = [
    "SweepRow",
    "SweepReport",
    "ScanRow",
    "ScanReport",
    "gamma_sweep_I",
    "gamma_sweep_V",
    "crack_scan",
]

# Sandwich slack factors: below 98% of the equipartition bound or above
# 125% of the sharp candidate value marks a row suspect.
_LOWER_SLACK = 0.98
_UPPER_SLACK = 1.25

# The regularized functional each sweep solves.
_SOLVED = {"I": "E", "V": "V"}


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    energy: float
    rescaled_energy: float
    transition_count: int
    l1_distance_to_sharp: float
    h1_seminorm_distance: float | None
    sup_distance: float | None
    mm_lower_bound: float
    nearest_candidate: str
    converged: bool
    suspect: bool


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    metadata: dict

    def __post_init__(self):
        eps = [row.epsilon for row in self.rows]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("sweep rows must have strictly decreasing epsilon")
        if any(not math.isfinite(row.rescaled_energy) for row in self.rows):
            raise ValueError("sweep rows must carry finite rescaled energies")


@dataclass(frozen=True)
class ScanRow:
    lam: float
    x: float
    n: int
    energy: float
    crack_positions: tuple[float, ...]


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]
    metadata: dict

    def __post_init__(self):
        lams = [row.lam for row in self.rows]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("scan rows must have strictly increasing lambda")


def _sorted_epsilons(epsilons: Sequence[float]) -> list[float]:
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("need a nonempty list of positive epsilons")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must decrease strictly")
    return eps


def _l1(values: np.ndarray, ref: np.ndarray, spacing: float) -> float:
    # Cell-midpoint rule sidesteps the ambiguity at jump nodes.
    mid = 0.5 * (values[:-1] + values[1:])
    ref_mid = 0.5 * (ref[:-1] + ref[1:])
    return float(spacing * np.sum(np.abs(mid - ref_mid)))


def _nearest_by_l1(h, candidates, spacing):
    l1, name = min((_l1(h, ref, spacing), name) for name, ref in candidates)
    return l1, None, None, name


def _nearest_by_slopes(h, candidates, spacing):
    scored = []
    for name, ref in candidates:
        # L1 of the slope difference; the spacings cancel.
        slope_dist = float(np.sum(np.abs(np.diff(h) - np.diff(ref))))
        scored.append((slope_dist, _l1(h, ref, spacing), float(np.max(np.abs(h - ref))), name))
    slope_dist, l1, sup, name = min(scored)
    return l1, slope_dist, sup, name


def _sweep(
    functional, lam, mu, model, epsilons, grid_n, settings, references, nearest, lower_bound
) -> SweepReport:
    """Continuation over the decreasing ``epsilons``, one best-of-multistart
    solve per row, scored against the sharp references.

    ``references(cw, nodes)``, called once the inputs are validated, gives
    the named reference node values and the sharp value (the upper
    sandwich check is skipped when it is None or 0).  ``nearest(h,
    references, spacing)`` gives the L1, slope-L1 and sup distances to the
    closest reference and its name.  ``lower_bound(field, model)`` is the
    equipartition bound of a minimizer.
    """
    eps_list = _sorted_epsilons(epsilons)
    base = settings or SolveSettings(lam=lam, epsilon=1.0)
    base = replace(base, lam=lam, grid_n=grid_n, mu=mu)
    cw = c_wstar(model)
    candidates, sharp_value = references(cw, np.linspace(0.0, lam, grid_n + 1))
    rows = []
    warm: list[tuple[str, np.ndarray]] = []
    for eps in eps_list:
        result = minimize(_SOLVED[functional], model, replace(base, epsilon=eps), extra_inits=warm)
        warm = [("continuation", result.minimizer.values.copy())]
        l1, slope_dist, sup, name = nearest(
            result.minimizer.values, candidates, result.minimizer.spacing
        )
        bound = lower_bound(result.minimizer, model)
        suspect = result.rescaled_energy < _LOWER_SLACK * bound
        if sharp_value:
            suspect = suspect or result.rescaled_energy > _UPPER_SLACK * sharp_value
        rows.append(
            SweepRow(
                epsilon=eps,
                energy=result.energy,
                rescaled_energy=result.rescaled_energy,
                transition_count=result.transition_count,
                l1_distance_to_sharp=l1,
                h1_seminorm_distance=slope_dist,
                sup_distance=sup,
                mm_lower_bound=bound,
                nearest_candidate=name,
                converged=result.converged,
                suspect=suspect,
            )
        )
    metadata = {
        "functional": functional,
        "lambda": lam,
        "mu": mu,
        "model": model.name,
        "grid_n": grid_n,
        "seed": base.seed,
        "gtol": base.gtol,
        "c_wstar": cw,
        "candidates": [name for name, _ in candidates],
    }
    return SweepReport(tuple(rows), metadata)


def gamma_sweep_I(
    lam: float,
    model: MaterialModel,
    epsilons: Sequence[float],
    grid_n: int,
    settings: SolveSettings | None = None,
) -> SweepReport:
    """Sweep the interfacial functional toward its sharp limit.

    For stretched bars the references are the two single-crack fields;
    at lam = 1 the unbroken state and below it the homogeneous one, for
    which the sandwich diagnostics are skipped.
    """

    def references(cw, nodes):
        if lam > 1.0 + 1e-12:
            return [
                ("endA", PiecewiseConstantField(lam, (1.0,), (1.0, 0.0)).value_at(nodes)),
                ("endB", PiecewiseConstantField(lam, (lam - 1.0,), (0.0, 1.0)).value_at(nodes)),
            ], cw
        return [("homogeneous", np.full(grid_n + 1, 1.0 / lam))], None

    return _sweep(
        "I", lam, 0.0, model, epsilons, grid_n, settings, references, _nearest_by_l1,
        mm_lower_bound_H,
    )


def gamma_sweep_V(
    lam: float,
    mu: float,
    model: MaterialModel,
    epsilons: Sequence[float],
    grid_n: int,
    settings: SolveSettings | None = None,
) -> SweepReport:
    """Sweep the foundation-coupled functional toward its sharp limit.

    References are both variants of the predicted minimizing
    configuration; distances are reported in L1 of the field, L1 of the
    slopes (the discrete first-derivative seminorm proxy) and sup norm.
    """

    def references(cw, nodes):
        if lam > 1.0 + 1e-12:
            n_star = crack_count(cw, mu, lam)
            return [
                (f"variant{v}(n={n_star})", np.interp(nodes, f.knots, f.knot_values))
                for v, f in (
                    ("A", build_sharp_minimizer(n_star, lam, "A", cw, mu).field),
                    ("B", build_sharp_minimizer(n_star, lam, "B", cw, mu).field),
                )
            ], v_n(n_star, cw, mu, lam)
        sharp_value = None if lam < 1.0 - 1e-12 else 0.0
        return [("homogeneous", np.linspace(0.0, 1.0, grid_n + 1))], sharp_value

    return _sweep(
        "V", lam, mu, model, epsilons, grid_n, settings, references, _nearest_by_slopes,
        mm_lower_bound_slopes,
    )


def crack_scan(
    lambda_range: tuple[float, float],
    step: float,
    mu: float,
    model: MaterialModel,
) -> ScanReport:
    """Tabulate the crack-count law on an open interval of loads."""
    lo, hi = lambda_range
    if not (hi > lo >= 1.0):
        raise ValueError("lambda range must satisfy 1 <= lo < hi")
    if step <= 0.0:
        raise ValueError("step must be positive")
    cw = c_wstar(model)
    rows = []
    count = int(round((hi - lo) / step))
    previous = 0
    for i in range(1, count + 1):
        lam = lo + i * step
        if lam >= hi - 1e-12 or lam <= lo + 1e-12:
            continue
        x = continuous_crack_estimate(cw, mu, lam)
        n = crack_count(cw, mu, lam)
        if n < previous:
            raise RuntimeError(f"crack count fell from {previous} to {n} at lambda={lam:g}")
        previous = n
        positions = tuple(
            pos for pos, _ in build_sharp_minimizer(n, lam, "A", cw, mu).cracks
        )
        rows.append(ScanRow(lam, x, n, v_n(n, cw, mu, lam), positions))
    metadata = {"mu": mu, "model": model.name, "step": step, "c_wstar": cw}
    return ScanReport(tuple(rows), metadata)
