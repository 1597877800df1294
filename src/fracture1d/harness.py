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
    GTOL,
    CellField,
    SolveSettings,
    minimize,
    mm_lower_bound_H,
    mm_lower_bound_slopes,
)
from .sharp import (
    _CRACKS_MAX,
    DomainError,
    PiecewiseConstantField,
    _crack_selection,
    build_sharp_minimizer,
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
    if not eps or not all(0.0 < e < math.inf for e in eps):
        raise ValueError(f"need a nonempty list of positive finite epsilons, got {eps}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must decrease strictly")
    return eps


def _l1(values: np.ndarray, ref: np.ndarray, spacing: float) -> float:
    # Midpoint-rule L1 distance of two node fields: a cell reads its nodes' mean.
    mid = 0.5 * (values[:-1] + values[1:])
    ref_mid = 0.5 * (ref[:-1] + ref[1:])
    return float(spacing * np.sum(np.abs(mid - ref_mid)))


def _nearest_by_l1(h, candidates, spacing):
    l1, name = min((float(spacing * np.sum(np.abs(h - ref))), name) for name, ref in candidates)
    return l1, None, None, name


def _nearest_by_slopes(h, candidates, spacing):
    scored = []
    for name, ref in candidates:
        # L1 of the slope difference; the spacings cancel.
        slope_dist = float(np.sum(np.abs(np.diff(h) - np.diff(ref))))
        scored.append((slope_dist, _l1(h, ref, spacing), float(np.max(np.abs(h - ref))), name))
    slope_dist, l1, sup, name = min(scored)
    return l1, slope_dist, sup, name


def _sweep(functional, model, epsilons, settings, references, nearest, lower_bound) -> SweepReport:
    """Continuation over the decreasing ``epsilons``, one best-of-multistart
    solve per row at ``settings`` with that row's epsilon, all rows in one
    ``minimize`` call, scored against the sharp references.

    ``references(cw)``, called once the inputs are validated, gives the
    named references where the minimizer's values sit and the sharp value
    (None skips the upper sandwich check).
    ``nearest(values, references, spacing)`` gives the L1, slope-L1 and
    sup distances to the closest reference and its name, and
    ``lower_bound(field, model)`` the equipartition bound of a minimizer.
    """
    eps_list = _sorted_epsilons(epsilons)
    cw = c_wstar(model)
    candidates, sharp_value = references(cw)
    results = minimize(
        _SOLVED[functional], model, [replace(settings, epsilon=eps) for eps in eps_list]
    )
    rows = []
    for eps, result in zip(eps_list, results):
        l1, slope_dist, sup, name = nearest(
            result.minimizer.values, candidates, result.minimizer.spacing
        )
        bound = lower_bound(result.minimizer, model)
        suspect = result.rescaled_energy < _LOWER_SLACK * bound
        if sharp_value is not None:
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
                suspect=bool(suspect),  # a numpy bool from the energy comparisons
            )
        )
    metadata = {
        "functional": functional,
        "lambda": settings.lam,
        "mu": settings.mu,
        "model": model.name,
        "grid_n": settings.grid_n,
        "seed": settings.seed,
        "gtol": GTOL,
        "c_wstar": cw,
        "candidates": [name for name, _ in candidates],
    }
    return SweepReport(tuple(rows), metadata)


def gamma_sweep_I(
    model: MaterialModel, epsilons: Sequence[float], settings: SolveSettings
) -> SweepReport:
    """Sweep the interfacial functional toward its sharp limit.

    ``settings`` gives the load, the grid and the solver controls; its
    epsilon is replaced row by row.  E does not use its mu, which the
    metadata records as given.
    For stretched bars the references are the two single-crack fields;
    at lam = 1 the unbroken state and below it the homogeneous one, for
    which the upper sandwich check is skipped.  The L1 distance is
    d * sum |H - H_ref| over the cells, as V's slope distance.
    """
    lam, n = settings.lam, settings.grid_n

    def references(cw):
        if lam > 1.0:
            mids = CellField.grid_points(lam, n)
            return [
                ("endA", PiecewiseConstantField(lam, (1.0,), (1.0, 0.0)).value_at(mids)),
                ("endB", PiecewiseConstantField(lam, (lam - 1.0,), (0.0, 1.0)).value_at(mids)),
            ], cw
        return [("homogeneous", np.full(n, 1.0 / lam))], None

    return _sweep("I", model, epsilons, settings, references, _nearest_by_l1, mm_lower_bound_H)


def gamma_sweep_V(
    model: MaterialModel, epsilons: Sequence[float], settings: SolveSettings
) -> SweepReport:
    """Sweep the foundation-coupled functional toward its sharp limit.

    ``settings`` gives the load, the foundation stiffness, the grid and
    the solver controls; its epsilon is replaced row by row.  References
    of a stretched bar (lambda > 1) are both variants of the predicted
    minimizing configuration, and otherwise the homogeneous state, for
    which the upper sandwich check is skipped; distances are reported in
    L1 of the field, L1 of the slopes (the discrete first-derivative
    seminorm proxy) and sup norm.
    """
    lam, mu = settings.lam, settings.mu

    def references(cw):
        nodes = np.linspace(0.0, lam, settings.grid_n + 1)
        if lam > 1.0:
            n_star = crack_count(cw, mu, lam)
            fields = [build_sharp_minimizer(n_star, lam, v, cw, mu).field for v in "AB"]
            return [
                (f"variant{v}(n={n_star})", f.value_at(nodes)) for v, f in zip("AB", fields)
            ], v_n(n_star, cw, mu, lam)
        return [("homogeneous", np.linspace(0.0, 1.0, nodes.size))], None

    return _sweep(
        "V", model, epsilons, settings, references, _nearest_by_slopes, mm_lower_bound_slopes
    )


# Each row is one line of the scan CSV and one object of its JSON, some
# 250 bytes together: at this bound a scan writes some 25 MB.
_SCAN_ROWS_MAX = 10**5

# A load lo + i*step lands within 2 ulps of the end it is meant to hit
# (200000 random decimal ranges); rows this close to an end are that end.
_END_ULPS = 4


def crack_scan(
    lambda_range: tuple[float, float],
    step: float,
    mu: float,
    model: MaterialModel,
) -> ScanReport:
    """Tabulate the crack-count law on an open interval of loads.

    Each row's crack positions are those of variant A of the n-crack
    minimizer, read off its construction without building the field:
    segment j (j even) rises elastically first and holds its plateau at
    h = j/n + 1/n, the value ``build_sharp_minimizer`` gives that kink.
    A count above the 10**6 cracks a field is built for raises
    ``DomainError``, as the builder does.  A row's V_n is the energy the
    count selection compared, so a row evaluates x and each energy once.
    """
    lo, hi = lambda_range
    if not 1.0 <= lo < hi < math.inf:
        raise ValueError(f"lambda range must satisfy 1 <= lo < hi < inf, got {lambda_range}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be nonnegative and finite, got {mu!r}")
    steps = (hi - lo) / step
    if not steps <= _SCAN_ROWS_MAX:
        raise ValueError(f"step {step!r} gives {steps:.4g} rows, more than {_SCAN_ROWS_MAX}")
    cw = c_wstar(model)
    end_tol = _END_ULPS * math.ulp(hi)
    rows = []
    count = int(round(steps))
    previous = 0
    for i in range(1, count + 1):
        lam = lo + i * step
        if lam >= hi - end_tol or lam <= lo + end_tol:
            continue
        x, n, energy = _crack_selection(cw, mu, lam)
        if n > _CRACKS_MAX:
            raise DomainError(
                f"crack count n = {n:.4g} exceeds the {_CRACKS_MAX} a field is built for"
            )
        if n < previous:
            raise RuntimeError(f"crack count fell from {previous} to {n} at lambda={lam:g}")
        previous = n
        positions = tuple(j / n + 1.0 / n for j in range(0, n, 2))
        rows.append(ScanRow(lam, x, n, energy, positions))
    metadata = {"mu": mu, "model": model.name, "step": step, "c_wstar": cw}
    return ScanReport(tuple(rows), metadata)
