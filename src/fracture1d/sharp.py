"""Sharp-interface crack energetics.

Exact piecewise fields, closed-form energies of the limit functionals,
the alternating minimizer construction, the crack-count selection rule
and the deformation reconstruction.  Admissibility checks on values
use a 1e-12 absolute tolerance, and checks on slopes a bound on the
rounding of each slope: fields are built exactly in the arithmetic of
their inputs, so only rounding noise must be absorbed.

It owns the rules that read a sharp field, which the regularized starts
and the sweeps use: a step field's jumps (``jumps``), a piecewise-linear
field's slope steps (``slope_steps``), and that a bar is stretched, and
cracks, exactly when lambda > 1.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-12
SLOPE_JUMP_TOL = 1e-9
# Ulps of error allowed in each knot and knot value.  The minimizer's
# knots take three roundings (j * lam, / n, + 1 / n); 8 leaves a margin.
_KNOT_ULPS = 8.0

__all__ = [
    "DomainError",
    "BudgetExceeded",
    "PiecewiseConstantField",
    "PiecewiseLinearField",
    "SharpMinimizer",
    "DeformationGraph",
    "BruteForceResult",
    "eval_I",
    "eval_V",
    "foundation_integral",
    "segment_h1",
    "segment_h2",
    "segment_energy",
    "v_n",
    "crack_count",
    "continuous_crack_estimate",
    "build_sharp_minimizer",
    "brute_force_segments",
    "reconstruct_deformation",
]


class DomainError(ValueError):
    """Arguments outside the domain of a sharp-interface operation."""


class BudgetExceeded(RuntimeError):
    """Grid refinement ran out of passes before reaching its target."""


def _check_finite(domain_length: float, values) -> None:
    """A field's domain length and values must be finite numbers: an
    infinite one would make rounding bounds and energies infinite."""
    if not (math.isfinite(domain_length) and all(map(math.isfinite, values))):
        raise DomainError("a field's domain length and values must be finite")


@dataclass(frozen=True)
class PiecewiseConstantField:
    """Piecewise-constant inverse stretch on (0, domain_length).

    ``values`` holds one number per subinterval; ``breakpoints`` are the
    strictly increasing interior subdivision points.
    """

    domain_length: float
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        lam = self.domain_length
        if not lam > 0.0:
            raise DomainError("domain length must be positive")
        _check_finite(lam, self.values)
        if len(self.values) != len(self.breakpoints) + 1:
            raise DomainError("need exactly one value per subinterval")
        edges = (0.0,) + self.breakpoints + (lam,)
        for left, right in zip(edges, edges[1:]):
            if not left < right:
                raise DomainError("breakpoints must increase strictly inside (0, lambda)")

    def jumps(self) -> list[tuple[float, float, float]]:
        """(breakpoint, left value, right value) of each jump above FEASIBILITY_TOL."""
        return [
            (b, left, right)
            for b, left, right in zip(self.breakpoints, self.values, self.values[1:])
            if abs(right - left) > FEASIBILITY_TOL
        ]

    def jump_count(self) -> int:
        return len(self.jumps())

    def measure_of(self, level: float) -> float:
        edges = (0.0,) + self.breakpoints + (self.domain_length,)
        return math.fsum(
            edges[i + 1] - edges[i]
            for i, v in enumerate(self.values)
            if abs(v - level) <= FEASIBILITY_TOL
        )

    def value_at(self, y):
        """Right-continuous evaluation; arrays accepted."""
        idx = np.searchsorted(np.asarray(self.breakpoints), np.asarray(y), side="right")
        out = np.asarray(self.values)[idx]
        return float(out) if out.ndim == 0 else out

    def is_I_admissible(self) -> bool:
        near_well = all(min(abs(v), abs(v - 1.0)) <= FEASIBILITY_TOL for v in self.values)
        return near_well and abs(self.measure_of(1.0) - 1.0) <= FEASIBILITY_TOL


@dataclass(frozen=True)
class PiecewiseLinearField:
    """Continuous piecewise-linear inverse deformation on [0, domain_length]."""

    domain_length: float
    knots: tuple[float, ...]
    knot_values: tuple[float, ...]

    def __post_init__(self):
        if not self.domain_length > 0.0:
            raise DomainError("domain length must be positive")
        _check_finite(self.domain_length, self.knot_values)
        if len(self.knots) != len(self.knot_values) or len(self.knots) < 2:
            raise DomainError("need matching knot and value lists of length >= 2")
        if self.knots[0] != 0.0 or self.knots[-1] != self.domain_length:
            raise DomainError("knots must start at 0 and end at the domain length")
        for a, b in zip(self.knots, self.knots[1:]):
            if not a < b:
                raise DomainError("knots must increase strictly")

    def slopes(self) -> np.ndarray:
        return self._slopes_and_tolerance[0].copy()

    def value_at(self, y):
        out = np.interp(np.asarray(y, dtype=float), self.knots, self.knot_values)
        return float(out) if out.ndim == 0 else out

    # Kept in the instance's __dict__ after the first read, read-only, as
    # the field is frozen; a replaced field is a new instance.
    @functools.cached_property
    def _slopes_and_tolerance(self) -> tuple[np.ndarray, np.ndarray]:
        """The slopes and a rounding bound on each, at least SLOPE_JUMP_TOL.

        Each knot is off by a few ulps of the domain length and each value
        by a few ulps of the largest |h|, and a slope divides the errors at
        both ends of its piece by the piece's length.  At lambda 1e4 the
        minimizer has pieces of length 1/n near y = 1e4 whose slopes are
        off by 4e-9.
        """
        dk = np.diff(np.array(self.knots))
        size = self.domain_length + max(map(abs, self.knot_values))
        tol = np.maximum(SLOPE_JUMP_TOL, (2.0 * _KNOT_ULPS * np.finfo(float).eps * size) / dk)
        slopes = np.diff(np.array(self.knot_values)) / dk
        slopes.flags.writeable = False
        tol.flags.writeable = False
        return slopes, tol

    def slope_steps(self) -> PiecewiseConstantField:
        """The slope as a step field: neighbouring slopes that differ by no
        more than their rounding bounds form one piece, valued at the
        first slope of its run."""
        s, tol = self._slopes_and_tolerance
        breaks = np.flatnonzero(np.abs(np.diff(s)) > tol[:-1] + tol[1:]) + 1
        knots = np.array(self.knots)[breaks].tolist()
        values = s[np.concatenate(([0], breaks))].tolist()
        return PiecewiseConstantField(self.domain_length, tuple(knots), tuple(values))

    def derivative_jump_count(self) -> int:
        return len(self.slope_steps().breakpoints)

    def _slope_runs(self, target: float) -> list[tuple[float, float]]:
        """Maximal intervals where the slope is target up to rounding."""
        s, tol = self._slopes_and_tolerance
        runs, start = [], None
        for i, inside in enumerate((np.abs(s - target) <= tol).tolist() + [False]):
            if inside and start is None:
                start = i
            elif not inside and start is not None:
                runs.append((self.knots[start], self.knots[i]))
                start = None
        return runs

    def plateaus(self) -> list[tuple[float, float, float]]:
        """Maximal slope-0 intervals as (y_start, y_end, h value)."""
        runs = self._slope_runs(0.0)
        values = self.value_at([a for a, _ in runs]).tolist()
        return [(a, b, h) for (a, b), h in zip(runs, values)]

    def rising_intervals(self) -> list[tuple[float, float]]:
        return self._slope_runs(1.0)

    def has_well_slopes(self) -> bool:
        """Every slope is 0 or 1 up to rounding."""
        s, tol = self._slopes_and_tolerance
        return bool(np.all(np.minimum(np.abs(s), np.abs(s - 1.0)) <= tol))

    def is_V_admissible(self) -> bool:
        if abs(self.knot_values[0]) > FEASIBILITY_TOL:
            return False
        if abs(self.knot_values[-1] - 1.0) > FEASIBILITY_TOL:
            return False
        return self.has_well_slopes()


@dataclass(frozen=True)
class SharpMinimizer:
    """Minimizing configuration record.

    ``n`` counts derivative jumps; ``cracks`` lists geometric cracks,
    i.e. maximal plateaus merged across segment junctions, as pairs of
    (material position, opening length in the deformed coordinate).
    """

    n: int
    variant: str
    energy: float
    field: PiecewiseLinearField
    cracks: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class DeformationGraph:
    """Graph of the deformation map recovered from an inverse field.

    ``segments`` are (x_start, x_end, f_start, f_end) pieces with unit
    slope; ``jumps`` are (material position, lower value, upper value).
    """

    segments: tuple[tuple[float, float, float, float], ...]
    jumps: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class BruteForceResult:
    lengths: tuple[float, ...]
    energy: float
    spacing: float
    passes: int


def eval_I(field: PiecewiseConstantField, c_wstar: float) -> float:
    """Energy of the interfacial limit: c_wstar per jump, inf if infeasible."""
    if not c_wstar > 0.0:
        raise DomainError("c_wstar must be positive")
    if not field.is_I_admissible():
        return math.inf
    return c_wstar * field.jump_count()


def foundation_integral(field: PiecewiseLinearField, load: float | None = None) -> float:
    """Integral of h'(y - load*h)^2 over the field's domain, in closed form.

    The load defaults to the domain length, which is the right choice
    for full admissible fields; partial segments must pass the load of
    the configuration they belong to.  Slope-0 pieces vanish; on
    slope-1 pieces the misfit is linear in y, so each piece integrates
    to a cubic expression of its endpoint misfits.  Slopes must already
    be within tolerance of {0, 1}.
    """
    lam = field.domain_length if load is None else load
    knots = field.knots
    vals = field.knot_values
    slopes, tol = field._slopes_and_tolerance
    rising = np.abs(slopes) > tol
    pieces = []
    for i in np.flatnonzero(rising).tolist():
        m0 = knots[i] - lam * vals[i]
        m1 = knots[i + 1] - lam * vals[i + 1]
        if lam == 1.0:
            pieces.append(m0 * m0 * (knots[i + 1] - knots[i]))
        else:
            pieces.append((m1**3 - m0**3) / (3.0 * (1.0 - lam)))
    return math.fsum(pieces)


def eval_V(field: PiecewiseLinearField, c_wstar: float, mu: float) -> float:
    """Energy of the foundation-coupled limit; inf when inadmissible."""
    if not c_wstar > 0.0:
        raise DomainError("c_wstar must be positive")
    if mu < 0.0:
        raise DomainError("mu must be nonnegative")
    if not field.is_V_admissible():
        return math.inf
    jumps = field.derivative_jump_count()
    return c_wstar * jumps + 0.5 * mu * foundation_integral(field)


def _check_segment_args(ell: float, lam: float) -> None:
    if not lam > 1.0:
        raise DomainError("segments are defined for loads lambda > 1")
    if not 0.0 < ell <= lam:
        raise DomainError("segment length must satisfy 0 < ell <= lambda")


def segment_h1(ell: float, lam: float) -> PiecewiseLinearField:
    """Elastic-then-cracked segment: slope 1 on [0, ell/lam), plateau after."""
    _check_segment_args(ell, lam)
    rise = ell / lam
    return PiecewiseLinearField(ell, (0.0, rise, ell), (0.0, rise, rise))


def segment_h2(ell: float, lam: float) -> PiecewiseLinearField:
    """Cracked-then-elastic segment: plateau on [0, ell - ell/lam), slope 1 after."""
    _check_segment_args(ell, lam)
    rise = ell / lam
    return PiecewiseLinearField(ell, (0.0, ell - rise, ell), (0.0, 0.0, rise))


# (lam - 1)^2 is a finite float while |lam - 1| stays below this.
_EXCESS_MAX = math.sqrt(sys.float_info.max)


def _excess_squared(lam: float) -> float:
    """(lam - 1)^2, the scale of the misfit energy at load lam."""
    if not abs(lam - 1.0) < _EXCESS_MAX:
        raise DomainError(
            f"lambda must be within {_EXCESS_MAX:.4g} of 1 so that "
            f"(lambda - 1)^2 is finite, got {lam!r}"
        )
    return (lam - 1.0) ** 2


def segment_energy(ell: float, lam: float, c_wstar: float, mu: float) -> float:
    """Energy of either segment shape on [0, ell]: one jump plus the misfit."""
    _check_segment_args(ell, lam)
    return c_wstar + mu * _excess_squared(lam) * (ell / lam) ** 3 / 6.0


def v_n(n: int, c_wstar: float, mu: float, lam: float) -> float:
    """Minimum energy of an n-segment equal-length configuration."""
    if n < 1:
        raise DomainError("crack count n must be at least 1")
    return n * c_wstar + mu * _excess_squared(lam) / (6.0 * n**2)


def continuous_crack_estimate(c_wstar: float, mu: float, lam: float) -> float:
    """Stationary point of n -> v_n over the reals: (mu(lam-1)^2/(3c))^(1/3)."""
    if not 1.0 < lam < math.inf:
        raise DomainError(f"crack counting requires 1 < lambda < inf, got {lam!r}")
    if not (0.0 <= mu < math.inf and 0.0 < c_wstar < math.inf):
        raise DomainError(f"need finite mu >= 0 and c_wstar > 0, got {mu!r} and {c_wstar!r}")
    x = (mu * _excess_squared(lam) / (3.0 * c_wstar)) ** (1.0 / 3.0)
    if not x < math.inf:
        raise DomainError(f"the crack count overflows at lambda {lam!r} and mu {mu!r}")
    return x


def crack_count(c_wstar: float, mu: float, lam: float) -> int:
    """Number of cracks selected by the integer rounding rule.

    Below 1 the count is 1; otherwise the floor m competes against m+1
    and ties go to the smaller count.
    """
    return _crack_selection(c_wstar, mu, lam)[1]


def _crack_selection(c_wstar: float, mu: float, lam: float) -> tuple[float, int, float]:
    """The continuous estimate x, the count n that ``crack_count`` selects
    from it, and v_n, the energy the selection compared."""
    x = continuous_crack_estimate(c_wstar, mu, lam)
    if x < 1.0:
        return x, 1, v_n(1, c_wstar, mu, lam)
    m = int(math.floor(x))
    below, above = v_n(m, c_wstar, mu, lam), v_n(m + 1, c_wstar, mu, lam)
    return (x, m, below) if below <= above else (x, m + 1, above)


# A minimizer with n cracks holds 2n + 1 knots, and each is one line of
# some 40 bytes in a written field file: at this bound a field has 2e6
# knots and its file some 80 MB, far above any crack count a solve uses.
_CRACKS_MAX = 10**6


def build_sharp_minimizer(
    n: int, lam: float, variant: str, c_wstar: float, mu: float
) -> SharpMinimizer:
    """Concatenate n alternating segments of length lam/n.

    Variant "A" starts with the elastic-first shape, "B" with the
    cracked-first shape.  Junctions are slope-continuous, so the field
    has exactly n derivative jumps; merged plateaus become the geometric
    cracks.
    """
    if n < 1:
        raise DomainError("crack count n must be at least 1")
    if n > _CRACKS_MAX:
        raise DomainError(f"crack count n = {n:.4g} exceeds the {_CRACKS_MAX} a field is built for")
    if not lam > 1.0:
        raise DomainError("the minimizer construction requires lambda > 1")
    if variant not in ("A", "B"):
        raise DomainError("variant must be 'A' or 'B'")

    # Segment j spans [j*lam/n, (j+1)*lam/n]; h rises by exactly 1/n per
    # segment, with the kink 1/n (elastic-first) or (lam-1)/n
    # (cracked-first) into the segment.
    knots = [0.0]
    values = [0.0]
    for j in range(n):
        y0 = j * lam / n
        h0 = j / n
        elastic_first = (j % 2 == 0) == (variant == "A")
        if elastic_first:
            kink = y0 + 1.0 / n
            kink_value = h0 + 1.0 / n
        else:
            kink = y0 + (lam - 1.0) / n
            kink_value = h0
        end = lam if j == n - 1 else (j + 1) * lam / n
        end_value = 1.0 if j == n - 1 else h0 + 1.0 / n
        knots.extend((kink, end))
        values.extend((kink_value, end_value))

    field = PiecewiseLinearField(lam, tuple(knots), tuple(values))
    cracks = tuple((h, b - a) for a, b, h in field.plateaus())
    return SharpMinimizer(
        n=n,
        variant=variant,
        energy=v_n(n, c_wstar, mu, lam),
        field=field,
        cracks=cracks,
    )


def brute_force_segments(n: int, lam: float, c_wstar: float, mu: float) -> BruteForceResult:
    """Minimize the n-segment energy over the free lengths by nested grids.

    The first n-1 lengths are free on the simplex {l >= 0, sum <= lam};
    each pass lays 100 points per axis (capped so a pass stays near 1e6
    evaluations), then recentres a shrunken box on the argmin, until the
    spacing reaches 1e-8 * lam.  Serves as the independent oracle for the
    equal-spacing claim.
    """
    if not 2 <= n <= 6:
        raise DomainError("brute force supports 2 <= n <= 6 segments")
    if not lam > 1.0:
        raise DomainError("brute force requires lambda > 1")

    max_passes = 60
    target_spacing = 1e-8 * lam
    dims = n - 1
    per_axis = min(100, max(9, int((1.2e6) ** (1.0 / dims))))
    factor = mu * (lam - 1.0) ** 2 / (6.0 * lam**3)

    lo = np.zeros(dims)
    hi = np.full(dims, lam)
    best_lengths = None
    best_energy = math.inf
    for passes in range(1, max_passes + 1):
        axes = [np.linspace(lo[d], hi[d], per_axis) for d in range(dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        rest = lam - pts.sum(axis=1)
        feasible = rest >= 0.0
        energy = np.full(pts.shape[0], np.inf)
        e = n * c_wstar + factor * ((pts[feasible] ** 3).sum(axis=1) + rest[feasible] ** 3)
        energy[feasible] = e
        i = int(np.argmin(energy))
        if energy[i] < best_energy:
            best_energy = float(energy[i])
            best_lengths = pts[i].copy()
        spacing = float(np.max((hi - lo) / (per_axis - 1)))
        if spacing <= target_spacing:
            rest_best = lam - float(best_lengths.sum())
            return BruteForceResult(
                tuple(best_lengths) + (rest_best,), best_energy, spacing, passes
            )
        lo = np.maximum(best_lengths - spacing, 0.0)
        hi = np.minimum(best_lengths + spacing, lam)
    raise BudgetExceeded(
        f"grid refinement did not reach spacing {target_spacing:g} "
        f"in {max_passes} passes"
    )


def reconstruct_deformation(field: PiecewiseLinearField) -> DeformationGraph:
    """Invert an admissible inverse deformation into the deformation graph.

    Maximal slope-1 intervals invert to unit-slope graph segments over
    the material coordinate; maximal plateaus become jumps of f, one per
    geometric crack.
    """
    if not isinstance(field, PiecewiseLinearField):
        raise DomainError("reconstruction needs a piecewise-linear inverse deformation")
    if not field.has_well_slopes():
        raise DomainError("reconstruction needs slopes in {0, 1}")
    if not field.is_V_admissible():
        raise DomainError("reconstruction needs h(0) = 0 and h(lambda) = 1")
    rising = field.rising_intervals()
    ends = field.value_at(np.reshape(rising, (-1, 2))).tolist()
    segments = tuple((fa, fb, a, b) for (a, b), (fa, fb) in zip(rising, ends))
    jumps = tuple((h, a, b) for a, b, h in field.plateaus())
    return DeformationGraph(segments, jumps)
