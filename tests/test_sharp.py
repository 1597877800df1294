import math

import numpy as np
import pytest

from fracture1d.material import builtin_lj, c_wstar
from fracture1d.sharp import (
    BruteForceResult,
    DomainError,
    PiecewiseConstantField,
    PiecewiseLinearField,
    brute_force_segments,
    build_sharp_minimizer,
    continuous_crack_estimate,
    crack_count,
    eval_I,
    eval_V,
    foundation_integral,
    reconstruct_deformation,
    segment_energy,
    segment_h1,
    segment_h2,
    v_n,
)

C_LJ = 4.0 * math.sqrt(2.0) / 15.0


# ---------------------------------------------------------------- eval_I


def test_eval_I_single_end_crack():
    field = PiecewiseConstantField(1.4, (1.0,), (1.0, 0.0))
    assert eval_I(field, C_LJ) == pytest.approx(C_LJ, abs=1e-15)


def test_eval_I_unbroken_specimen():
    field = PiecewiseConstantField(1.0, (), (1.0,))
    assert eval_I(field, C_LJ) == 0.0


def test_eval_I_interior_support_costs_two_jumps():
    field = PiecewiseConstantField(1.4, (0.2, 1.2), (0.0, 1.0, 0.0))
    assert eval_I(field, C_LJ) == pytest.approx(2.0 * C_LJ, abs=1e-15)


def test_eval_I_infeasible_values_give_infinity():
    field = PiecewiseConstantField(1.4, (1.0,), (0.5, 0.0))
    assert eval_I(field, C_LJ) == math.inf


def test_eval_I_wrong_measure_gives_infinity():
    field = PiecewiseConstantField(1.4, (0.9,), (1.0, 0.0))
    assert eval_I(field, C_LJ) == math.inf


def test_energies_require_positive_surface_constant():
    pc = PiecewiseConstantField(1.4, (1.0,), (1.0, 0.0))
    with pytest.raises(DomainError):
        eval_I(pc, 0.0)
    field = build_sharp_minimizer(2, 1.4, "A", C_LJ, 10.0).field
    with pytest.raises(DomainError):
        eval_V(field, -1.0, 10.0)
    with pytest.raises(DomainError):
        eval_V(field, C_LJ, -10.0)


# ---------------------------------------------------------------- segments


def test_segment_h1_geometry():
    seg = segment_h1(0.375, 1.5)
    assert seg.knots == (0.0, 0.25, 0.375)
    assert seg.knot_values == (0.0, 0.25, 0.25)


def test_segment_h2_geometry():
    seg = segment_h2(0.375, 1.5)
    assert seg.knots == (0.0, 0.125, 0.375)
    assert seg.knot_values == (0.0, 0.0, 0.25)


def test_segment_full_length_shapes():
    lam = 1.4
    s1 = segment_h1(lam, lam)
    assert s1.knots == (0.0, 1.0, lam)
    s2 = segment_h2(lam, lam)
    assert s2.knots[1] == pytest.approx(lam - 1.0)


def test_segment_rejects_overlong_length():
    with pytest.raises(DomainError):
        segment_h1(2.0, 1.5)
    with pytest.raises(DomainError):
        segment_h2(0.0, 1.5)


def test_segment_energy_closed_form_matches_piecewise_integral():
    lam, mu = 1.5, 200.0
    for ell in (0.2, 0.375, 1.1, lam):
        for seg in (segment_h1(ell, lam), segment_h2(ell, lam)):
            direct = C_LJ + 0.5 * mu * foundation_integral(seg, load=lam)
            assert direct == pytest.approx(segment_energy(ell, lam, C_LJ, mu), abs=1e-13)


# ---------------------------------------------------------------- eval_V


def test_eval_V_identity_unbroken():
    field = PiecewiseLinearField(1.0, (0.0, 1.0), (0.0, 1.0))
    assert eval_V(field, C_LJ, 500.0) == 0.0


def test_eval_V_single_segment_closed_form():
    lam, mu = 1.4, 120.0
    field = segment_h1(lam, lam)
    expected = C_LJ + mu * (lam - 1.0) ** 2 / 6.0
    assert eval_V(field, C_LJ, mu) == pytest.approx(expected, abs=1e-13)


def test_eval_V_reference_worked_example():
    minimizer = build_sharp_minimizer(4, 1.5, "A", C_LJ, 200.0)
    energy = eval_V(minimizer.field, C_LJ, 200.0)
    assert energy == pytest.approx(2.0293, abs=1e-3)
    assert energy == pytest.approx(v_n(4, C_LJ, 200.0, 1.5), abs=1e-12)


def test_eval_V_inadmissible_slope_gives_infinity():
    field = PiecewiseLinearField(1.4, (0.0, 1.4), (0.0, 1.0))  # slope 1/1.4
    assert eval_V(field, C_LJ, 200.0) == math.inf


def test_eval_V_wrong_boundary_gives_infinity():
    field = PiecewiseLinearField(1.4, (0.0, 0.5, 1.4), (0.0, 0.5, 0.5))
    assert eval_V(field, C_LJ, 200.0) == math.inf


# ---------------------------------------------------------------- v_n, crack_count


def test_v_n_worked_values():
    assert v_n(4, C_LJ, 200.0, 1.5) == pytest.approx(2.0293, abs=1e-3)
    # Direct evaluation gives 2.05730; the printed 2.0753 in the source
    # narrative is inconsistent with the formula and both orderings pick n=4.
    assert v_n(3, C_LJ, 200.0, 1.5) == pytest.approx(2.05730, abs=1e-5)
    assert v_n(3, C_LJ, 200.0, 1.5) < v_n(5, C_LJ, 200.0, 1.5)


def test_v_n_zero_stiffness():
    assert v_n(1, 0.77, 0.0, 1.9) == 0.77


def test_v_n_rejects_zero_count():
    with pytest.raises(DomainError):
        v_n(0, C_LJ, 200.0, 1.5)


def test_crack_count_worked_example():
    assert crack_count(C_LJ, 200.0, 1.5) == 4
    assert continuous_crack_estimate(C_LJ, 200.0, 1.5) == pytest.approx(3.5355, abs=5e-4)


def test_crack_count_zero_stiffness():
    assert crack_count(C_LJ, 0.0, 1.7) == 1


def test_crack_count_rejects_compression():
    with pytest.raises(DomainError):
        crack_count(C_LJ, 200.0, 1.0)
    for bad in (math.nan, math.inf):
        for mu, lam in ((200.0, bad), (bad, 1.5)):
            for count in (crack_count, continuous_crack_estimate):
                with pytest.raises(DomainError):
                    count(C_LJ, mu, lam)
    # A finite load whose (lambda - 1)^2 overflows.
    for count in (crack_count, continuous_crack_estimate):
        with pytest.raises(DomainError, match="lambda"):
            count(C_LJ, 200.0, 1e200)
    with pytest.raises(DomainError, match="lambda"):
        v_n(4, C_LJ, 200.0, 1e200)
    with pytest.raises(DomainError, match="lambda"):
        segment_energy(1.0, 1e200, C_LJ, 200.0)
    # (lambda - 1)^2 is finite, but mu times it is not.
    for count in (crack_count, continuous_crack_estimate):
        with pytest.raises(DomainError, match="overflows"):
            count(C_LJ, 200.0, 1e154)


def test_crack_count_staircase_in_lambda():
    counts = [crack_count(C_LJ, 200.0, lam) for lam in np.arange(1.05, 2.0, 0.05)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[0] <= 2


def test_crack_count_matches_argmin_over_candidates():
    rng = np.random.default_rng(11)
    for _ in range(200):
        mu = float(rng.uniform(1.0, 500.0))
        lam = float(rng.uniform(1.0 + 1e-6, 2.5))
        x = continuous_crack_estimate(C_LJ, mu, lam)
        top = int(math.ceil(x)) + 3
        energies = [v_n(n, C_LJ, mu, lam) for n in range(1, top + 1)]
        best = min(energies)
        smallest_argmin = next(
            n for n, e in enumerate(energies, start=1) if e <= best + 0.0
        )
        assert crack_count(C_LJ, mu, lam) == smallest_argmin


# ---------------------------------------------------------------- construction


def test_minimizer_variant_a_cracks():
    m = build_sharp_minimizer(4, 1.5, "A", C_LJ, 200.0)
    assert len(m.cracks) == 2
    (x1, o1), (x2, o2) = m.cracks
    assert (x1, x2) == pytest.approx((0.25, 0.75), abs=1e-12)
    assert (o1, o2) == pytest.approx((0.25, 0.25), abs=1e-12)
    assert m.field.derivative_jump_count() == 4
    assert m.energy == pytest.approx(2.02933, abs=1e-5)


def test_minimizer_variant_b_jump_positions():
    m = build_sharp_minimizer(4, 1.5, "B", C_LJ, 200.0)
    graph = reconstruct_deformation(m.field)
    positions = [x for x, _, _ in graph.jumps]
    assert positions == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)


def test_minimizer_single_end_crack():
    m = build_sharp_minimizer(1, 1.4, "A", C_LJ, 0.0)
    assert len(m.cracks) == 1
    x, opening = m.cracks[0]
    assert x == pytest.approx(1.0, abs=1e-12)
    assert opening == pytest.approx(0.4, abs=1e-12)
    assert m.energy == pytest.approx(C_LJ, abs=1e-15)


def test_minimizer_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_sharp_minimizer(0, 1.5, "A", C_LJ, 200.0)
    with pytest.raises(DomainError):
        build_sharp_minimizer(2, 1.0, "A", C_LJ, 200.0)
    with pytest.raises(DomainError):
        build_sharp_minimizer(2, 1.5, "C", C_LJ, 200.0)
    # A count far past any written field is rejected before the segment
    # loop, which would otherwise run about 5.6e100 times.
    huge = crack_count(C_LJ, 200.0, 1e150)
    for n in (10**6 + 1, huge):
        with pytest.raises(DomainError, match="crack count"):
            build_sharp_minimizer(n, 1e150, "A", C_LJ, 200.0)


@pytest.mark.parametrize("lam", [1e4, 3e4])
@pytest.mark.parametrize("variant", ["A", "B"])
def test_minimizer_at_a_large_load_reconstructs(lam, variant):
    """Knots near y = lam are rounded by ulps of lam, so slopes of the
    short elastic pieces are off by up to 1.6e-8; the slope tolerance
    absorbs that.  Variant A merges segments (0, 1), (2, 3), ... into
    ceil(n / 2) plateaus; B has a lone plateau at y = 0, then floor(n / 2)."""
    n = crack_count(C_LJ, 200.0, lam)
    m = build_sharp_minimizer(n, lam, variant, C_LJ, 200.0)
    plateaus = (n + 1) // 2 if variant == "A" else n // 2 + 1
    assert len(m.cracks) == plateaus
    assert m.field.derivative_jump_count() == n
    assert m.field.is_V_admissible()
    graph = reconstruct_deformation(m.field)
    assert len(graph.jumps) == plateaus
    assert eval_V(m.field, C_LJ, 200.0) == pytest.approx(m.energy, rel=1e-9)


@pytest.mark.parametrize("lam", [1.5, 1e3, 1e4, 3e4])
@pytest.mark.parametrize("variant", ["A", "B"])
def test_slope_steps_break_once_per_derivative_jump(lam, variant):
    """The slope of the n-crack minimizer steps exactly n times, between
    the wells.  A fixed 1e-9 slope tolerance found 2833 steps at lambda
    1e4 (n = 2605) and 6676 at 3e4 (n = 5419) for variant A."""
    n = crack_count(C_LJ, 200.0, lam)
    field = build_sharp_minimizer(n, lam, variant, C_LJ, 200.0).field
    steps = field.slope_steps()
    assert len(steps.breakpoints) == field.derivative_jump_count() == n
    assert set(steps.breakpoints) <= set(field.knots)
    assert all(min(abs(v), abs(v - 1.0)) < 1e-6 for v in steps.values)
    assert len(steps.jumps()) == steps.jump_count() == n
    assert steps.values[0] == field.slopes()[0]


def test_slopes_and_their_bounds_are_computed_once_and_read_only():
    field = build_sharp_minimizer(crack_count(C_LJ, 200.0, 1e3), 1e3, "A", C_LJ, 200.0).field
    slopes, tol = field._slopes_and_tolerance
    assert field._slopes_and_tolerance[0] is slopes
    assert field._slopes_and_tolerance[1] is tol
    assert not slopes.flags.writeable and not tol.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        slopes[0] = 0.5
    # slopes() is a fresh, writable array with the same bits each call.
    fresh = field.slopes()
    assert fresh.flags.writeable and not np.shares_memory(fresh, slopes)
    expected = np.diff(np.array(field.knot_values)) / np.diff(np.array(field.knots))
    assert np.array_equal(fresh.view(np.uint64), expected.view(np.uint64))
    fresh[:] = 0.5
    assert np.array_equal(field.slopes(), expected)
    # The cache is no field: equality and hashing see the knots alone.
    again = PiecewiseLinearField(field.domain_length, field.knots, field.knot_values)
    assert again == field and hash(again) == hash(field)


def test_jumps_lists_each_step_above_the_tolerance():
    field = PiecewiseConstantField(2.0, (0.5, 1.0, 1.5), (1.0, 1.0 + 1e-13, 0.0, 1.0))
    assert field.jumps() == [(1.0, 1.0 + 1e-13, 0.0), (1.5, 0.0, 1.0)]
    assert field.jump_count() == 2


def test_reconstruct_rejects_a_half_slope_at_a_large_load():
    m = build_sharp_minimizer(crack_count(C_LJ, 200.0, 3e4), 3e4, "A", C_LJ, 200.0)
    knots = np.asarray(m.field.knots)
    values = np.array(m.field.knot_values)
    # A short elastic piece (length 1/n), where the slope tolerance is largest.
    i = int(np.flatnonzero(np.abs(m.field.slopes() - 1.0) < 1e-6)[-1])
    values[i + 1 :] -= 0.5 * (knots[i + 1] - knots[i])
    field = PiecewiseLinearField(m.field.domain_length, m.field.knots, tuple(values.tolist()))
    assert field.slopes()[i] == pytest.approx(0.5, abs=1e-6)
    assert not field.has_well_slopes()
    with pytest.raises(DomainError, match="slopes"):
        reconstruct_deformation(field)


def _bits(rows):
    return np.asarray(rows, dtype=float).view(np.uint64)


def test_plateau_and_segment_values_are_the_per_point_values():
    field = build_sharp_minimizer(crack_count(C_LJ, 200.0, 1e3), 1e3, "B", C_LJ, 200.0).field
    per_plateau = [(a, b, field.value_at(a)) for a, b in field._slope_runs(0.0)]
    assert np.array_equal(_bits(field.plateaus()), _bits(per_plateau))
    per_segment = [
        (field.value_at(a), field.value_at(b), a, b) for a, b in field.rising_intervals()
    ]
    assert np.array_equal(_bits(reconstruct_deformation(field).segments), _bits(per_segment))


def test_building_and_reconstructing_interpolate_a_fixed_number_of_times(monkeypatch):
    """One np.interp for all plateau values and one for all segment ends:
    the count does not grow with n, so a build is linear in n."""
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda *args: calls.append(1) or interp(*args))
    counts = []
    for lam in (1e3, 3e4):
        calls.clear()
        m = build_sharp_minimizer(crack_count(C_LJ, 200.0, lam), lam, "A", C_LJ, 200.0)
        reconstruct_deformation(m.field)
        counts.append(len(calls))
    assert counts == [3, 3]


def test_construction_matches_formula_up_to_ten_segments():
    for n in range(1, 11):
        for variant in ("A", "B"):
            m = build_sharp_minimizer(n, 1.5, variant, C_LJ, 200.0)
            assert eval_V(m.field, C_LJ, 200.0) == pytest.approx(
                v_n(n, C_LJ, 200.0, 1.5), abs=1e-12
            )
            assert m.field.derivative_jump_count() == n


def test_geometric_crack_counts():
    for n in range(2, 11):
        a = build_sharp_minimizer(n, 1.8, "A", C_LJ, 50.0)
        b = build_sharp_minimizer(n, 1.8, "B", C_LJ, 50.0)
        assert len(a.cracks) == math.ceil(n / 2)
        assert len(b.cracks) == n // 2 + 1


def test_opening_conservation_and_variant_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lam = float(rng.uniform(1.0 + 1e-9, 3.0))
        mu = float(rng.uniform(0.0, 500.0))
        a = build_sharp_minimizer(n, lam, "A", C_LJ, mu)
        b = build_sharp_minimizer(n, lam, "B", C_LJ, mu)
        for m in (a, b):
            assert sum(o for _, o in m.cracks) == pytest.approx(lam - 1.0, abs=1e-12)
        ea = eval_V(a.field, C_LJ, mu)
        eb = eval_V(b.field, C_LJ, mu)
        assert ea == pytest.approx(eb, abs=1e-12)


# ---------------------------------------------------------------- brute force


def test_brute_force_two_segments_closed_form():
    lam, mu = 1.5, 200.0
    result = brute_force_segments(2, lam, C_LJ, mu)
    assert isinstance(result, BruteForceResult)
    assert result.lengths[0] == pytest.approx(lam / 2.0, abs=1e-6)
    expected = 2.0 * C_LJ + mu * (lam - 1.0) ** 2 / 24.0
    assert result.energy == pytest.approx(expected, abs=1e-9)


def test_brute_force_three_segments_equal_spacing():
    result = brute_force_segments(3, 1.5, C_LJ, 200.0)
    assert np.allclose(result.lengths, 0.5, atol=1e-6)
    assert result.energy == pytest.approx(2.05730, abs=1e-5)


def test_brute_force_degenerate_zero_stiffness():
    result = brute_force_segments(2, 1.5, C_LJ, 0.0)
    assert result.energy == pytest.approx(2.0 * C_LJ, abs=1e-12)


def test_brute_force_rejects_bad_arguments():
    with pytest.raises(DomainError):
        brute_force_segments(7, 1.5, C_LJ, 200.0)


# ---------------------------------------------------------------- reconstruction


def test_reconstruct_single_end_crack():
    field = build_sharp_minimizer(1, 1.4, "A", C_LJ, 0.0).field
    graph = reconstruct_deformation(field)
    assert len(graph.segments) == 1
    x0, x1, f0, f1 = graph.segments[0]
    assert (x0, x1) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert (f0, f1) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert len(graph.jumps) == 1
    x, lo, hi = graph.jumps[0]
    assert (x, lo, hi) == pytest.approx((1.0, 1.0, 1.4), abs=1e-12)


def test_reconstruct_identity():
    field = PiecewiseLinearField(1.0, (0.0, 1.0), (0.0, 1.0))
    graph = reconstruct_deformation(field)
    assert graph.jumps == ()
    assert graph.segments == ((0.0, 1.0, 0.0, 1.0),)


def test_reconstruct_rejects_fractional_slopes():
    field = PiecewiseLinearField(1.4, (0.0, 1.4), (0.0, 1.0))
    with pytest.raises(DomainError):
        reconstruct_deformation(field)
    # An inverse stretch is not an inverse deformation.
    with pytest.raises(DomainError, match="piecewise-linear"):
        reconstruct_deformation(PiecewiseConstantField(1.5, (1.0,), (1.0, 0.0)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fields_reject_a_value_or_domain_length_that_is_not_finite(bad):
    # An infinite value makes the slope rounding bounds infinite, so such a
    # field would pass as admissible with V = 0 and reconstruct to a graph.
    with pytest.raises(DomainError, match="finite"):
        PiecewiseLinearField(1.5, (0.0, 0.5, 1.5), (0.0, bad, 1.0))
    with pytest.raises(DomainError, match="finite"):
        PiecewiseConstantField(1.4, (1.0,), (1.0, bad))
    if bad > 0.0:
        with pytest.raises(DomainError, match="finite"):
            PiecewiseLinearField(bad, (0.0, bad), (0.0, 1.0))
        with pytest.raises(DomainError, match="finite"):
            PiecewiseConstantField(bad, (1.0,), (1.0, 0.0))


def test_jump_count_one_to_one_with_plateaus():
    for n in (2, 5, 8):
        for variant in ("A", "B"):
            m = build_sharp_minimizer(n, 1.6, variant, C_LJ, 80.0)
            graph = reconstruct_deformation(m.field)
            assert len(graph.jumps) == len(m.cracks)
