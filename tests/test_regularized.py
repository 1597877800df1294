import dataclasses
import hashlib
import math
import multiprocessing
import os
import re
import signal
import threading
import time
import warnings
from typing import Sequence

import numpy as np
import pytest

from fracture1d import regularized
from fracture1d.harness import gamma_sweep_I, gamma_sweep_V
from fracture1d.material import builtin_lj, c_wstar
from fracture1d.regularized import (
    CellField,
    DiscreteField,
    GTOL,
    SolveSettings,
    _ARMIJO,
    _BACKTRACK,
    _FUNCTIONALS,
    _STEP_INIT,
    _STEP_MAX,
    _STEP_MIN,
    _NEWTON_AFTER,
    _NEWTON_WINDOW,
    _SHIFTED_WINDOW,
    _descend,
    _tridiagonal_solve,
    _midpoints,
    _start_battery,
    eval_E_eps,
    eval_V_eps,
    grad_E_eps,
    grad_V_eps,
    isotonic_regression,
    minimize,
    mm_lower_bound_H,
    mollify_sharp_candidate,
    phi_interpolator,
    project_H,
    project_h,
    transition_count_slopes,
    transition_count_values,
    transition_profile,
)
from fracture1d.sharp import (
    FEASIBILITY_TOL,
    SLOPE_JUMP_TOL,
    PiecewiseConstantField,
    build_sharp_minimizer,
    crack_count,
    v_n,
)

LJ = builtin_lj()
C_LJ = 4.0 * math.sqrt(2.0) / 15.0


# ------------------------------------------------------------ energies


def test_E_energy_at_the_well_is_zero():
    field = DiscreteField(1.0, np.ones(101))
    assert eval_E_eps(field, 0.05, LJ) == 0.0


def test_E_energy_homogeneous_compression():
    field = CellField(0.8, np.full(200, 1.25))
    # lam * wstar(1/lam) = W(0.8) = 0.0625, exact on any number of cells.
    assert eval_E_eps(field, 0.05, LJ) == pytest.approx(0.0625, abs=1e-12)


def test_V_energy_homogeneous_compression():
    field = DiscreteField(0.8, np.linspace(0.0, 1.0, 201))
    assert eval_V_eps(field, 0.05, 200.0, LJ) == pytest.approx(0.0625, abs=1e-12)


def test_V_energy_identity_is_zero():
    field = DiscreteField(1.0, np.linspace(0.0, 1.0, 101))
    assert eval_V_eps(field, 0.05, 200.0, LJ) == pytest.approx(0.0, abs=1e-20)


def test_mollified_interface_recovers_surface_constant():
    pc = PiecewiseConstantField(1.4, (1.0,), (1.0, 0.0))
    field = mollify_sharp_candidate(pc, 0.02, LJ, 4000)
    rescaled = eval_E_eps(field, 0.02, LJ) / 0.02
    assert rescaled == pytest.approx(C_LJ, rel=0.05)


def test_mollified_interface_gap_shrinks_with_epsilon():
    pc = PiecewiseConstantField(1.4, (1.0,), (1.0, 0.0))
    gaps = []
    for eps in (0.04, 0.02):
        field = mollify_sharp_candidate(pc, eps, LJ, 4000)
        gaps.append(abs(eval_E_eps(field, eps, LJ) / eps - C_LJ))
    assert gaps[1] <= gaps[0]


def test_mollified_sharp_minimizer_recovers_v4():
    sharp = build_sharp_minimizer(4, 1.5, "A", C_LJ, 200.0).field
    field = mollify_sharp_candidate(sharp, 0.01, LJ, 4000)
    rescaled = eval_V_eps(field, 0.01, 200.0, LJ) / 0.01
    assert rescaled == pytest.approx(v_n(4, C_LJ, 200.0, 1.5), rel=0.05)


def test_mollify_leaves_transition_free_fields_alone():
    pc = PiecewiseConstantField(1.0, (), (1.0,))
    field = mollify_sharp_candidate(pc, 0.02, LJ, 64)
    assert isinstance(field, CellField)
    assert np.array_equal(field.values, np.ones(64))


# The mollifier as it was when it found jumps and slope steps by rules of
# its own, verbatim but for one line: a step field is sampled at the cell
# midpoints, as E's values sit there.  The reference for the mollified
# starts.


def _reference_jump_positions(pc: PiecewiseConstantField) -> list[tuple[float, float, float]]:
    out = []
    for i, b in enumerate(pc.breakpoints):
        left, right = pc.values[i], pc.values[i + 1]
        if abs(right - left) > FEASIBILITY_TOL:
            out.append((b, left, right))
    return out


def _reference_mollify_step_values(pc, epsilon, model, points):
    out = np.asarray(pc.value_at(points), dtype=float).copy()
    jumps = _reference_jump_positions(pc)
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


def _reference_mollify(sharp_field, epsilon, model, grid_n):
    lam = sharp_field.domain_length
    if isinstance(sharp_field, PiecewiseConstantField):
        mids = (np.arange(grid_n) + 0.5) * (lam / grid_n)
        return CellField(lam, _reference_mollify_step_values(sharp_field, epsilon, model, mids))

    slopes = sharp_field.slopes()
    knots = sharp_field.knots
    breaks, vals = [], [float(slopes[0])]
    for i in range(1, len(slopes)):
        if abs(slopes[i] - vals[-1]) > SLOPE_JUMP_TOL:
            breaks.append(knots[i])
            vals.append(float(slopes[i]))
    slope_pc = PiecewiseConstantField(lam, tuple(breaks), tuple(vals))
    d = lam / grid_n
    mids = (np.arange(grid_n) + 0.5) * d
    smooth = _reference_mollify_step_values(slope_pc, epsilon, model, mids)
    h = np.concatenate(([0.0], np.cumsum(smooth) * d))
    h /= h[-1]
    h[0] = 0.0
    return DiscreteField(lam, h)


@pytest.mark.parametrize(
    "functional, lam", [("V", 1.5), ("E", 1.4), ("V", 1.0 + 1e-13), ("E", 1.0 + 1e-13)]
)
def test_mollified_starts_are_bitwise_the_reference_loop(functional, lam):
    """The battery mollifies the sharp candidates of every stretched bar,
    lambda > 1 as in ``sharp``, and at these loads ``sharp``'s jumps and
    slope steps are the reference loop's to the bit."""
    settings = SolveSettings(lam=lam, epsilon=0.02, mu=200.0, grid_n=1000)
    kind = _FUNCTIONALS[functional]
    starts = dict(_start_battery(kind, LJ, settings))
    candidates = kind.sharp_candidates(LJ, settings)
    assert [k for k in starts if k.startswith("mollified-")] == [k for k, _ in candidates]
    for label, sharp in candidates:
        reference = _reference_mollify(sharp, settings.epsilon, LJ, settings.grid_n)
        assert starts[label].tobytes() == reference.values.tobytes()


def test_mollifying_a_large_load_minimizer_inserts_one_profile_per_crack(monkeypatch):
    """At lambda 1e4 the slopes carry rounding of 4e-9: a fixed 1e-9 slope
    tolerance found 2833 slope steps, and placed as many profiles, for
    the n = 2605 cracks."""
    n = crack_count(C_LJ, 200.0, 1e4)
    sharp = build_sharp_minimizer(n, 1e4, "A", C_LJ, 200.0).field
    step_fields = []
    inner = regularized._mollify_step_values

    def recording(pc, *rest):
        step_fields.append(pc)
        return inner(pc, *rest)

    monkeypatch.setattr(regularized, "_mollify_step_values", recording)
    mollify_sharp_candidate(sharp, 0.02, LJ, 1000)
    assert [pc.jump_count() for pc in step_fields] == [n]


# ------------------------------------------------------------ gradients
# ------------------------------------------------------------ gradients


def _central_difference(fun, values, step=1e-6):
    out = np.zeros_like(values)
    for i in range(values.size):
        vp = values.copy()
        vm = values.copy()
        vp[i] += step
        vm[i] -= step
        out[i] = (fun(vp) - fun(vm)) / (2.0 * step)
    return out


def test_grad_E_matches_finite_differences():
    rng = np.random.default_rng(3)
    lam, eps = 1.3, 0.05
    for _ in range(20):
        raw = 1.0 / lam + 0.4 * rng.standard_normal(49)
        field = project_H(raw, lam)
        g = grad_E_eps(field, eps, LJ)
        fd = _central_difference(
            lambda v: eval_E_eps(DiscreteField(lam, v), eps, LJ), field.values
        )
        rel = np.max(np.abs(fd - g) / (1.0 + np.abs(fd)))
        assert rel <= 1e-6


@pytest.mark.parametrize("lam,mu,eps", [(1.5, 200.0, 0.05), (1.2, 50.0, 0.1), (0.9, 10.0, 0.1)])
def test_grad_V_matches_finite_differences(lam, mu, eps):
    rng = np.random.default_rng(5)
    for _ in range(7):
        base = project_h(np.linspace(0.0, 1.0, 41) + 0.1 * rng.standard_normal(41), lam)
        values = base.values.copy()
        values[1:-1] += 0.01 * rng.random(39)  # interior, monotone not required
        g = grad_V_eps(DiscreteField(lam, values), eps, mu, LJ)
        fd = _central_difference(lambda v: eval_V_eps(DiscreteField(lam, v), eps, mu, LJ), values)
        rel = np.max(np.abs(fd - g) / (1.0 + np.abs(fd)))
        assert rel <= 1e-6


@pytest.mark.parametrize("n", [40, 200, 1000])
def test_V_is_bitwise_E_of_its_slopes_at_mu_0(n):
    """At mu = 0, V is E's interfacial energy of the slopes H = h': its
    energy is E's at those cell values, and its gradient is E's divided
    by d and scattered onto the nodes, + on the right and - on the left."""
    lam, eps = 1.5, 0.05
    d = lam / n
    rng = np.random.default_rng(n)
    ramp = project_h(np.linspace(0.0, 1.0, n + 1) + 0.1 * rng.standard_normal(n + 1), lam)
    sharp = build_sharp_minimizer(4, lam, "A", c_wstar(LJ), 200.0).field
    for h in (ramp, mollify_sharp_candidate(sharp, eps, LJ, n)):
        cells = CellField(lam, h.slopes())
        assert eval_V_eps(h, eps, 0.0, LJ) == eval_E_eps(cells, eps, LJ)
        by_slope = grad_E_eps(cells, eps, LJ) / d
        scattered = np.zeros(n + 1)
        scattered[1:] += by_slope
        scattered[:-1] -= by_slope
        assert np.array_equal(grad_V_eps(h, eps, 0.0, LJ), scattered)


def test_grad_V_evaluates_only_the_density_derivative():
    calls = {"wstar": 0, "wstar_prime": 0}

    def counting(name, inner):
        def wrapper(h):
            calls[name] += 1
            return inner(h)
        return wrapper

    model = dataclasses.replace(
        LJ,
        wstar=counting("wstar", LJ.wstar),
        wstar_prime=counting("wstar_prime", LJ.wstar_prime),
    )
    field = project_h(np.linspace(0.0, 1.0, 41) ** 2, 1.5)
    g = grad_V_eps(field, 0.05, 200.0, model)
    assert calls == {"wstar": 0, "wstar_prime": 1}
    assert np.array_equal(g, grad_V_eps(field, 0.05, 200.0, LJ))


def test_grad_E_constant_field_pattern():
    lam, eps, n = 1.1, 0.07, 32
    field = CellField(lam, np.full(n, 0.6))
    g = grad_E_eps(field, eps, LJ)
    d = lam / n
    wp = LJ.wstar_prime(0.6)
    # Every cell carries the same weight d: no end correction.
    assert np.allclose(g, np.full(n, d * wp), atol=1e-15)


def test_grad_E_zero_at_the_well():
    field = CellField(1.0, np.ones(32))
    assert np.allclose(grad_E_eps(field, 0.05, LJ), 0.0, atol=1e-15)


# ------------------------------------------------------------ projections


def _project_H_oracle(raw, lam):
    """Exhaustive active-set enumeration of the projection QP (small N)."""
    raw = np.asarray(raw, dtype=float)
    n = raw.size
    a = np.full(n, lam / n)  # d * sum(H) = 1: uniform weights d
    best = None
    for mask in range(1, 1 << n):
        keep = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        denom = float(a[keep] @ a[keep])
        theta = (float(a[keep] @ raw[keep]) - 1.0) / denom
        cand = np.where(keep, raw - theta * a, 0.0)
        if np.all(cand >= -1e-12):
            cand = np.maximum(cand, 0.0)
            dist = float(np.sum((cand - raw) ** 2))
            if best is None or dist < best[0] - 1e-15:
                best = (dist, cand)
    return best[1]


def _sorted_project_H(values: Sequence[float], lam: float) -> DiscreteField:
    """The sort-based projection that Michelot's iteration replaced: the
    large-N reference.

    The projection has the clipped-affine form max(0, raw - theta * a)
    with a the uniform weight vector, every entry d = lam / N.  The
    weighted sum is piecewise
    linear and decreasing in theta, so theta is located by bisection
    over its clipping breakpoints and then solved exactly on the
    resulting active set; the weighted sum lands on 1 to machine
    accuracy, far inside the 1e-12 feasibility budget.
    """
    raw = np.asarray(values, dtype=float)
    a = np.full(raw.size, lam / raw.size)
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


def _project_h_oracle(raw, lam):
    """Enumerate pooled-block patterns of the pinned monotone projection."""
    raw = np.asarray(raw, dtype=float)
    n = raw.size
    best = None
    for mask in range(1 << (n - 1)):
        blocks = [[0]]
        for i in range(n - 1):
            if (mask >> i) & 1:
                blocks[-1].append(i + 1)
            else:
                blocks.append([i + 1])
        vals = []
        feasible = True
        for block in blocks:
            if 0 in block and n - 1 in block:
                feasible = False
                break
            if 0 in block:
                vals.append(0.0)
            elif n - 1 in block:
                vals.append(1.0)
            else:
                vals.append(float(np.mean(raw[block])))
        if not feasible:
            continue
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            continue
        cand = np.empty(n)
        for block, v in zip(blocks, vals):
            cand[block] = v
        dist = float(np.sum((cand - raw) ** 2))
        if best is None or dist < best[0] - 1e-15:
            best = (dist, cand)
    return best[1]


def _isotonic_regression_oracle(y, weights=None):
    """The PAV loop that pushes one element at a time: the reference for
    bitwise equality of the faster loop."""
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


def _pinned_isotonic_regression_oracle(y: Sequence[float], weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted least-squares fit under a nondecreasing constraint (PAV)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    # Stack of pooled blocks on plain floats; numpy scalars are too slow here.
    ylist = y.tolist()
    wlist = w.tolist()
    # run_end[k]: last index of the nondecreasing run holding k, found by the
    # same comparison the merge test makes.
    drops = np.flatnonzero(y[:-1] > y[1:])
    run_end = np.append(drops, n - 1)[np.searchsorted(drops, np.arange(n))].tolist()
    means, wsums, counts = [], [], []
    i = 0
    while i < n:
        m, wm, c = ylist[i], wlist[i], 1
        merged = False
        while means and means[-1] > m:
            w_prev = wsums.pop()
            total = w_prev + wm
            m = (means.pop() * w_prev + m * wm) / total
            wm = total
            c += counts.pop()
            merged = True
        means.append(m)
        wsums.append(wm)
        counts.append(c)
        i += 1
        if not merged:
            # Nothing was pooled, so the rest of the run pushes as
            # singletons that pool with nothing: take it in one step.
            end = run_end[i - 1] + 1
            means += ylist[i:end]
            wsums += wlist[i:end]
            counts += [1] * (end - i)
            i = end
    return np.repeat(means, counts)


def _pinned_project_h_oracle(values: Sequence[float], lam: float) -> DiscreteField:
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
        out = np.clip(_pinned_isotonic_regression_oracle(raw, w), 0.0, 1.0)
        out[0], out[-1] = 0.0, 1.0
    return DiscreteField(lam, out)


def _assert_pav_bitwise(y):
    mine = isotonic_regression(y)
    oracle = _isotonic_regression_oracle(y)
    assert mine.dtype == oracle.dtype
    assert np.array_equal(mine, oracle, equal_nan=True)


def test_isotonic_regression_is_bitwise_the_reference_loop_on_random_input():
    rng = np.random.default_rng(41)
    sizes = list(range(1, 40)) + [int(n) for n in rng.integers(40, 2001, 30)] + [2000]
    for n in sizes:
        y = np.cumsum(rng.standard_normal(n)) * rng.uniform(0.01, 3.0)
        _assert_pav_bitwise(y)
    # A spike before a noisy flat plateau with a dip: the block opened at
    # the spike absorbs the 400 plateau elements forward, then pools back
    # into the closed block (0.6, 0.4) at the start.
    plateau = 0.45 + 1e-3 * np.random.default_rng(47).standard_normal(400)
    _assert_pav_bitwise(np.concatenate([[0.6, 0.4, 0.55, 0.56, 3.0], plateau, [0.3, 0.8, 0.9]]))


def test_isotonic_regression_is_bitwise_the_reference_loop_on_the_V_descent():
    """Every interior that project_h hands to PAV in a short V battery."""
    settings = SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=60)
    interiors = []
    for _ in _run_battery("V", settings, on_project=lambda v: interiors.append(v[1:-1].copy())):
        pass
    assert len(interiors) > 400
    for y in interiors:
        _assert_pav_bitwise(y)


def test_isotonic_regression_is_bitwise_the_reference_loop_on_the_V_plateaus():
    """Iterations 200-300 of two V descents on sweep-V's grid (N 1000,
    epsilon 0.02).  There every fit pools the crack plateaus, some 270
    elements from mollified-A4 and 415 from random-0: each block absorbs
    its elements forward and pools back into the blocks below it."""
    settings = SolveSettings(lam=1.5, epsilon=0.02, mu=200.0, grid_n=1000, max_iterations=300)
    kind = _FUNCTIONALS["V"]
    starts = dict(_start_battery(kind, LJ, settings))
    for label in ("mollified-A4", "random-0"):
        interiors = []

        def project(v, lam):
            interiors.append(v[1:-1].copy())
            return kind.project(v, lam)

        _descend(starts[label], kind._replace(project=project), settings, LJ)
        # One projection of the start, then one per iteration.
        assert len(interiors) == 301
        for y in interiors[200:]:
            _assert_pav_bitwise(y)
            assert np.sum(isotonic_regression(y) != y) > 200


def test_isotonic_regression_is_bitwise_the_reference_loop_on_ties():
    rng = np.random.default_rng(43)
    for n in (2, 7, 64, 500, 2000):
        _assert_pav_bitwise(np.round(rng.standard_normal(n), 1))
        _assert_pav_bitwise(np.round(np.linspace(0, 1, n) + 0.3 * rng.standard_normal(n), 2))
        _assert_pav_bitwise(np.full(n, 0.25))
    # Elements exactly at the open block's mean are neither absorbed
    # forward nor pooled back into; the merge test is strict.  Over these
    # multiples of 0.03, a loop that pools on equality, forward or back
    # into an element or a closed block, changes the bits.
    _assert_pav_bitwise(np.array([1.0, 0.0, 0.5, 0.75, 0.25, 0.2, 0.9]))
    _assert_pav_bitwise(np.array([3, 5, 1, 8, 2, 6, 4, 5, 3, 4]) / 10 * 0.3)
    # A NaN compares false both ways, so the reference pools nothing into
    # it: pooling back stops unless pm > m, which pm <= m does not mirror.
    _assert_pav_bitwise(np.array([math.nan, 1.0, 0.5]))
    _assert_pav_bitwise(np.array([0.5, 2.0, 1.0, math.nan, 0.2, 0.1]))


def test_isotonic_regression_is_bitwise_the_reference_loop_on_ramps():
    for n in (1, 2, 3, 10, 1001, 2000):
        ramp = np.linspace(0.0, 1.0, n)
        _assert_pav_bitwise(ramp)
        _assert_pav_bitwise(ramp[::-1])
        _assert_pav_bitwise(np.concatenate([ramp, ramp[::-1], ramp]))
        # A drop at the last index pools back through the whole ramp.
        _assert_pav_bitwise(np.append(ramp, -1.0))
    # A drop at the last index whose block pools back into closed blocks.
    _assert_pav_bitwise(np.array([0.2, 0.9, 0.1, 0.3, 0.6, 0.7, 0.65, 0.2, 0.8, 0.9, -1.0]))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 1000])
def test_isotonic_regression_of_a_nondecreasing_input_is_a_copy(n):
    y = np.sort(np.round(np.random.default_rng(59).standard_normal(n), 1))
    out = isotonic_regression(y)
    assert out is not y
    assert out.dtype == np.float64
    assert np.array_equal(out, y)


@pytest.mark.parametrize(
    "y",
    [
        # Its rows do not drop, so it came back unchanged and not monotone.
        np.array([[3.0, 4.0], [1.0, 2.0]]).T,
        # Its rows drop, so the memoryview raised NotImplementedError.
        np.array([[4.0, 3.0], [1.0, 2.0]]),
        # A single value came back as an array of one element.
        np.float64(0.5),
    ],
    ids=["2d-without-a-row-drop", "2d", "0d"],
)
def test_isotonic_regression_rejects_an_array_that_is_not_one_dimensional(y):
    with pytest.raises(ValueError, match="1-d"):
        isotonic_regression(y)


def test_project_h_is_bitwise_the_pinned_end_projection():
    """The clipped interior fit against the projection it replaces: PAV
    over all nodes with 1e12 end weights, clipped and reset."""
    rng = np.random.default_rng(61)
    sizes = list(range(3, 40)) + [int(n) for n in rng.integers(40, 2001, 20)] + [2000]
    for n in sizes:
        ramp = np.linspace(0.0, 1.0, n)
        inputs = [
            ramp + 0.05 * np.cumsum(rng.standard_normal(n)),
            np.round(ramp + 0.3 * rng.standard_normal(n), 1),
            ramp[::-1].copy(),
            rng.uniform(-1.0, 3.0) * ramp + rng.uniform(-0.5, 0.5),
            np.sort(rng.uniform(0.0, 1.0, n)),
            ramp + 1e-7 * rng.standard_normal(n),
        ]
        for raw in inputs:
            mine = project_h(raw, 1.3).values
            oracle = _pinned_project_h_oracle(raw, 1.3).values
            assert np.array_equal(mine, oracle)


@pytest.mark.parametrize("name, proj", [("H", project_H), ("h", project_h)])
def test_projection_residual_is_monotone_in_the_step(name, proj):
    """The premise of the stationarity test in ``_descend``: for a
    feasible x, r(t) = ||x - P(x - t g)|| is nondecreasing and r(t) / t is
    nonincreasing, so r(1) <= r(t) / min(t, 1).  The steps reach down to
    1e-8, below the Barzilai-Borwein steps of a V sweep, where the r(t) / t
    half decides the test.  The slack is 1e-12 of the size of the
    projected point, to allow for rounding in the projection."""
    rng = np.random.default_rng(53)
    ts = np.logspace(-8, 3, 111)
    for _ in range(20):
        n = int(rng.integers(5, 300))
        lam = float(rng.uniform(0.5, 3.0))
        raw = rng.uniform(0.0, 2.0, n) if name == "H" else np.sort(rng.uniform(0.0, 1.0, n))
        x = proj(raw, lam).values
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 2.0)
        r = np.array([np.linalg.norm(x - proj(x - t * g, lam).values) for t in ts])
        slack = 1e-12 * (np.linalg.norm(x) + ts[1:] * np.linalg.norm(g))
        assert np.all(r[1:] >= r[:-1] - slack)
        assert np.all(r[1:] / ts[1:] <= r[:-1] / ts[:-1] + slack / ts[1:])


def test_project_H_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        raw = 2.0 * rng.standard_normal(n)
        lam = float(rng.uniform(0.3, 3.0))
        mine = project_H(raw, lam).values
        oracle = _project_H_oracle(raw, lam)
        assert np.max(np.abs(mine - oracle)) <= 1e-10


def _large_project_H_inputs(n, lam, rng):
    """Random, all-negative, too little mass (theta < 0), a spike, and an
    already feasible input, on n cells."""
    t = np.linspace(0.0, 1.0, n)
    smooth = (1.0 / lam) * (1.0 + 0.6 * np.sin(7.0 * t))
    spike = np.zeros(n)
    spike[n // 3] = 50.0
    return {
        "random": 1.0 / lam + 0.4 * rng.standard_normal(n),
        "negative": -np.abs(rng.standard_normal(n)) - 0.1,
        "light": 0.5 / lam + 0.01 * rng.standard_normal(n),
        "spike": spike,
        "feasible": _sorted_project_H(smooth, lam).values,
    }


@pytest.mark.parametrize("n", [1001, 4001, 16001])
def test_project_H_matches_the_sorted_projection_at_large_n(n):
    rng = np.random.default_rng(n)
    lam = 1.4
    for name, raw in _large_project_H_inputs(n, lam, rng).items():
        mine = project_H(raw, lam).values
        reference = _sorted_project_H(raw, lam).values
        tol = 1e-12 * (1.0 + np.max(np.abs(raw)))
        assert np.max(np.abs(mine - reference)) <= tol, name
        if name == "feasible":
            assert np.max(np.abs(mine - raw)) <= tol


@pytest.mark.parametrize("n", [1001, 4001, 16001])
def test_project_H_meets_the_optimality_conditions(n):
    """H >= 0 and a.H = 1 with the uniform weights a = d; with theta solved
    on the support of H, raw > theta * a and H = raw - theta * a there,
    raw <= theta * a off it."""
    rng = np.random.default_rng(n + 1)
    lam = 1.4
    a = np.full(n, lam / n)
    for name, raw in _large_project_H_inputs(n, lam, rng).items():
        h = project_H(raw, lam).values
        assert np.all(h >= 0.0), name
        assert abs(a @ h - 1.0) <= 1e-12, name
        support = h > 0.0
        theta = (a[support] @ raw[support] - 1.0) / (a[support] @ a[support])
        assert np.all(raw[support] > theta * a[support]), name
        assert np.all(raw[~support] <= theta * a[~support]), name
        assert np.max(np.abs(h[support] - (raw[support] - theta * a[support]))) <= 1e-12


def test_project_H_feasible_input_is_fixed():
    field = project_H(np.array([0.2, 1.1, 0.9, 1.4, 0.2]), 1.0)
    again = project_H(field.values, 1.0)
    assert np.max(np.abs(field.values - again.values)) <= 1e-14
    d = 1.0 / 5
    assert abs(d * np.sum(field.values) - 1.0) <= 1e-12


def test_project_H_zeros_input_lands_on_weight_direction():
    # The Euclidean projection of zero is proportional to the uniform
    # weights: the homogeneous state 1 / lam, 0.5 on every cell for lam = 2.
    out = project_H(np.zeros(5), 2.0).values
    assert np.allclose(out, np.full(5, 0.5), atol=1e-12)
    assert np.allclose(out, _project_H_oracle(np.zeros(5), 2.0), atol=1e-12)


def test_project_H_spike_input():
    raw = np.zeros(9)
    raw[4] = 50.0
    out = project_H(raw, 1.0)
    assert np.all(out.values >= 0.0)
    assert abs(np.sum(out.values) / 9 - 1.0) <= 1e-12
    assert np.max(np.abs(out.values - _project_H_oracle(raw, 1.0))) <= 1e-10
    # Rounding leaves no cell above theta * a for a spike this tall, and
    # raw - theta cancels to nothing; the mass 1/d = 9 still lands on the
    # spike, without 0 / 0, and two equal spikes share it.
    raw[4] = 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_H(raw, 1.0)
        expected = np.zeros(9)
        expected[4] = 9.0
        assert np.array_equal(out.values, expected)
        raw[2] = 1e20
        expected[[2, 4]] = 4.5
        assert np.array_equal(project_H(raw, 1.0).values, expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_project_H_rejects_a_nan_or_infinite_value(bad):
    """A NaN or +inf would make every cell drop out of the active set;
    the projection raises DiscreteField's error rather than return an
    infeasible point."""
    with pytest.raises(ValueError, match="field values must be finite"):
        project_H([bad, 1.0, 2.0, 0.5], 1.0)


def test_a_warm_start_of_nans_raises_from_E_as_from_V():
    settings = SolveSettings(lam=1.4, epsilon=0.05, grid_n=64, max_iterations=5, multistart=0)
    for functional, size in (("E", 64), ("V", 65)):
        with pytest.raises(ValueError, match="field values must be finite"):
            minimize(functional, LJ, [settings], np.full(size, math.nan))


def test_a_warm_start_with_an_infinite_value_raises_from_V_as_from_E():
    """A +inf is the last element of V's nondecreasing interior fit, which
    the clip to [0, 1] would turn into 1; project_h raises instead.  A
    -inf still projects to 0, as in project_H."""
    settings = SolveSettings(lam=1.4, epsilon=0.05, grid_n=64, max_iterations=5, multistart=0)
    for functional, size in (("E", 64), ("V", 65)):
        warm = np.linspace(0.0, 1.0, size)
        warm[size // 2] = math.inf
        with pytest.raises(ValueError, match="field values must be finite"):
            minimize(functional, LJ, [settings], warm)
    with pytest.raises(ValueError, match="field values must be finite"):
        project_h([0.0, math.inf, 0.5, 1.0], 1.0)
    assert np.array_equal(project_h([0.0, -math.inf, 0.5, 1.0], 1.0).values, [0.0, 0.0, 0.5, 1.0])


@pytest.mark.parametrize("end", [0, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_warm_start_with_a_nan_or_infinite_end_raises_from_V_as_from_E(bad, end):
    """project_h replaces V's end values without reading them into the
    fit, so it tests them itself: a NaN or +inf there raises, as anywhere
    in E's warm start.  A -inf end still projects, as inside."""
    settings = SolveSettings(lam=1.4, epsilon=0.05, grid_n=64, max_iterations=5, multistart=0)
    for functional, size in (("E", 64), ("V", 65)):
        warm = np.linspace(0.0, 1.0, size)
        warm[end] = bad
        with pytest.raises(ValueError, match="field values must be finite"):
            minimize(functional, LJ, [settings], warm)
    raw = [0.0, 0.5, 1.0]
    raw[end] = bad
    with pytest.raises(ValueError, match="field values must be finite"):
        project_h(raw, 1.0)
    raw[end] = -math.inf
    assert np.array_equal(project_h(raw, 1.0).values, [0.0, 0.5, 1.0])


def test_project_H_rejects_nonpositive_domain():
    with pytest.raises(ValueError, match="domain length"):
        project_H(np.ones(5), 0.0)


@pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -1.0])
def test_fields_reject_a_domain_length_that_is_not_positive_and_finite(length):
    values = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="domain length"):
        DiscreteField(length, values)
    with pytest.raises(ValueError, match="domain length"):
        project_h(values, length)
    with pytest.raises(ValueError, match="domain length"):
        project_H(values, length)


@pytest.mark.parametrize("values", [[], [1.0], [1.0, 1.0]])
def test_project_H_rejects_fewer_than_three_values(values):
    with pytest.raises(ValueError, match="three values"):
        project_H(values, 1.0)


def test_project_h_matches_enumeration_oracle():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        raw = np.linspace(0.0, 1.0, n) + 0.8 * rng.standard_normal(n)
        mine = project_h(raw, 1.3).values
        oracle = _project_h_oracle(raw, 1.3)
        assert np.max(np.abs(mine - oracle)) <= 1e-9
        again = project_h(mine, 1.3).values
        assert np.max(np.abs(again - mine)) <= 1e-14


def test_project_h_monotone_input_is_fixed():
    raw = np.array([0.0, 0.1, 0.4, 0.4, 0.9, 1.0])
    out = project_h(raw, 1.2).values
    assert np.array_equal(out, raw)


def test_project_h_reversed_ramp_collapses():
    out = project_h(np.linspace(1.0, 0.0, 9), 1.0).values
    assert out[0] == 0.0 and out[-1] == 1.0
    assert np.all(np.diff(out) >= 0.0)
    assert np.allclose(out[1:-1], 0.5, atol=1e-12)


def test_project_h_is_stable_under_small_noise():
    rng = np.random.default_rng(29)
    ramp = np.linspace(0.0, 1.0, 200)
    noise = 0.01 * rng.standard_normal(200)
    out = project_h(ramp + noise, 1.0).values
    # Projections are nonexpansive and the ramp is feasible.
    assert np.linalg.norm(out - ramp) <= np.linalg.norm(noise)


@pytest.mark.parametrize("name, proj", [("H", project_H), ("h", project_h)])
def test_projection_never_shares_memory_with_its_input(name, proj):
    """The projections hand the array they build to ``DiscreteField``
    uncopied, so it must be new on every call: not the input, not a view
    of it, and unchanged when the caller writes to the input afterwards.
    Feasible inputs, which project onto themselves, are included."""
    rng = np.random.default_rng(67)
    lam = 1.3
    for n in (3, 17, 1001):
        if name == "H":
            raw = rng.uniform(0.0, 2.0, n)
        else:
            raw = np.sort(rng.uniform(-0.2, 1.2, n))
        feasible = proj(raw, lam).values.copy()
        strided = np.repeat(raw, 2)[::2]
        for values in (raw, feasible, strided):
            out = proj(values, lam).values
            assert not np.shares_memory(out, values)
            before = out.copy()
            values[:] = -7.0
            assert np.array_equal(out, before)
    field = DiscreteField(lam, feasible)
    assert not np.shares_memory(field.values, feasible)


def test_per_grid_constants_are_read_only_and_unchanged_by_minimize(monkeypatch):
    """The cell midpoints, where V samples its misfit and the mollifier
    its step fields, are built once per grid and shared by every call on
    it.  A write to them raises, and a full solve of E and of V leaves
    them as built, whether the caller descends every start or hands them
    to workers.  The cache hits are counted on one CPU, where every
    descent is the caller's."""
    runs = [
        ("E", SolveSettings(lam=1.4, epsilon=0.05, grid_n=300, max_iterations=60)),
        ("V", SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=60)),
    ]
    keys = [(s.lam, s.grid_n) for _, s in runs]
    grids = [_midpoints(*key) for key in keys]
    copies = [g.copy() for g in grids]
    hits = _midpoints.cache_info().hits
    with monkeypatch.context() as m:
        _on_cpus(m, 1)
        for functional, settings in runs:
            minimize(functional, LJ, [settings])
    assert _midpoints.cache_info().hits > hits + 1000
    _on_cpus(monkeypatch, 3)
    for functional, settings in runs:
        minimize(functional, LJ, [settings])
    for (lam, n), grid, midpoints in zip(keys, grids, copies):
        assert _midpoints(lam, n) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0
        assert np.array_equal(grid, midpoints)
        # As the uncached code built them on every call.
        assert np.array_equal(midpoints, (np.arange(n) + 0.5) * (lam / n))
    assert _midpoints.cache_info().maxsize is not None


def test_projections_beat_random_feasible_points():
    rng = np.random.default_rng(31)
    raw = 1.5 * rng.standard_normal(11)
    lam = 1.4
    mine = project_H(raw, lam).values
    my_dist = np.sum((mine - raw) ** 2)
    for _ in range(1000):
        cand = project_H(rng.standard_normal(11) * 2.0, lam).values
        assert np.sum((cand - raw) ** 2) >= my_dist - 1e-12

    rawh = np.linspace(0.0, 1.0, 11) + 0.7 * rng.standard_normal(11)
    mineh = project_h(rawh, lam).values
    my_dist_h = np.sum((mineh - rawh) ** 2)
    for _ in range(1000):
        cand = project_h(rng.standard_normal(11) * 2.0, lam).values
        assert np.sum((cand - rawh) ** 2) >= my_dist_h - 1e-12


def test_E_fields_are_cell_fields_of_unit_mass():
    """E's projections, mollified starts and minimizers hold one value per
    cell, at the cell midpoints.  The projections, the starts as the
    descent takes them and the minimizer have d * sum(H) = 1 within 1e-12."""
    lam, n = 1.4, 300
    d = lam / n
    settings = SolveSettings(lam=lam, epsilon=0.05, grid_n=n, max_iterations=60)
    rng = np.random.default_rng(71)
    projected = [project_H(1.0 / lam + 0.4 * rng.standard_normal(n), lam) for _ in range(5)]
    mollified = [
        mollify_sharp_candidate(sharp, settings.epsilon, LJ, n)
        for _, sharp in _FUNCTIONALS["E"].sharp_candidates(LJ, settings)
    ]
    starts = [
        project_H(x0, lam) for _, x0 in _start_battery(_FUNCTIONALS["E"], LJ, settings)
    ]
    result = minimize("E", LJ, [settings])[0]
    for field in projected + mollified + starts + [result.minimizer]:
        assert type(field) is CellField
        assert field.values.size == field.n_cells == n
        assert field.spacing == d
        assert np.array_equal(field.points(), (np.arange(n) + 0.5) * d)
    assert len(mollified) == 2 and len(starts) == 5
    for field in projected + starts + [result.minimizer]:
        assert abs(d * np.sum(field.values) - 1.0) <= 1e-12


# ------------------------------------------------------------ transitions


def test_transition_counting():
    assert transition_count_values(np.array([1.0, 1.0, 0.9, 0.1, 0.0])) == 1
    assert transition_count_values(np.array([0.0, 1.0, 0.0, 1.0])) == 3
    ramp = DiscreteField(1.0, np.linspace(0.0, 1.0, 33))
    assert transition_count_slopes(ramp) == 0


# ------------------------------------------------------------ minimize


def test_minimize_compression_E():
    settings = SolveSettings(lam=0.8, epsilon=0.05, grid_n=1000)
    result = minimize("E", LJ, [settings])[0]
    assert np.max(np.abs(result.minimizer.values - 1.25)) <= 1e-4
    assert result.energy == pytest.approx(0.0625, abs=1e-6)
    assert result.converged


def test_minimize_compression_V():
    settings = SolveSettings(lam=0.8, epsilon=0.05, mu=200.0, grid_n=1000)
    result = minimize("V", LJ, [settings])[0]
    ramp = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(result.minimizer.values - ramp)) <= 1e-4
    assert result.energy == pytest.approx(0.0625, abs=1e-6)


@pytest.mark.parametrize("lam", [0.6, 0.8, 1.0])
def test_minimize_compression_homogeneous_both_functionals(lam):
    expected = lam * LJ.wstar(1.0 / lam)
    st = SolveSettings(lam=lam, epsilon=0.05, mu=150.0, grid_n=400)
    res_e = minimize("E", LJ, [st])[0]
    assert np.max(np.abs(res_e.minimizer.values - 1.0 / lam)) <= 1e-4
    assert res_e.energy == pytest.approx(expected, abs=1e-6)
    res_v = minimize("V", LJ, [st])[0]
    assert np.max(np.abs(res_v.minimizer.values - np.linspace(0, 1, 401))) <= 1e-4
    assert res_v.energy == pytest.approx(expected, abs=1e-6)


def test_minimize_identity_V():
    settings = SolveSettings(lam=1.0, epsilon=0.05, mu=300.0, grid_n=500)
    result = minimize("V", LJ, [settings])[0]
    ramp = np.linspace(0.0, 1.0, 501)
    assert np.max(np.abs(result.minimizer.values - ramp)) <= 1e-6
    assert result.energy <= 1e-8


def test_minimize_interface_E():
    settings = SolveSettings(lam=1.4, epsilon=0.02, grid_n=4000)
    result = minimize("E", LJ, [settings])[0]
    assert result.transition_count == 1
    assert result.rescaled_energy == pytest.approx(C_LJ, rel=0.10)


def test_minimize_energy_history_never_increases():
    settings = SolveSettings(lam=1.4, epsilon=0.05, grid_n=600, multistart=2)
    result = minimize("E", LJ, [settings])[0]
    hist = np.asarray(result.energy_history)
    assert np.all(np.diff(hist) <= 0.0)


def test_minimize_runs_a_warm_start_as_continuation():
    settings = SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=40)
    # A longer solve from the same battery ends lower than every start of
    # a 40-iteration one, so its minimizer wins as the warm start.
    longer = dataclasses.replace(settings, max_iterations=400)
    warm = minimize("V", LJ, [longer])[0].minimizer.values
    result = minimize("V", LJ, [settings], warm)[0]
    kind = _FUNCTIONALS["V"]
    x, fx, iterations, converged, history = _descend(warm, kind, settings, LJ)
    assert result.start_label == "continuation"
    assert np.array_equal(result.minimizer.values, x)
    assert (result.energy, result.iterations, result.converged) == (fx, iterations, converged)
    assert result.energy_history == history


def test_minimize_rejects_a_warm_start_on_another_grid():
    """A converged 16-cell solve would otherwise win a 3-iteration solve on
    400 cells and come back as its 17-node minimizer."""
    coarse = SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=16)
    warm = minimize("V", LJ, [coarse])[0].minimizer.values
    fine = dataclasses.replace(coarse, grid_n=400, max_iterations=3)
    with pytest.raises(ValueError, match="401 values"):
        minimize("V", LJ, [fine], warm)
    # E's values sit on the 400 cells.
    with pytest.raises(ValueError, match="400 values"):
        minimize("E", LJ, [fine], np.full(401, 1.0 / 1.5))
    # Each row's continuation is the row before it's minimizer.
    with pytest.raises(ValueError, match="grid of the first"):
        minimize("V", LJ, [coarse, fine])


def test_minimize_is_deterministic_for_a_seed():
    settings = SolveSettings(lam=1.2, epsilon=0.05, grid_n=128, multistart=1, seed=42)
    a = minimize("E", LJ, [settings])[0]
    b = minimize("E", LJ, [settings])[0]
    assert a.start_label == b.start_label
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_minimize_rejects_unknown_functional():
    with pytest.raises(ValueError):
        minimize("Q", LJ, [SolveSettings(lam=1.0, epsilon=0.1, grid_n=32)])


# ------------------------------------------------------------ descent


def _descend_oracle(x0, kind, settings, model):
    """The descent loop that projects once more per iteration for an exact
    stationarity test ||x - P(x - g)|| <= tol: the reference for bitwise
    equality of ``_descend``, whose test reads the first trial instead.
    Like it, the loop backtracks along the projected direction.  Every
    energy and gradient builds its point's geometry afresh, so equal bits
    also show that no gradient of ``_descend`` read a rejected trial's
    geometry."""
    lam = settings.lam
    energy = lambda v: kind.energy_at(kind.geometry(v, lam), settings, model)
    gradient = lambda v: kind.gradient_at(kind.geometry(v, lam), settings, model)
    proj = lambda v: kind.project(v, lam)
    x = proj(np.asarray(x0, dtype=float))
    fx = energy(x)
    gx = gradient(x)
    history = [fx]
    x_prev = g_prev = None
    step = _STEP_INIT
    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        pg = x - proj(x - gx)
        if float(np.linalg.norm(pg)) <= GTOL * (1.0 + float(np.linalg.norm(gx))):
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
        xp = proj(x - step * gx)
        d = xp - x
        t = 1.0
        accepted = False
        for attempt in range(40):
            xn = x + t * d if attempt else xp
            fn = energy(xn)
            if fn <= fx - _ARMIJO * float(gx @ (x - xn)):
                accepted = True
                break
            t *= _BACKTRACK
            if step * t < _STEP_MIN:
                break
        if not accepted:
            break  # no admissible descent step left at this precision
        x_prev, g_prev = x, gx
        x, fx = xn, fn
        gx = gradient(x)
        history.append(fx)
    return x, fx, iterations, converged, history


def _run_battery(
    functional,
    settings,
    descend=_descend,
    on_geometry=None,
    on_energy=None,
    on_project=None,
    on_gradient=None,
    first_order=False,
):
    """Run ``descend`` from every start of the battery on the functional's
    record with hooked kernels.  ``on_geometry`` and ``on_project`` see
    each point whose geometry is built or that is projected;
    ``on_energy`` and ``on_gradient`` see the geometry each one reads.
    ``first_order`` drops the record's Hessian, so E's kernels run on the
    first-order loop however long the descent."""
    kind = _FUNCTIONALS[functional]
    if first_order:
        kind = kind._replace(hessian_at=None)

    def hooked(inner, hook):
        def wrapper(first, *rest):
            if hook is not None:
                hook(first)
            return inner(first, *rest)
        return wrapper

    hooked_kind = kind._replace(
        geometry=hooked(kind.geometry, on_geometry),
        energy_at=hooked(kind.energy_at, on_energy),
        gradient_at=hooked(kind.gradient_at, on_gradient),
        project=hooked(kind.project, on_project),
    )
    for label, x0 in _start_battery(kind, LJ, settings):
        yield label, descend(x0, hooked_kind, settings, LJ)


def _descents_of_the_battery(functional, settings):
    """Run ``_descend`` and the reference from every start of the battery,
    both on the first-order loop: the reference has no Newton phase."""
    mine = _run_battery(functional, settings, first_order=True)
    oracle = _run_battery(functional, settings, descend=_descend_oracle, first_order=True)
    for (label, m), (_, o) in zip(mine, oracle):
        yield label, m, o


def _assert_descents_bitwise(mine, oracle):
    x, fx, iterations, converged, history = mine
    assert np.array_equal(x, oracle[0])
    assert (fx, iterations, converged, history) == oracle[1:]


def test_descend_is_bitwise_the_reference_when_it_converges():
    # Criterion 5's compression of E on a small grid: every start
    # converges, the random ones after tens of iterations, so the test
    # from the first trial stopped each descent where the exact one does.
    settings = SolveSettings(lam=0.8, epsilon=0.05, grid_n=100)
    runs = list(_descents_of_the_battery("E", settings))
    for label, mine, oracle in runs:
        _assert_descents_bitwise(mine, oracle)
    assert all(mine[3] for _, mine, _ in runs)
    assert max(mine[2] for _, mine, _ in runs) > 50


@pytest.mark.parametrize(
    "functional, settings",
    [
        ("E", SolveSettings(lam=1.4, epsilon=0.05, grid_n=300, max_iterations=60)),
        ("V", SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=60)),
        # sweep-V's grid, where PAV pools the crack plateaus on every call.
        ("V", SolveSettings(lam=1.5, epsilon=0.02, mu=200.0, grid_n=1000, max_iterations=300)),
    ],
)
def test_descend_is_bitwise_the_reference_at_the_iteration_cap(functional, settings):
    runs = list(_descents_of_the_battery(functional, settings))
    for label, mine, oracle in runs:
        _assert_descents_bitwise(mine, oracle)
    capped = [mine for _, mine, _ in runs if mine[2] == settings.max_iterations]
    assert capped and not any(m[3] for m in capped)


@pytest.mark.parametrize("epsilon", [0.1, 0.05])
def test_every_descent_ends_converged_or_at_the_cap(epsilon):
    """No flat stretch of energy ends a descent early: the unloaded bar's
    random starts fall to ~1e-13 and keep improving until the
    stationarity test holds, a hundred or so iterations later."""
    settings = SolveSettings(lam=1.0, epsilon=epsilon, grid_n=128)
    for label, (x, fx, iterations, converged, history) in _run_battery("E", settings):
        assert converged or iterations == settings.max_iterations, label


@pytest.mark.parametrize(
    "functional, settings",
    [
        ("E", SolveSettings(lam=1.4, epsilon=0.02, grid_n=4000)),
        ("V", SolveSettings(lam=1.5, epsilon=0.02, mu=200.0)),
    ],
)
def test_every_point_the_descent_evaluates_is_feasible(functional, settings):
    """Backtracking trials are convex combinations x + t d of two feasible
    points and are never projected: they must stay feasible anyway.  E:
    H >= 0 exactly and d * sum(H) is 1 within 1e-12.  V: the
    ends are exactly 0 and 1 and h never drops."""
    d = settings.lam / settings.grid_n
    seen = {"mass": 0.0, "points": 0, "projections": 0}

    def check(v):
        seen["points"] += 1
        if functional == "E":
            assert np.all(v >= 0.0)
            assert v.size == settings.grid_n
            mass = d * float(np.sum(v))
            seen["mass"] = max(seen["mass"], abs(mass - 1.0))
        else:
            assert v[0] == 0.0 and v[-1] == 1.0
            assert np.all(np.diff(v) >= 0.0)

    def count(v):
        seen["projections"] += 1

    # Every point whose energy is evaluated has its geometry built once.
    for _ in _run_battery(functional, settings, on_geometry=check, on_project=count):
        pass
    assert seen["mass"] <= 1e-12
    # Some of the checked points were backtracking trials, not projections.
    assert seen["points"] > seen["projections"]


def test_a_worker_whose_descent_fails_raises_and_leaves_no_worker(monkeypatch, forks, tmp_path):
    """An exception other than an overflow ends the worker it rose in.
    The call raises RuntimeError as soon as it reads that worker's closed
    pipe, without waiting for the descent the other worker is busy with;
    that worker is terminated, and no worker is left."""
    caller = os.getpid()
    faulted = tmp_path / "faulted"
    descend = regularized._descend

    def failing_in_workers(*args):
        if os.getpid() != caller:
            try:
                os.close(os.open(faulted, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                time.sleep(60.0)  # the other worker is busy all the while
            else:
                raise TypeError("a fault in a worker")
        return descend(*args)

    monkeypatch.setattr(regularized, "_descend", failing_in_workers)
    _on_cpus(monkeypatch, 2)
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker died with exit code 1"):
        minimize("V", LJ, [_BATTERIES[1][1]])
    assert time.perf_counter() - began < 30.0
    assert sorted(proc.exitcode for proc in forks) == [-signal.SIGTERM, 1]
    assert multiprocessing.active_children() == []


# (functional, settings, epsilons): rows whose starts share the workers.
# At these, a continuation wins row 1 of V and a row of E.
_ROWS = [
    (
        "E",
        SolveSettings(lam=1.4, epsilon=1.0, grid_n=300, max_iterations=60),
        (0.08, 0.04, 0.02, 0.01),
    ),
    (
        "V",
        SolveSettings(lam=1.5, epsilon=1.0, mu=200.0, grid_n=200, max_iterations=60),
        (0.04, 0.03, 0.02),
    ),
]


def test_bitwise_each_start_descends_exactly_once(monkeypatch, tmp_path):
    """Every start of every row, its battery and its continuation, is
    descended exactly once: in a worker when the starts are shared out,
    since the caller only schedules them, and in the caller on one CPU."""
    functional, settings, epsilons = _ROWS[0]
    rows = [dataclasses.replace(settings, epsilon=eps) for eps in epsilons]
    batteries = [_start_battery(_FUNCTIONALS[functional], LJ, row) for row in rows]
    starts = sum(map(len, batteries)) + len(rows) - 1
    log = tmp_path / "descents"
    descend = regularized._descend

    def recorded(x0, kind, settings, model):
        digest = hashlib.sha256(np.asarray(x0, dtype=float).tobytes()).hexdigest()
        # One short write per line to a file opened for appending, so the
        # lines of concurrent workers do not mix.
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {settings.epsilon!r} {digest}\n")
        return descend(x0, kind, settings, model)

    def records(cpus):
        log.write_text("", encoding="utf-8")
        _on_cpus(monkeypatch, cpus)
        minimize(functional, LJ, rows)
        return [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]

    monkeypatch.setattr(regularized, "_descend", recorded)
    caller = str(os.getpid())
    shared = records(3)
    keys = [key for _, key in shared]
    assert len(set(keys)) == len(keys) == starts
    assert caller not in {pid for pid, _ in shared}
    serial = records(1)
    assert {pid for pid, _ in serial} == {caller}
    assert sorted(key for _, key in serial) == sorted(keys)


@pytest.mark.parametrize("functional, settings, epsilons", _ROWS, ids=["E", "V"])
def test_bitwise_rows_on_every_cpu_are_the_one_cpu_rows(
    monkeypatch, forks, functional, settings, epsilons
):
    """One call solves every row: the starts of all rows share the
    workers, and each row's continuation waits for the row before it.
    Every field of every row is the one-CPU run's, and the one-CPU run's
    rows are a loop of one-row solves, each warm-started by the last."""
    rows = [dataclasses.replace(settings, epsilon=eps) for eps in epsilons]
    _on_cpus(monkeypatch, 1)
    loop, warm = [], None
    for row in rows:
        loop.append(minimize(functional, LJ, [row], warm)[0])
        warm = loop[-1].minimizer.values
    serial = minimize(functional, LJ, rows)
    assert forks == []
    _on_cpus(monkeypatch, 3)
    shared = minimize(functional, LJ, rows)
    _assert_workers_ended(forks, 3)
    assert len(serial) == len(shared) == len(loop) == len(rows)
    for mine, one_cpu, looped in zip(shared, serial, loop):
        _assert_results_bitwise(mine, one_cpu)
        _assert_results_bitwise(mine, looped)
    # A continuation won at least one row, so a hand-off was exercised.
    assert "continuation" in [result.start_label for result in shared[1:]]


def test_bitwise_many_short_rows_on_more_workers_than_cores_are_the_one_cpu_rows(
    monkeypatch, forks
):
    """Stress the scheduler: twelve rows of short descents on eight
    workers, more than the machine has cores, so rows finish out of
    order.  A lost update of a row's count, best energy or best start
    would change a winner or drop a continuation."""
    settings = SolveSettings(lam=1.4, epsilon=1.0, grid_n=32, max_iterations=15, multistart=4)
    rows = [dataclasses.replace(settings, epsilon=0.2 * 0.8**k) for k in range(12)]
    _on_cpus(monkeypatch, 1)
    serial = minimize("E", LJ, rows)
    _on_cpus(monkeypatch, 8)
    for _ in range(3):
        shared = minimize("E", LJ, rows)
        for mine, one_cpu in zip(shared, serial, strict=True):
            _assert_results_bitwise(mine, one_cpu)
    _assert_workers_ended(forks, 24)
    assert "continuation" in [result.start_label for result in serial]


@pytest.mark.parametrize("functional, settings, epsilons", _ROWS, ids=["I", "V"])
def test_bitwise_sweeps_on_every_cpu_are_the_one_cpu_sweeps(
    monkeypatch, forks, functional, settings, epsilons
):
    """A sweep hands all its rows to one minimize call, which forks its
    workers once; every field of every row is the one-CPU sweep's."""
    sweep = gamma_sweep_I if functional == "E" else gamma_sweep_V
    _on_cpus(monkeypatch, 1)
    serial = sweep(LJ, epsilons, settings)
    assert forks == []
    _on_cpus(monkeypatch, 3)
    shared = sweep(LJ, epsilons, settings)
    _assert_workers_ended(forks, 3)
    assert len(shared.rows) == len(epsilons)
    assert repr(shared.rows) == repr(serial.rows)
    assert shared.rows == serial.rows
    assert shared.metadata == serial.metadata


def test_bitwise_newton_sweeps_on_every_cpu_are_the_one_cpu_sweeps(monkeypatch, forks):
    """An E sweep whose cap lets descents reach the Newton phase: some
    starts certify there and one stalls, which ends its descent.  Every
    row is converged, and every field of every row is the one-CPU
    sweep's."""
    settings = SolveSettings(lam=1.4, epsilon=1.0, grid_n=200, max_iterations=1500, multistart=1)
    epsilons = (0.08, 0.04, 0.02, 0.01)
    outcomes = []  # (iterations spent, converged) of each Newton phase in the caller
    newton = regularized._newton

    def recorded(*args):
        out = newton(*args)
        outcomes.append(out[2:])
        return out

    monkeypatch.setattr(regularized, "_newton", recorded)
    _on_cpus(monkeypatch, 1)
    serial = gamma_sweep_I(LJ, epsilons, settings)
    assert any(converged for _, converged in outcomes)
    assert any(not converged and taken < 1500 - _NEWTON_AFTER for taken, converged in outcomes)
    assert all(row.converged for row in serial.rows)
    _on_cpus(monkeypatch, 3)
    shared = gamma_sweep_I(LJ, epsilons, settings)
    _assert_workers_ended(forks, 3)
    assert repr(shared.rows) == repr(serial.rows)
    assert shared.rows == serial.rows
    assert shared.metadata == serial.metadata


def test_a_stalled_newton_phase_ends_its_descent(monkeypatch):
    """The Newton sweep above on one CPU: a descent whose Newton phase
    stalls stops there, unconverged and below the cap, after its
    ``_NEWTON_AFTER`` first-order iterations and the phase's own, at the
    phase's last point and energy, which ends its history."""
    settings = SolveSettings(lam=1.4, epsilon=1.0, grid_n=200, max_iterations=1500, multistart=1)
    epsilons = (0.08, 0.04, 0.02, 0.01)
    phases, descents = [], []  # each Newton phase; each descent with its phase or None
    newton, descend = regularized._newton, regularized._descend

    def recorded_newton(*args):
        out = newton(*args)
        phases.append(out)
        return out

    def recorded_descend(*args):
        before = len(phases)
        out = descend(*args)
        descents.append((phases[before] if len(phases) > before else None, out))
        return out

    monkeypatch.setattr(regularized, "_newton", recorded_newton)
    monkeypatch.setattr(regularized, "_descend", recorded_descend)
    _on_cpus(monkeypatch, 1)
    gamma_sweep_I(LJ, epsilons, settings)
    assert len(phases) == sum(phase is not None for phase, _ in descents)
    stalled = [(phase, out) for phase, out in descents if phase is not None and not phase[-1]]
    assert stalled
    for phase, (x, fx, iterations, converged, history) in stalled:
        taken = phase[-2]
        assert iterations == _NEWTON_AFTER + taken < settings.max_iterations
        assert not converged
        assert np.array_equal(x, phase[0])
        assert history[-1] == fx == phase[1]


def test_a_shifted_newton_run_that_does_not_halve_its_residual_ends_the_descent(monkeypatch):
    """The Newton sweep above on one CPU: once the last ``_SHIFTED_WINDOW``
    directions of a Newton phase all needed a diagonal shift, the phase
    stalls where residual/tol has not halved over them, before the next
    direction and between two checks of the ``_NEWTON_WINDOW`` test.  The
    descent stops there, unconverged, after its ``_NEWTON_AFTER``
    first-order iterations and the phase's own, at the phase's last point.
    No earlier point of the phase met the test."""
    settings = SolveSettings(lam=1.4, epsilon=1.0, grid_n=200, max_iterations=1500, multistart=1)
    epsilons = (0.08, 0.04, 0.02, 0.01)
    phases, descents = [], []  # each Newton phase with its directions; each descent with its phase
    newton, direction, descend = regularized._newton, regularized._newton_direction, regularized._descend

    def ratio(x, gx, kind, settings):
        unit = x - kind.project(x - gx, settings.lam)
        return math.sqrt(unit @ unit) / (GTOL * (1.0 + math.sqrt(gx @ gx)))

    def recorded_direction(x, gx, geometry, kind, settings, model):
        out = direction(x, gx, geometry, kind, settings, model)
        phases[-1][1].append((ratio(x, gx, kind, settings), out[2]))
        return out

    def recorded_newton(x, fx, gx, geometry, kind, settings, model, *rest):
        phases.append([None, []])
        out = newton(x, fx, gx, geometry, kind, settings, model, *rest)
        gx = kind.gradient_at(kind.geometry(out[0], settings.lam), settings, model)
        phases[-1][0] = (out, ratio(out[0], gx, kind, settings))
        return out

    def recorded_descend(*args):
        before = len(phases)
        out = descend(*args)
        descents.append((phases[before] if len(phases) > before else None, out))
        return out

    monkeypatch.setattr(regularized, "_newton", recorded_newton)
    monkeypatch.setattr(regularized, "_newton_direction", recorded_direction)
    monkeypatch.setattr(regularized, "_descend", recorded_descend)
    _on_cpus(monkeypatch, 1)
    gamma_sweep_I(LJ, epsilons, settings)
    k = _SHIFTED_WINDOW

    def meets_the_test(steps, ratio_now):
        return len(steps) >= k and all(s for _, s in steps[-k:]) and ratio_now > 0.5 * steps[-k][0]

    stalled = []
    for phase, (x, fx, iterations, converged, history) in descents:
        if phase is None:
            continue
        (px, pfx, taken, pconverged), last_ratio = phase[0]
        steps = phase[1]
        if pconverged or taken % _NEWTON_WINDOW == 0 or not meets_the_test(steps, last_ratio):
            continue
        stalled.append(taken)
        assert len(steps) == taken
        assert not any(meets_the_test(steps[:j], steps[j][0]) for j in range(taken))
        assert iterations == _NEWTON_AFTER + taken < settings.max_iterations
        assert not converged
        assert np.array_equal(x, px)
        assert history[-1] == fx == pfx
    assert stalled


@pytest.mark.parametrize(
    "epsilons, message",
    [
        ((0.08, 0.04, 1e-320), "rescaled energy .* overflow"),
        ((1e153, 0.05, 0.04), "gradient .* overflow"),
    ],
    ids=["last-rescaled", "first-start"],
)
def test_bitwise_sweep_errors_on_every_cpu_are_the_serial_loops(
    monkeypatch, forks, epsilons, message
):
    """A row whose rescaled energy overflows, or whose starts' energy
    does, raises the serial loop's ValueError from a sweep on every CPU,
    and no worker is left behind."""
    settings = SolveSettings(lam=1.4, epsilon=1.0, grid_n=32, max_iterations=5)
    _on_cpus(monkeypatch, 1)
    with pytest.raises(ValueError, match=message) as serial:
        gamma_sweep_I(LJ, epsilons, settings)
    _on_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match=message) as shared:
        gamma_sweep_I(LJ, epsilons, settings)
    _assert_workers_ended(forks, 3)
    assert str(shared.value) == str(serial.value)


@pytest.mark.parametrize(
    "functional, settings",
    [
        ("E", SolveSettings(lam=0.8, epsilon=0.05, grid_n=100)),
        ("E", SolveSettings(lam=1.4, epsilon=0.05, grid_n=300, max_iterations=60)),
        ("V", SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=60)),
    ],
)
def test_backtracking_makes_no_projection(functional, settings):
    """Per iteration the descent projects exactly once, for the first
    trial, which also decides the stationarity test; the projection comes
    before the first energy evaluation, so no backtrack projects.  Each
    energy evaluation builds exactly one geometry, and the gradient reads
    the one its accepted point's energy built, so no gradient builds one.
    Events: P projection, X geometry, E energy, G gradient; an iteration
    ends at its gradient.  A stationarity test that passes with a step
    below 1 is confirmed by one more projection, PP.  E runs on the
    first-order loop, whose iterations these patterns describe."""
    events, logs, evaluated = [], [], [None]

    def energy(geometry):
        events.append("E")
        evaluated[0] = geometry

    def gradient(geometry):
        events.append("G")
        # The last point evaluated is the accepted one.
        assert geometry is evaluated[0]

    for _, (x, fx, iterations, converged, history) in _run_battery(
        functional, settings,
        on_geometry=lambda v: events.append("X"),
        on_energy=energy,
        on_project=lambda v: events.append("P"),
        on_gradient=gradient,
        first_order=True,
    ):
        log = "".join(events)
        events.clear()
        logs.append(log)
        # Set-up, accepted iterations, then at most one unfinished one:
        # converged (P, or PP) or a failed line search (P, then energies).
        assert re.fullmatch(r"PXEG(PP?(XE)+G)*(PP?|PP?(XE)+)?", log)
        assert log.count("X") == log.count("E")
        assert log.count("G") == len(history)
        assert converged == log.endswith("P")
        assert iterations == len(history) - 1 + (not log.endswith("G"))
    # Some trials backtracked, so the pattern was exercised.
    joined = "".join(logs)
    assert joined.count("E") > joined.count("G")


def test_minimize_is_bitwise_the_best_descent_of_the_battery():
    """``minimize`` hands the geometry of each accepted point from its
    energy to its gradient; the reference loop computes it afresh for
    every evaluation.  Equal bits over the whole battery show that no
    gradient reused the geometry of a rejected trial."""
    settings = SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=60)
    result = minimize("V", LJ, [settings])[0]
    runs = list(_run_battery("V", settings, descend=_descend_oracle))
    label, (x, fx, iterations, converged, history) = min(runs, key=lambda run: run[1][1])
    assert result.start_label == label
    assert np.array_equal(result.minimizer.values, x)
    assert (result.energy, result.iterations, result.converged) == (fx, iterations, converged)
    assert result.energy_history == history


def _blockwise_solve(off, diag, rhs):
    """np.linalg.solve of the tridiagonal system, one dense solve per block
    between zero off-diagonals, so that large systems stay small."""
    bounds = [0, *(np.flatnonzero(off == 0.0) + 1), diag.size]
    out = np.empty_like(rhs)
    for lo, hi in zip(bounds, bounds[1:]):
        block = np.diag(diag[lo:hi]) + np.diag(off[lo : hi - 1], 1) + np.diag(off[lo : hi - 1], -1)
        out[:, lo:hi] = np.linalg.solve(block, rhs[:, lo:hi].T).T
    return out


@pytest.mark.parametrize(
    "n", [3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100, 255, 256, 600, 1000, 1023, 1025, 4000, 4095, 5000]
)
def test_tridiagonal_solve_matches_numpy_solve(n):
    """Cyclic reduction against LAPACK on symmetric diagonally dominant
    systems of every size, 2^k - 1 or not, with zero off-diagonals where a
    free set has gaps.  Above 600 rows a zero every 200 rows keeps the
    dense blocks small."""
    rng = np.random.default_rng(n)
    off = rng.standard_normal(n - 1)
    off[rng.random(n - 1) < 0.1] = 0.0
    if n > 600:
        off[199::200] = 0.0
    coupling = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    diag = coupling * rng.uniform(1.0, 3.0, n) + rng.uniform(0.01, 1.0, n)
    rhs = rng.standard_normal((2, n))
    x = _tridiagonal_solve(off, diag, rhs)
    reference = _blockwise_solve(off, diag, rhs) if n > 600 else np.linalg.solve(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), rhs.T
    ).T
    assert x.shape == rhs.shape
    assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_tridiagonal_solve_matches_numpy_solve_on_the_E_hessian_of_a_free_set():
    """The system a Newton step solves: E's Hessian at a mollified start,
    restricted to a free set with gaps, for g_F and 1."""
    settings = SolveSettings(lam=1.4, epsilon=0.02, grid_n=500)
    kind = _FUNCTIONALS["E"]
    _, x = _start_battery(kind, LJ, settings)[1]  # mollified-endA
    geometry = kind.geometry(x, settings.lam)
    diag, off = kind.hessian_at(geometry, settings, LJ)
    g = kind.gradient_at(geometry, settings, LJ)
    free = (x > 0.0) | (g < g[x > 0.0].mean())
    free[[100, 101, 300]] = False
    assert (~free).sum() > 3
    links = np.where(free[1:] & free[:-1], off, 0.0)
    rhs = np.stack((np.where(free, g, 0.0), free.astype(float)))
    masked = np.where(free, diag, 1.0)
    dense = np.diag(masked) + np.diag(links, 1) + np.diag(links, -1)
    reference = np.linalg.solve(dense, rhs.T).T
    x = _tridiagonal_solve(links, masked, rhs)
    assert np.max(np.abs(x - reference)) <= 1e-9 * np.max(np.abs(reference))
    assert np.all(x[:, ~free] == 0.0)


def test_newton_phase_follows_the_first_order_iterations_and_certifies():
    """An E descent is first-order for its first ``_NEWTON_AFTER``
    iterations, bit for bit the descent capped there, and then certifies
    in Newton steps well inside the cap: its energy never rises, every
    iterate stays on the simplex, and the unit-step residual holds."""
    settings = SolveSettings(lam=1.4, epsilon=0.04, grid_n=1000, multistart=0)
    short = dataclasses.replace(settings, max_iterations=_NEWTON_AFTER)
    kind = _FUNCTIONALS["E"]
    d = settings.lam / settings.grid_n
    for label, x0 in _start_battery(kind, LJ, settings)[1:]:
        x, fx, iterations, converged, history = _descend(x0, kind, settings, LJ)
        capped = _descend(x0, kind, short, LJ)
        assert history[: _NEWTON_AFTER + 1] == capped[4], label
        assert converged and _NEWTON_AFTER < iterations < _NEWTON_AFTER + 100, (label, iterations)
        assert np.all(np.diff(history) <= 0.0)
        assert np.all(x >= 0.0) and abs(d * x.sum() - 1.0) <= 1e-12
        g = kind.gradient_at(kind.geometry(x, settings.lam), settings, LJ)
        residual = np.linalg.norm(x - kind.project(x - g, settings.lam))
        assert residual <= GTOL * (1.0 + np.linalg.norm(g))


# Rescaled energies of the Newton sweep below on grids of 200 and 400 cells,
# certified when the Newton phase followed 300 first-order iterations.
_BASINS = {
    200: (0.3769509478703704, 0.3763966551518996, 0.3739417352925649, 0.3606614734326024),
    400: (0.3770807924637285, 0.3769465646843626, 0.37638829156250786, 0.37394028340919083),
}


@pytest.mark.parametrize("grid_n", sorted(_BASINS))
def test_newton_phase_keeps_the_first_order_basin(monkeypatch, grid_n):
    """The first-order iterations before the Newton phase pick each
    descent's basin.  On coarse grids at small epsilon a phase that starts
    too early certifies another, higher minimum or stalls; after enough
    first-order iterations every row certifies the minimum it reached
    with 300 of them, to rounding."""
    settings = SolveSettings(
        lam=1.4, epsilon=1.0, grid_n=grid_n, max_iterations=1500, multistart=1
    )
    _on_cpus(monkeypatch, 1)
    rows = gamma_sweep_I(LJ, (0.08, 0.04, 0.02, 0.01), settings).rows
    assert all(row.converged for row in rows)
    for row, expected in zip(rows, _BASINS[grid_n], strict=True):
        assert row.rescaled_energy == pytest.approx(expected, rel=1e-9, abs=0.0), row.epsilon


# ------------------------------------------------------------ battery on every CPU


def _on_cpus(monkeypatch, n):
    """Make the process's affinity mask hold n CPUs, as minimize reads it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The worker processes minimize forks."""
    made = []
    start = multiprocessing.context.ForkProcess.start

    def counted(self):
        made.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
    return made


def _assert_workers_ended(forks, count):
    """``count`` workers were forked, each ended of itself, and none is left."""
    assert len(forks) == count
    assert all(proc.exitcode == 0 for proc in forks)
    assert multiprocessing.active_children() == []


def _assert_results_bitwise(mine, reference):
    assert np.array_equal(mine.minimizer.values, reference.minimizer.values)
    assert mine.minimizer.domain_length == reference.minimizer.domain_length
    for name in ("energy", "rescaled_energy", "iterations", "transition_count",
                 "converged", "start_label", "energy_history"):
        assert getattr(mine, name) == getattr(reference, name), name


# E's cap stops its starts short of the Newton phase, so the warm start, the
# minimizer of a run twice as long, wins as the continuation.
_BATTERIES = [
    ("E", SolveSettings(lam=1.4, epsilon=0.05, grid_n=300, max_iterations=40)),
    ("V", SolveSettings(lam=1.5, epsilon=0.04, mu=200.0, grid_n=200, max_iterations=60)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("functional, settings", _BATTERIES, ids=["E", "V"])
def test_minimize_on_every_cpu_is_bitwise_the_one_cpu_run(
    monkeypatch, forks, functional, settings, warm
):
    """Workers descend the starts and the caller schedules them; every
    field of the result, history and start label included, is the one-CPU
    run's."""
    x0 = None
    if warm:
        longer = dataclasses.replace(settings, max_iterations=2 * settings.max_iterations)
        _on_cpus(monkeypatch, 1)
        x0 = minimize(functional, LJ, [longer])[0].minimizer.values
    _on_cpus(monkeypatch, 1)
    serial = minimize(functional, LJ, [settings], x0)[0]
    assert forks == []
    _on_cpus(monkeypatch, 3)
    shared = minimize(functional, LJ, [settings], x0)[0]
    _assert_workers_ended(forks, 3)
    _assert_results_bitwise(shared, serial)
    if warm:
        assert shared.start_label == "continuation"


def test_bitwise_tie_goes_to_the_earlier_start_on_every_cpu(monkeypatch, forks):
    """A warm start equal to the homogeneous one descends to the same
    bits.  Whichever of the two workers finishes first, the earlier start
    wins."""
    settings = SolveSettings(lam=0.9, epsilon=0.05, mu=200.0, grid_n=128, multistart=0)
    (label, x0), = _start_battery(_FUNCTIONALS["V"], LJ, settings)
    _on_cpus(monkeypatch, 2)
    result = minimize("V", LJ, [settings], x0.copy())[0]
    _assert_workers_ended(forks, 2)
    assert (label, result.start_label) == ("homogeneous", "homogeneous")


def test_bitwise_overflow_error_on_every_cpu_is_the_serial_loops(monkeypatch, forks):
    """An epsilon whose energy overflows on the grid raises the serial
    loop's ValueError, and no worker is left behind."""
    settings = SolveSettings(lam=1.5, epsilon=1e153, grid_n=32, max_iterations=5)
    _on_cpus(monkeypatch, 1)
    with pytest.raises(ValueError, match="overflow") as serial:
        minimize("E", LJ, [settings])
    _on_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="overflow") as shared:
        minimize("E", LJ, [settings])
    _assert_workers_ended(forks, 3)
    assert str(shared.value) == str(serial.value)


def test_bitwise_no_worker_forks_beside_a_running_thread(monkeypatch, forks):
    """Forking a process that runs another thread is unsafe: then the
    caller descends every start itself."""
    settings = _BATTERIES[1][1]
    _on_cpus(monkeypatch, 1)
    serial = minimize("V", LJ, [settings])[0]
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        _on_cpus(monkeypatch, 3)
        shared = minimize("V", LJ, [settings])[0]
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert forks == []
    assert multiprocessing.active_children() == []
    _assert_results_bitwise(shared, serial)


@pytest.mark.parametrize(
    "functional, settings",
    [
        ("E", SolveSettings(lam=0.8, epsilon=0.05, grid_n=100)),
        ("V", SolveSettings(lam=0.9, epsilon=0.05, mu=200.0, grid_n=128)),
        ("E", SolveSettings(lam=1.0, epsilon=0.05, grid_n=100)),
        ("V", SolveSettings(lam=0.9, epsilon=0.002, mu=200.0, grid_n=4000, multistart=0)),
    ],
)
def test_a_converged_descent_meets_the_unit_step_residual(functional, settings):
    """``converged`` promises ||x - P(x - g)|| <= GTOL (1 + ||g||) at the
    returned point.  The descent decides it from its first trial, so check
    it here with the projection the descent no longer makes."""
    kind = _FUNCTIONALS[functional]
    converged = 0
    for _, (x, fx, iterations, conv, history) in _run_battery(functional, settings):
        if conv:
            g = kind.gradient_at(kind.geometry(x, settings.lam), settings, LJ)
            residual = np.linalg.norm(x - kind.project(x - g, settings.lam))
            assert residual <= GTOL * (1.0 + np.linalg.norm(g))
            converged += 1
    assert converged


def test_a_step_that_rounds_away_does_not_fake_convergence():
    """From the homogeneous V state at N = 4000 the Barzilai-Borwein step
    falls to ~5e-10, and x - step * g rounds back to x at all but the end
    nodes, so the first trial's residual reads 0.  The unit-step residual
    there is hundreds of times the tolerance: the descent must go on and
    stop without claiming convergence, at the same energy."""
    settings = SolveSettings(lam=1.5, epsilon=0.08, mu=200.0, grid_n=4000)
    kind = _FUNCTIONALS["V"]
    (label, x0), *_ = _start_battery(kind, LJ, settings)
    x, fx, iterations, converged, history = _descend(x0, kind, settings, LJ)
    g = kind.gradient_at(kind.geometry(x, settings.lam), settings, LJ)
    residual = np.linalg.norm(x - kind.project(x - g, settings.lam))
    assert label == "homogeneous"
    assert residual > GTOL * (1.0 + np.linalg.norm(g))
    assert not converged and iterations < settings.max_iterations
    assert fx / settings.epsilon == pytest.approx(1.3888888889, rel=1e-10)


# ------------------------------------------------------------ lower bound


def test_modica_mortola_bound_on_iterates():
    settings = SolveSettings(lam=1.4, epsilon=0.02, grid_n=2000)
    result = minimize("E", LJ, [settings])[0]
    bound = mm_lower_bound_H(result.minimizer, LJ)
    assert result.rescaled_energy >= bound * 0.98
    # And on a hand-built mollified field.
    pc = PiecewiseConstantField(1.4, (1.0,), (1.0, 0.0))
    field = mollify_sharp_candidate(pc, 0.02, LJ, 2000)
    assert eval_E_eps(field, 0.02, LJ) / 0.02 >= mm_lower_bound_H(field, LJ) * 0.98


def test_phi_interpolator_matches_closed_form():
    phi = phi_interpolator(LJ, s_max=1.0)
    # Phi(1) is the surface constant itself.
    assert float(phi(1.0)) == pytest.approx(C_LJ, abs=1e-6)


def test_settings_validation():
    with pytest.raises(ValueError):
        SolveSettings(lam=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        SolveSettings(lam=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        SolveSettings(lam=1.0, epsilon=0.1, grid_n=8)
    with pytest.raises(ValueError):
        SolveSettings(lam=1.0, epsilon=0.1, mu=-5.0)
    for bad in (-3, 1001, 10**15):
        with pytest.raises(ValueError, match="multistart"):
            SolveSettings(lam=1.0, epsilon=0.1, multistart=bad)
    assert SolveSettings(lam=1.0, epsilon=0.1, multistart=1000).multistart == 1000
    with pytest.raises(ValueError, match="seed"):
        SolveSettings(lam=1.0, epsilon=0.1, seed=-1)
    # epsilon**2 would overflow: 1.35e154 is just above sqrt(float max).
    for big in (1.35e154, 1e200):
        with pytest.raises(ValueError, match="epsilon"):
            SolveSettings(lam=1.0, epsilon=big)
    assert SolveSettings(lam=1.0, epsilon=1e154).epsilon == 1e154
    for bad in (math.nan, math.inf, -math.inf):
        for key in ("lam", "epsilon", "mu"):
            with pytest.raises(ValueError, match=key):
                SolveSettings(**{"lam": 1.0, "epsilon": 0.1, key: bad})
    assert SolveSettings(lam=1.0, epsilon=0.1, multistart=0).multistart == 0
    # Counts must be integers: grid_n 32.5 solved on 33 cells and
    # max_iterations 5.5 ran 6 iterations; multistart and seed 1.5 raised
    # TypeError inside numpy.
    for key in ("grid_n", "max_iterations", "multistart", "seed"):
        for bad in (32.5, 5.5, 1.5, 32.0, "32", None):
            with pytest.raises(ValueError, match=key):
                SolveSettings(**{"lam": 1.0, "epsilon": 0.1, key: bad})
    settings = SolveSettings(
        lam=1.0, epsilon=0.1, grid_n=np.int64(32), max_iterations=np.int32(5),
        multistart=np.uint8(1), seed=np.int16(3),
    )
    assert (settings.grid_n, settings.max_iterations, settings.multistart, settings.seed) == (32, 5, 1, 3)


def test_discrete_field_validation():
    with pytest.raises(ValueError):
        DiscreteField(1.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        DiscreteField(1.0, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        DiscreteField(-1.0, np.zeros(5))
