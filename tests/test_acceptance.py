"""Acceptance gate: one test per criterion, stated tolerances, wall-clock
bounds included.  Each test prints a PASS/FAIL line (visible under -s)."""

import math
import time

import numpy as np
import pytest

from fracture1d.harness import crack_scan, gamma_sweep_I, gamma_sweep_V
from fracture1d.material import builtin_lj
from fracture1d.regularized import (
    DiscreteField,
    SolveSettings,
    eval_E_eps,
    eval_V_eps,
    grad_E_eps,
    grad_V_eps,
    minimize,
    project_H,
    project_h,
)
from fracture1d.sharp import (
    brute_force_segments,
    build_sharp_minimizer,
    continuous_crack_estimate,
    crack_count,
    eval_V,
    v_n,
)
from fracture1d.cli import main

LJ = builtin_lj()
C_LJ = 4.0 * math.sqrt(2.0) / 15.0
V4 = 2.0293
MU, LAM = 200.0, 1.5


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_surface_energy_constant(capsys):
    start = time.perf_counter()
    code = main(["cwstar", "--model", "lj"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    value = float(out.split()[0])
    assert code == 0
    assert abs(value - 0.37712361663) <= 1e-10
    assert elapsed < 1.0
    _report(1, f"cwstar lj = {value:.11f} (+/-1e-10) in {elapsed:.2f}s")


def test_criterion_02_crack_count_law():
    x = continuous_crack_estimate(C_LJ, MU, LAM)
    n = crack_count(C_LJ, MU, LAM)
    assert abs(x - 3.5355) <= 5e-4
    assert n == 4
    _report(2, f"crack_count = {n} with x = {x:.4f}")


def test_criterion_03_minimum_energies():
    v4 = v_n(4, C_LJ, MU, LAM)
    v3 = v_n(3, C_LJ, MU, LAM)
    assert abs(v4 - 2.0293) <= 1e-3
    # Direct evaluation of the closed form; the printed 2.0753 in the
    # source narrative is inconsistent with it, and n = 4 either way.
    assert abs(v3 - 2.05730) <= 1e-5
    assert v4 < v3
    _report(3, f"V_4 = {v4:.5f}, V_3 = {v3:.5f}")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_04_equal_spacing(n):
    start = time.perf_counter()
    result = brute_force_segments(n, LAM, C_LJ, MU)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(np.asarray(result.lengths) - LAM / n)) <= 1e-4
    assert abs(result.energy - v_n(n, C_LJ, MU, LAM)) <= 1e-6
    assert elapsed < 60.0
    _report(4, f"n={n}: lengths all {LAM / n:.4f} (+/-1e-4) in {elapsed:.1f}s")


def test_criterion_05_compression_homogeneous():
    start = time.perf_counter()
    st = SolveSettings(lam=0.8, epsilon=0.05, mu=200.0, grid_n=1000)
    res_e = minimize("E", LJ, [st])[0]
    assert np.max(np.abs(res_e.minimizer.values - 1.25)) <= 1e-4
    assert abs(res_e.energy - 0.0625) <= 1e-6
    res_v = minimize("V", LJ, [st])[0]
    ramp = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(res_v.minimizer.values - ramp)) <= 1e-4
    assert abs(res_v.energy - 0.0625) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"both functionals homogeneous, energy 0.0625, {elapsed:.1f}s")


def test_criterion_06_gamma_sweep_interfacial():
    start = time.perf_counter()
    report = gamma_sweep_I(
        LJ, [0.08, 0.04, 0.02, 0.01], SolveSettings(lam=1.4, epsilon=1.0, grid_n=4000)
    )
    elapsed = time.perf_counter() - start
    last, prev = report.rows[-1], report.rows[-2]
    assert abs(last.rescaled_energy - C_LJ) <= 0.10 * C_LJ
    assert last.transition_count == 1
    assert last.l1_distance_to_sharp <= prev.l1_distance_to_sharp
    # Every row certified, at the converged discrete minima: E/epsilon
    # depends on d/epsilon alone and lies 0.0225 (d/epsilon)^2 below C.
    assert all(row.converged for row in report.rows)
    converged = [0.3771231873, 0.3771218926, 0.3771167198, 0.3770959765]
    for row, value in zip(report.rows, converged, strict=True):
        assert abs(row.rescaled_energy - value) <= 1e-9, row.epsilon
    assert elapsed < 600.0
    _report(
        6,
        f"final rescaled {last.rescaled_energy:.5f} vs C {C_LJ:.5f}, "
        f"1 transition, L1 {prev.l1_distance_to_sharp:.4f} -> "
        f"{last.l1_distance_to_sharp:.4f}, {elapsed:.0f}s",
    )


def test_criterion_07_gamma_sweep_foundation():
    start = time.perf_counter()
    report = gamma_sweep_V(
        LJ, [0.08, 0.04, 0.02, 0.01], SolveSettings(lam=LAM, epsilon=1.0, mu=MU, grid_n=4000)
    )
    elapsed = time.perf_counter() - start
    last = report.rows[-1]
    assert last.transition_count == 4
    assert abs(last.rescaled_energy - V4) <= 0.15 * V4
    for row in report.rows:
        assert row.rescaled_energy >= 0.98 * row.mm_lower_bound
    # Sweep sanity: at most one distance inversion above 5%.
    dists = [row.l1_distance_to_sharp for row in report.rows]
    inversions = sum(1 for a, b in zip(dists, dists[1:]) if b > 1.05 * a)
    assert inversions <= 1
    assert elapsed < 1200.0
    _report(
        7,
        f"final transitions 4, rescaled {last.rescaled_energy:.4f} vs "
        f"{V4}, all rows above the equipartition bound, {elapsed:.0f}s",
    )


def test_criterion_08_crack_staircase():
    start = time.perf_counter()
    report = crack_scan((1.0, 2.0), 0.01, MU, LJ)
    elapsed = time.perf_counter() - start
    counts = [row.n for row in report.rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    at_15 = next(row.n for row in report.rows if abs(row.lam - 1.5) < 1e-9)
    assert at_15 == 4
    assert elapsed < 5.0
    _report(8, f"staircase over {len(counts)} loads, n(1.5) = 4, {elapsed:.2f}s")


def test_criterion_09_gradient_suites():
    rng = np.random.default_rng(101)
    lam, eps, mu = 1.3, 0.05, 120.0
    step = 1e-6
    worst_e = worst_v = 0.0
    for _ in range(20):
        field = project_H(1.0 / lam + 0.4 * rng.standard_normal(41), lam)
        g = grad_E_eps(field, eps, LJ)
        fd = np.zeros_like(g)
        for i in range(g.size):
            vp = field.values.copy()
            vm = field.values.copy()
            vp[i] += step
            vm[i] -= step
            e_plus = eval_E_eps(DiscreteField(lam, vp), eps, LJ)
            e_minus = eval_E_eps(DiscreteField(lam, vm), eps, LJ)
            fd[i] = (e_plus - e_minus) / (2 * step)
        worst_e = max(worst_e, float(np.max(np.abs(fd - g) / (1.0 + np.abs(fd)))))

        base = project_h(np.linspace(0, 1, 41) + 0.1 * rng.standard_normal(41), lam)
        values = base.values.copy()
        values[1:-1] += 0.01 * rng.random(39)
        hf = DiscreteField(lam, values)
        g = grad_V_eps(hf, eps, mu, LJ)
        fd = np.zeros_like(g)
        for i in range(g.size):
            vp = values.copy()
            vm = values.copy()
            vp[i] += step
            vm[i] -= step
            v_plus = eval_V_eps(DiscreteField(lam, vp), eps, mu, LJ)
            v_minus = eval_V_eps(DiscreteField(lam, vm), eps, mu, LJ)
            fd[i] = (v_plus - v_minus) / (2 * step)
        worst_v = max(worst_v, float(np.max(np.abs(fd - g) / (1.0 + np.abs(fd)))))
    assert worst_e <= 1e-6
    assert worst_v <= 1e-6
    _report(9, f"gradient vs FD worst relative: E {worst_e:.2e}, V {worst_v:.2e}")


def test_criterion_10_opening_conservation_and_symmetry():
    rng = np.random.default_rng(202)
    worst_open = worst_sym = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lam = float(rng.uniform(1.0 + 1e-9, 3.0))
        mu = float(rng.uniform(0.0, 500.0))
        a = build_sharp_minimizer(n, lam, "A", C_LJ, mu)
        b = build_sharp_minimizer(n, lam, "B", C_LJ, mu)
        for m in (a, b):
            worst_open = max(
                worst_open, abs(sum(o for _, o in m.cracks) - (lam - 1.0))
            )
        worst_sym = max(
            worst_sym, abs(eval_V(a.field, C_LJ, mu) - eval_V(b.field, C_LJ, mu))
        )
    assert worst_open <= 1e-12
    assert worst_sym <= 1e-12
    _report(
        10,
        f"50 random triples: worst opening defect {worst_open:.2e}, "
        f"worst variant asymmetry {worst_sym:.2e}",
    )
