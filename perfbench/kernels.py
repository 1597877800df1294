"""Per-call times of the public regularized kernels at fixed grid sizes.

Inputs are seeded fields shaped like the sweeps' iterates: V-type
inverse deformations (nondecreasing from 0 to 1, lambda 1.5, mu 200,
epsilon 0.02) and I-type inverse stretches (nonnegative with unit
integral, lambda 1.4, epsilon 0.01).  Each projection is fed a
perturbed feasible field, so it has constraints to restore the way a
descent step's trial point does.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

SIZES = (1000, 4000, 16000)
KERNELS = ("eval_V_eps", "grad_V_eps", "project_h", "eval_E_eps", "grad_E_eps", "project_H")
V_LAM, V_MU, V_EPS = 1.5, 200.0, 0.02
E_LAM, E_EPS = 1.4, 0.01


def metric_names() -> list[str]:
    return [f"regularized.{fn}.us.n{n}" for fn in KERNELS for n in SIZES]


def _bump(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Low-frequency sine series vanishing at both ends, peak 1."""
    out = sum(rng.standard_normal() / k * np.sin(k * np.pi * t) for k in range(1, 7))
    return out / np.max(np.abs(out))


def _median_us(fn, budget_s: float, min_calls: int) -> float:
    samples = []
    stop = perf_counter() + budget_s
    while len(samples) < min_calls or perf_counter() < stop:
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e6


def kernel_times(seed: int, budget_s: float = 0.05, min_calls: int = 5) -> dict[str, float]:
    """Median microseconds per call for every kernel and size."""
    from fracture1d import regularized as reg
    from fracture1d.material import builtin_lj

    model = builtin_lj()
    rng = np.random.default_rng(seed)
    out = {}
    for n in SIZES:
        t = np.linspace(0.0, 1.0, n + 1)
        h = reg.project_h(t + 0.05 * _bump(rng, t), V_LAM)
        h_trial = h.values + (0.5 / n) * rng.standard_normal(n + 1)
        big_h = reg.project_H((1.0 / E_LAM) * (1.0 + 0.6 * _bump(rng, t)), E_LAM)
        big_h_trial = big_h.values + 0.01 * rng.standard_normal(n + 1)
        calls = {
            "eval_V_eps": lambda: reg.eval_V_eps(h, V_EPS, V_MU, model),
            "grad_V_eps": lambda: reg.grad_V_eps(h, V_EPS, V_MU, model),
            "project_h": lambda: reg.project_h(h_trial, V_LAM),
            "eval_E_eps": lambda: reg.eval_E_eps(big_h, E_EPS, model),
            "grad_E_eps": lambda: reg.grad_E_eps(big_h, E_EPS, model),
            "project_H": lambda: reg.project_H(big_h_trial, E_LAM),
        }
        for fn in KERNELS:
            out[f"regularized.{fn}.us.n{n}"] = _median_us(calls[fn], budget_s, min_calls)
    return out
