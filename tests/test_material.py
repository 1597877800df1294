import math

import numpy as np
import pytest

from fracture1d.material import (
    DirectDensityView,
    MaterialModel,
    NonConvergence,
    adaptive_quadrature,
    builtin_lj,
    c_wstar,
    check_growth,
    polynomial_model,
    resolve_model,
    surface_constant_quadrature,
)

C_LJ = 4.0 * math.sqrt(2.0) / 15.0


def zero_model():
    # Intentionally degenerate; bypasses registration on purpose.
    return MaterialModel("zero", lambda h: 0.0 * np.asarray(h), lambda h: 0.0 * np.asarray(h), (0.25, 2.0))


def test_lj_wells():
    lj = builtin_lj()
    assert lj.wstar(1.0) == 0.0
    assert lj.wstar(0.0) == 0.0
    assert lj.wstar(0.5) == pytest.approx(0.125, abs=0.0)


def test_lj_densities_are_bitwise_their_closed_forms():
    """The densities build their result in place, with the closed forms'
    bits; the input is left as it was, and a scalar gives a float."""
    lj = builtin_lj()
    h = np.random.default_rng(7).uniform(-1.0, 3.0, 10001)
    before = h.copy()
    assert np.array_equal(lj.wstar(h), h * (1.0 - h) ** 2)
    assert np.array_equal(lj.wstar_prime(h), (1.0 - h) * (1.0 - 3.0 * h))
    assert np.array_equal(h, before)
    for value in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(lj.wstar(value)) is float and type(lj.wstar_prime(value)) is float
    x = 0.3
    assert lj.wstar(x) == x * (1.0 - x) ** 2
    assert lj.wstar_prime(x) == (1.0 - x) * (1.0 - 3.0 * x)


def test_lj_two_well_positivity():
    lj = builtin_lj()
    grid = np.linspace(0.01, 0.99, 500)
    assert np.min(lj.wstar(grid)) > 0.0


def test_lj_derivative_matches_finite_differences():
    lj = builtin_lj()
    rng = np.random.default_rng(7)
    h = rng.uniform(0.0, 3.0, size=200)
    step = 1e-6
    fd = (lj.wstar(h + step) - lj.wstar(h - step)) / (2.0 * step)
    rel = np.abs(fd - lj.wstar_prime(h)) / (1.0 + np.abs(fd))
    assert np.max(rel) <= 1e-6


def test_growth_check_passes_for_lj():
    report = check_growth(builtin_lj(), samples=200)
    assert report.passed
    assert report.worst_margin >= 0.0


def test_growth_check_fails_for_zero_model():
    report = check_growth(zero_model(), samples=100)
    assert not report.passed
    assert report.worst_margin < 0.0


def test_growth_check_fails_for_too_large_constant():
    lj = builtin_lj()
    tight = MaterialModel("lj-tight", lj.wstar, lj.wstar_prime, (2.0, 2.0))
    report = check_growth(tight, samples=150)
    assert not report.passed
    # At H = 2 the density is 2 while the claimed bound is 2 * 4.
    assert report.worst_margin < -1.0


def test_growth_check_rejects_small_sample_counts():
    with pytest.raises(ValueError):
        check_growth(builtin_lj(), samples=50)


def test_c_wstar_lj_value():
    assert c_wstar(builtin_lj()) == pytest.approx(C_LJ, abs=1e-10)


def test_c_wstar_zero_model():
    assert c_wstar(zero_model()) == 0.0


def test_c_wstar_quartic_closed_form():
    # Integrand 2*tau*(1 - tau), closed-form integral 1/3.
    quartic = polynomial_model("quartic", [0.0, 0.0, 2.0, -4.0, 2.0])
    assert c_wstar(quartic) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_quadrature_error_estimate_brackets_truth():
    value, err = surface_constant_quadrature(builtin_lj(), 1e-8)
    assert abs(value - C_LJ) <= max(err, 1e-8)


def test_quadrature_consistency_under_tightening():
    lj = builtin_lj()
    tols = [1e-4 / 2**k for k in range(0, 22, 3)]
    finest, _ = surface_constant_quadrature(lj, tols[-1] / 8.0)
    dist = [abs(surface_constant_quadrature(lj, t)[0] - finest) for t in tols]
    for coarser, finer in zip(dist, dist[1:]):
        assert finer <= coarser + 2e-15


def test_quadrature_nonconvergence_at_absurd_tolerance():
    with pytest.raises(NonConvergence) as info:
        surface_constant_quadrature(builtin_lj(), 1e-30)
    assert info.value.value == pytest.approx(C_LJ, abs=1e-10)


@pytest.mark.parametrize("abs_tol", [math.nan, math.inf])
def test_adaptive_quadrature_rejects_a_non_finite_tolerance(abs_tol):
    calls = []

    def integrand(t):
        calls.append(t)
        return np.ones_like(t)

    with pytest.raises(ValueError, match="abs_tol"):
        adaptive_quadrature(integrand, 0.0, 1.0, abs_tol)
    assert calls == []


def test_direct_view_matches_lennard_jones_closed_form():
    view = DirectDensityView(builtin_lj())
    for f in (0.5, 1.0, 2.0, 5.0):
        expected = (1.0 - 1.0 / f) ** 2
        assert view.w(f) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert view.w(1.0) == 0.0


def test_direct_view_rejects_nonpositive_stretch():
    view = DirectDensityView(builtin_lj())
    with pytest.raises(ValueError):
        view.w(0.0)


def test_polynomial_model_reproduces_lj():
    poly = polynomial_model("lj-poly", [0.0, 1.0, -2.0, 1.0])
    h = np.linspace(0.0, 3.0, 301)
    assert np.max(np.abs(poly.wstar(h) - builtin_lj().wstar(h))) < 1e-12
    assert c_wstar(poly) == pytest.approx(C_LJ, abs=1e-10)


def test_polynomial_model_rejects_missing_well():
    with pytest.raises(ValueError):
        polynomial_model("bad", [0.1, 1.0, -2.0, 1.0])  # wstar(0) != 0


def test_polynomial_model_rejects_negative_density():
    with pytest.raises(ValueError):
        polynomial_model("bad", [0.0, -1.0, 1.0])


def test_resolve_model_names():
    assert resolve_model("lj").name == "lj"
    custom = {"mine": polynomial_model("mine", [0.0, 1.0, -2.0, 1.0])}
    assert resolve_model("mine", custom).name == "mine"
    with pytest.raises(KeyError):
        resolve_model("nope")


def test_builtin_growth_constants_verified_at_construction():
    c, m = builtin_lj().growth_constants
    assert c == 0.25 and m == 2.0
    hs = np.linspace(m, 10 * m, 500)
    assert np.all(builtin_lj().wstar(hs) >= c * hs**2)
