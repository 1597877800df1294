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
    validate_model,
)

C_LJ = 4.0 * math.sqrt(2.0) / 15.0


def zero_model():
    # Intentionally degenerate; bypasses registration on purpose.
    zero = lambda h: 0.0 * np.asarray(h)
    return MaterialModel("zero", zero, zero, zero, (0.25, 2.0))


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


def test_lj_wstar_second_is_bitwise_six_h_minus_four():
    lj = builtin_lj()
    h = np.random.default_rng(7).uniform(-1.0, 3.0, 10001)
    before = h.copy()
    assert np.array_equal(lj.wstar_second(h), 6.0 * h - 4.0)
    assert np.array_equal(h, before)
    for value in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(lj.wstar_second(value)) is float
    assert lj.wstar_second(0.3) == 6.0 * 0.3 - 4.0


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
    tight = MaterialModel("lj-tight", lj.wstar, lj.wstar_prime, lj.wstar_second, (2.0, 2.0))
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


@pytest.mark.parametrize(
    "coeffs", [[0.0, 1.0, -2.0, 1.0], [0.0, 0.0, 2.0, -4.0, 2.0], [0.0, 0.5, 0.5, -2.0, 1.0]]
)
def test_polynomial_model_second_derivative_is_its_coefficients(coeffs):
    poly = polynomial_model("poly", coeffs)
    h = np.linspace(-0.5, 3.0, 351)
    second = np.polynomial.polynomial.polyder(coeffs, 2)
    assert np.array_equal(poly.wstar_second(h), np.polynomial.polynomial.polyval(h, second))
    assert type(poly.wstar_second(0.25)) is float


def test_validate_model_rejects_a_wstar_second_off_the_central_differences():
    lj = builtin_lj()
    validate_model(MaterialModel("good", lj.wstar, lj.wstar_prime, lambda h: 6.0 * h - 4.0, (0.25, 2.0)))
    for wrong in (lambda h: 6.0 * h - 3.99, lambda h: 0.0 * h, lj.wstar_prime):
        bad = MaterialModel("bad", lj.wstar, lj.wstar_prime, wrong, (0.25, 2.0))
        with pytest.raises(ValueError, match="'bad': wstar_second disagrees with wstar_prime"):
            validate_model(bad)


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


# ------------------------------------------------- one quadrature per model


@pytest.fixture
def quadratures(monkeypatch):
    """A list that grows by one per run of the adaptive quadrature."""
    import fracture1d.material as material

    runs = []
    quadrature = material.adaptive_quadrature

    def counting(*args, **kwargs):
        runs.append(args[1:])
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(material, "adaptive_quadrature", counting)
    return runs


def test_builtin_lj_is_one_model_per_process():
    assert builtin_lj() is builtin_lj() is resolve_model("lj")


def test_a_v_sweep_integrates_once(quadratures):
    from dataclasses import replace

    from fracture1d.harness import gamma_sweep_V
    from fracture1d.regularized import SolveSettings

    model = replace(builtin_lj())  # a fresh instance, not yet integrated
    settings = SolveSettings(lam=1.5, epsilon=1.0, mu=200.0, grid_n=64, max_iterations=5)
    report = gamma_sweep_V(model, [0.1, 0.05], settings)
    assert len(report.rows) == 2
    assert len(quadratures) == 1


def test_sharp_and_scan_commands_integrate_once_per_process(quadratures, tmp_path, capsys):
    from fracture1d import cli

    builtin_lj.cache_clear()  # a new process's first model
    for _ in range(2):
        assert cli.main(["sharp", "--lambda", "1.5", "--mu", "200", "--out", str(tmp_path)]) == 0
        assert cli.main(["scan", "--mu", "200", "--lambda-min", "1", "--lambda-max", "1.2",
                         "--step", "0.1", "--out", str(tmp_path)]) == 0
    assert len(quadratures) == 1
    assert c_wstar(builtin_lj()) == pytest.approx(C_LJ, abs=1e-10)
    assert len(quadratures) == 1


def test_a_replaced_model_integrates_again(quadratures):
    from dataclasses import replace

    lj = builtin_lj()
    value = c_wstar(lj)
    before = len(quadratures)
    doubled = replace(lj, wstar=lambda h: 4.0 * lj.wstar(h))
    assert c_wstar(doubled) == pytest.approx(2.0 * value, abs=1e-10)
    assert len(quadratures) == before + 1
    assert c_wstar(lj) == value and c_wstar(doubled) == c_wstar(doubled)
    assert len(quadratures) == before + 1


def test_a_model_with_list_growth_constants_gets_its_constant(quadratures):
    lj = builtin_lj()
    listed = MaterialModel("lj-list", lj.wstar, lj.wstar_prime, lj.wstar_second, [0.25, 2.0])
    assert c_wstar(listed) == pytest.approx(C_LJ, abs=1e-10)
    assert c_wstar(listed) == c_wstar(listed)
    assert len(quadratures) == 1


def test_the_cwstar_command_integrates_at_every_call(quadratures, capsys):
    from fracture1d import cli

    c_wstar(builtin_lj())
    before = len(quadratures)
    for tol in ("1e-10", "1e-6", "1e-10"):
        assert cli.main(["cwstar", "--model", "lj", "--abs-tol", tol]) == 0
    assert len(quadratures) == before + 3
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == printed[2] != printed[1]
