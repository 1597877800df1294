import math

import numpy as np
import pytest

from fracture1d import harness
from fracture1d.harness import (
    ScanReport,
    SweepReport,
    SweepRow,
    crack_scan,
    gamma_sweep_I,
    gamma_sweep_V,
)
from fracture1d.material import builtin_lj, c_wstar
from fracture1d.regularized import SolveSettings, minimize
from fracture1d.sharp import (
    DomainError,
    build_sharp_minimizer,
    continuous_crack_estimate,
    crack_count,
    v_n,
)

LJ = builtin_lj()
C_LJ = 4.0 * math.sqrt(2.0) / 15.0


def test_crack_scan_staircase_mu200():
    report = crack_scan((1.0, 2.0), 0.01, 200.0, LJ)
    counts = [row.n for row in report.rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    by_lam = {round(row.lam, 6): row for row in report.rows}
    assert by_lam[1.5].n == 4
    assert by_lam[1.5].x == pytest.approx(3.5355, abs=5e-4)
    assert len(report.rows) == 99


def test_crack_scan_zero_stiffness_is_single_crack():
    report = crack_scan((1.0, 2.0), 0.05, 0.0, LJ)
    assert all(row.n == 1 for row in report.rows)


def test_crack_scan_special_stiffness_matches_bracket():
    # With mu = 3 * C the continuous estimate reduces to (lam-1)^(2/3).
    report = crack_scan((1.0, 3.0), 0.1, 3.0 * C_LJ, LJ)
    for row in report.rows:
        assert row.x == pytest.approx((row.lam - 1.0) ** (2.0 / 3.0), abs=1e-9)
        assert row.n == crack_count(C_LJ, 3.0 * C_LJ, row.lam)


def _scan_rows_from_the_builder(lambda_range, step, mu):
    """The scan loop that reads each row's positions off the built
    variant-A minimizer; its absolute end tolerance holds for loads near 1."""
    lo, hi = lambda_range
    cw = c_wstar(LJ)
    rows = []
    for i in range(1, int(round((hi - lo) / step)) + 1):
        lam = lo + i * step
        if lam >= hi - 1e-12 or lam <= lo + 1e-12:
            continue
        n = crack_count(cw, mu, lam)
        positions = tuple(pos for pos, _ in build_sharp_minimizer(n, lam, "A", cw, mu).cracks)
        rows.append(
            harness.ScanRow(
                lam, continuous_crack_estimate(cw, mu, lam), n, v_n(n, cw, mu, lam), positions
            )
        )
    return tuple(rows)


@pytest.mark.parametrize(
    "lambda_range, step, mu",
    [
        ((1.0, 2.0), 0.01, 0.0),
        ((1.0, 2.0), 0.01, 200.0),
        ((1.0, 2.0), 0.01, 2000.0),
        # Loads just above 1, where the plateaus are some 1e-9 long.
        ((1.0 + 1e-9, 1.0 + 1e-6), 1e-8, 200.0),
        # Some 18000 to 37000 cracks a row.
        ((1.0, 2.0), 0.25, 1e14),
    ],
)
def test_bitwise_crack_scan_rows_are_the_built_minimizers(lambda_range, step, mu):
    report = crack_scan(lambda_range, step, mu, LJ)
    reference = _scan_rows_from_the_builder(lambda_range, step, mu)
    assert len(report.rows) == len(reference) > 0
    assert report.rows == reference
    if mu == 1e14:
        assert 10**4 < report.rows[0].n < report.rows[-1].n < 10**5


def test_crack_scan_computes_each_row_once(monkeypatch):
    import fracture1d.sharp as sharp

    calls = {"x": 0, "v_n": 0}
    estimate, energy = sharp.continuous_crack_estimate, sharp.v_n

    def counting_estimate(*args):
        calls["x"] += 1
        return estimate(*args)

    def counting_v_n(*args):
        calls["v_n"] += 1
        return energy(*args)

    monkeypatch.setattr(sharp, "continuous_crack_estimate", counting_estimate)
    monkeypatch.setattr(sharp, "v_n", counting_v_n)
    # Below x = 1 the count is 1 and compares no energies: V_1 is the row's.
    rows = crack_scan((1.0, 2.0), 0.01, 200.0, LJ).rows
    compared = sum(row.x >= 1.0 for row in rows)
    assert 0 < compared < len(rows)
    assert calls == {"x": len(rows), "v_n": len(rows) + compared}


def test_crack_scan_raises_past_the_crack_bound():
    # About 4.5e98 cracks at the first load: no row is built.
    with pytest.raises(DomainError, match="crack count"):
        crack_scan((1.0, 2.0), 0.01, 1e300, LJ)
    # Some 660000 cracks at lambda 1.25 and 1050000 at the next row, 1.5.
    mu = 3.0 * C_LJ * 1.05e6**3 / 0.5**2
    assert crack_count(C_LJ, mu, 1.25) < 10**6 < crack_count(C_LJ, mu, 1.5)
    with pytest.raises(DomainError, match="crack count"):
        crack_scan((1.0, 2.0), 0.25, mu, LJ)


def test_crack_scan_leaves_out_both_ends_at_large_loads():
    # lo + 3 * step lands 5.8e-11 (one ulp) below the upper end here.
    report = crack_scan((300000.1, 300000.4), 0.1, 200.0, LJ)
    assert len(report.rows) == 2
    assert all(300000.1 < row.lam < 300000.4 for row in report.rows)
    assert len(crack_scan((1.0, 2.0), 0.01, 200.0, LJ).rows) == 99


def test_crack_count_monotone_in_mu():
    for lam in (1.2, 1.5, 1.8):
        counts = [crack_count(C_LJ, mu, lam) for mu in np.arange(10.0, 500.0, 10.0)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_softer_foundation_never_cracks_more():
    soft = crack_scan((1.0, 2.0), 0.02, 50.0, LJ)
    stiff = crack_scan((1.0, 2.0), 0.02, 200.0, LJ)
    for a, b in zip(soft.rows, stiff.rows):
        assert a.n <= b.n


def test_crack_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        crack_scan((0.5, 2.0), 0.01, 200.0, LJ)
    with pytest.raises(ValueError):
        crack_scan((1.0, 2.0), -0.1, 200.0, LJ)
    with pytest.raises(ValueError, match="step"):
        crack_scan((1.0, 2.0), math.nan, 200.0, LJ)
    with pytest.raises(ValueError, match="lambda range"):
        crack_scan((1.0, math.inf), 0.01, 200.0, LJ)
    # A positive step too small for the row count to be finite.
    with pytest.raises(ValueError, match="step"):
        crack_scan((1.0, 2.0), 1e-320, 200.0, LJ)
    # A finite row count far past any written scan (1e300 rows).
    with pytest.raises(ValueError, match="step"):
        crack_scan((1.0, 2.0), 1e-300, 200.0, LJ)
    # The range holds no row, so only the up-front check can see mu.
    with pytest.raises(ValueError, match="mu"):
        crack_scan((1.0, 1.005), 0.01, -5.0, LJ)


def test_sweep_report_validates_epsilon_order():
    row = SweepRow(0.1, 1.0, 1.0, 0, 0.0, None, None, 0.0, "x", True, False)
    row2 = SweepRow(0.2, 1.0, 1.0, 0, 0.0, None, None, 0.0, "x", True, False)
    with pytest.raises(ValueError):
        SweepReport((row, row2), {})


def test_sweep_I_unloaded_bar_relaxes_to_uniform():
    report = gamma_sweep_I(LJ, [0.08, 0.04], SolveSettings(lam=1.0, epsilon=1.0, grid_n=256))
    last = report.rows[-1]
    assert last.rescaled_energy <= 1e-8
    assert last.l1_distance_to_sharp <= 1e-6
    assert last.transition_count == 0


def test_sweep_I_compressed_bar_stays_homogeneous():
    report = gamma_sweep_I(LJ, [0.08, 0.04], SolveSettings(lam=0.8, epsilon=1.0, grid_n=256))
    for row in report.rows:
        assert row.energy == pytest.approx(0.0625, abs=1e-6)
        assert row.nearest_candidate == "homogeneous"
        assert row.l1_distance_to_sharp <= 1e-4
        assert not row.suspect


def test_sweep_I_metadata_and_shape():
    report = gamma_sweep_I(LJ, [0.1, 0.05], SolveSettings(lam=1.0, epsilon=1.0, grid_n=128))
    assert report.metadata["functional"] == "I"
    assert [row.epsilon for row in report.rows] == [0.1, 0.05]
    assert all(math.isfinite(row.rescaled_energy) for row in report.rows)


def test_sweep_I_scores_the_L1_of_the_cell_values(monkeypatch):
    """E's values sit at the cell midpoints, where the references are
    sampled, and the distance to them is d * sum |H - H_ref|."""
    solved = []

    def recording(*args):
        solved.append(minimize(*args))
        return solved[-1]

    monkeypatch.setattr(harness, "minimize", recording)
    lam, n = 1.4, 200
    report = gamma_sweep_I(
        LJ, [0.08, 0.04], SolveSettings(lam=lam, epsilon=1.0, grid_n=n, max_iterations=100)
    )
    d = lam / n
    mids = (np.arange(n) + 0.5) * d
    refs = {"endA": np.where(mids < 1.0, 1.0, 0.0), "endB": np.where(mids < lam - 1.0, 0.0, 1.0)}
    # One call solves every row.
    assert len(solved) == 1
    assert len(solved[0]) == len(report.rows) == 2
    for row, result in zip(report.rows, solved[0]):
        assert np.array_equal(result.minimizer.points(), mids)
        dist = {name: d * np.sum(np.abs(result.minimizer.values - ref)) for name, ref in refs.items()}
        assert row.nearest_candidate == min(dist, key=dist.get)
        assert row.l1_distance_to_sharp == pytest.approx(dist[row.nearest_candidate], rel=1e-12)


def test_sweep_V_identity_load():
    report = gamma_sweep_V(
        LJ, [0.08, 0.04], SolveSettings(lam=1.0, epsilon=1.0, mu=200.0, grid_n=256)
    )
    last = report.rows[-1]
    assert last.rescaled_energy <= 1e-8
    assert last.sup_distance <= 1e-6
    assert last.transition_count == 0


def test_sweep_V_without_foundation_matches_interface_cost():
    report = gamma_sweep_V(LJ, [0.04, 0.02], SolveSettings(lam=1.4, epsilon=1.0, grid_n=1000))
    last = report.rows[-1]
    assert last.transition_count == 1
    assert last.rescaled_energy == pytest.approx(C_LJ, rel=0.15)
    assert last.rescaled_energy >= 0.98 * last.mm_lower_bound
    assert not any(row.suspect for row in report.rows)


@pytest.mark.parametrize(
    "sweep, candidates",
    [
        (gamma_sweep_V, ["variantA(n=1)", "variantB(n=1)"]),
        (gamma_sweep_I, ["endA", "endB"]),
    ],
)
def test_sweep_just_above_unit_load_scores_against_the_cracked_references(sweep, candidates):
    """Any lambda > 1 stretches the bar, as in ``sharp``, which gives
    n = 1 and V = c_wstar at lambda = 1 + 1e-13."""
    settings = SolveSettings(lam=1.0 + 1e-13, epsilon=1.0, mu=200.0, grid_n=64, max_iterations=5)
    report = sweep(LJ, [0.1], settings)
    assert report.metadata["candidates"] == candidates
    assert report.rows[0].nearest_candidate in candidates


def test_sweep_rejects_unsorted_epsilons():
    settings = SolveSettings(lam=1.0, epsilon=1.0, grid_n=128)
    with pytest.raises(ValueError):
        gamma_sweep_I(LJ, [0.01, 0.02], settings)
    with pytest.raises(ValueError):
        gamma_sweep_I(LJ, [], settings)


def test_scan_report_validates_lambda_order():
    report = crack_scan((1.0, 1.2), 0.05, 100.0, LJ)
    assert isinstance(report, ScanReport)
    lams = [row.lam for row in report.rows]
    assert lams == sorted(lams)


def test_crack_scan_raises_when_the_count_steps_down(monkeypatch):
    import fracture1d.harness as harness

    counts = iter([3, 2])
    monkeypatch.setattr(harness, "_crack_selection", lambda cw, mu, lam: (1.0, next(counts), 1.0))
    with pytest.raises(RuntimeError, match="crack count fell"):
        crack_scan((1.0, 1.3), 0.1, 200.0, LJ)
