import math

import numpy as np
import pytest

from fracture1d.harness import (
    ScanReport,
    SweepReport,
    SweepRow,
    crack_scan,
    gamma_sweep_I,
    gamma_sweep_V,
)
from fracture1d.material import builtin_lj
from fracture1d.regularized import SolveSettings
from fracture1d.sharp import crack_count

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


def test_sweep_report_validates_epsilon_order():
    row = SweepRow(0.1, 1.0, 1.0, 0, 0.0, None, None, 0.0, "x", True, False)
    row2 = SweepRow(0.2, 1.0, 1.0, 0, 0.0, None, None, 0.0, "x", True, False)
    with pytest.raises(ValueError):
        SweepReport((row, row2), {})


def test_sweep_I_unloaded_bar_relaxes_to_uniform():
    report = gamma_sweep_I(
        1.0, LJ, [0.08, 0.04], 256, SolveSettings(lam=1.0, epsilon=1.0, grid_n=256)
    )
    last = report.rows[-1]
    assert last.rescaled_energy <= 1e-8
    assert last.l1_distance_to_sharp <= 1e-6
    assert last.transition_count == 0


def test_sweep_I_compressed_bar_stays_homogeneous():
    report = gamma_sweep_I(
        0.8, LJ, [0.08, 0.04], 256, SolveSettings(lam=0.8, epsilon=1.0, grid_n=256)
    )
    for row in report.rows:
        assert row.energy == pytest.approx(0.0625, abs=1e-6)
        assert row.nearest_candidate == "homogeneous"
        assert row.l1_distance_to_sharp <= 1e-4
        assert not row.suspect


def test_sweep_I_metadata_and_shape():
    report = gamma_sweep_I(
        1.0, LJ, [0.1, 0.05], 128, SolveSettings(lam=1.0, epsilon=1.0, grid_n=128)
    )
    assert report.metadata["functional"] == "I"
    assert [row.epsilon for row in report.rows] == [0.1, 0.05]
    assert all(math.isfinite(row.rescaled_energy) for row in report.rows)


def test_sweep_V_identity_load():
    report = gamma_sweep_V(
        1.0, 200.0, LJ, [0.08, 0.04], 256, SolveSettings(lam=1.0, epsilon=1.0, grid_n=256)
    )
    last = report.rows[-1]
    assert last.rescaled_energy <= 1e-8
    assert last.sup_distance <= 1e-6
    assert last.transition_count == 0


def test_sweep_V_without_foundation_matches_interface_cost():
    report = gamma_sweep_V(
        1.4, 0.0, LJ, [0.04, 0.02], 1000,
        SolveSettings(lam=1.4, epsilon=1.0, grid_n=1000),
    )
    last = report.rows[-1]
    assert last.transition_count == 1
    assert last.rescaled_energy == pytest.approx(C_LJ, rel=0.15)
    assert last.rescaled_energy >= 0.98 * last.mm_lower_bound
    assert not any(row.suspect for row in report.rows)


def test_sweep_rejects_unsorted_epsilons():
    with pytest.raises(ValueError):
        gamma_sweep_I(1.0, LJ, [0.01, 0.02], 128)
    with pytest.raises(ValueError):
        gamma_sweep_I(1.0, LJ, [], 128)


def test_scan_report_validates_lambda_order():
    report = crack_scan((1.0, 1.2), 0.05, 100.0, LJ)
    assert isinstance(report, ScanReport)
    lams = [row.lam for row in report.rows]
    assert lams == sorted(lams)


def test_crack_scan_raises_when_the_count_steps_down(monkeypatch):
    import fracture1d.harness as harness

    counts = iter([3, 2])
    monkeypatch.setattr(harness, "crack_count", lambda cw, mu, lam: next(counts))
    with pytest.raises(RuntimeError, match="crack count fell"):
        crack_scan((1.0, 1.3), 0.1, 200.0, LJ)
