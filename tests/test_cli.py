import json
import math

import numpy as np
import pytest

from fracture1d.cli import main
from fracture1d.material import builtin_lj
from fracture1d.regularized import DiscreteField
from fracture1d.serialize import (
    discrete_csv,
    field_to_text,
    format_number,
    parse_field,
)
from fracture1d.sharp import (
    PiecewiseConstantField,
    build_sharp_minimizer,
    eval_I,
    eval_V,
)

C_LJ = 4.0 * math.sqrt(2.0) / 15.0


# ------------------------------------------------------------ serialization


def test_field_round_trip_linear():
    field = build_sharp_minimizer(4, 1.5, "A", C_LJ, 200.0).field
    parsed = parse_field(field_to_text(field))
    before = eval_V(field, C_LJ, 200.0)
    after = eval_V(parsed, C_LJ, 200.0)
    assert after == pytest.approx(before, abs=1e-12)


def test_field_round_trip_constant():
    field = PiecewiseConstantField(1.4, (1.0,), (1.0, 0.0))
    parsed = parse_field(field_to_text(field))
    assert isinstance(parsed, PiecewiseConstantField)
    assert eval_I(parsed, C_LJ) == pytest.approx(eval_I(field, C_LJ), abs=1e-12)


def test_parse_field_rejects_garbage():
    with pytest.raises(ValueError):
        parse_field("not a field\n")
    with pytest.raises(ValueError):
        parse_field("lambda 1.0\nkind nope\n0 0\n1 1\n")


def test_discrete_csv_shape():
    text = discrete_csv(DiscreteField(1.0, np.linspace(0.0, 1.0, 5)))
    lines = text.strip().splitlines()
    assert lines[0] == "y,value"
    assert len(lines) == 6


def test_format_number_precision():
    assert format_number(math.pi) == "3.14159265359"


# ------------------------------------------------------------ cwstar


def test_cli_cwstar_value(capsys):
    assert main(["cwstar", "--model", "lj"]) == 0
    out = capsys.readouterr().out
    value = float(out.split()[0])
    assert value == pytest.approx(C_LJ, abs=1e-10)


def test_cli_cwstar_custom_polynomial(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\nname = quartic\ncoeffs = 0, 0, 2, -4, 2\n"
        "[cwstar]\nmodel = quartic\n",
        encoding="utf-8",
    )
    assert main(["cwstar", "--config", str(config)]) == 0
    value = float(capsys.readouterr().out.split()[0])
    assert value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_cli_cwstar_unknown_model(capsys):
    assert main(["cwstar", "--model", "nope"]) == 2


def test_cli_cwstar_nonconvergence_exit_code(capsys):
    assert main(["cwstar", "--model", "lj", "--abs-tol", "1e-30"]) == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------ sharp


def test_cli_sharp_worked_example(tmp_path, capsys):
    rc = main([
        "sharp", "--lambda", "1.5", "--mu", "200", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "sharp_lambda1.5_mu200.json").read_text())
    assert summary["n"] == 4
    assert summary["energy"] == pytest.approx(2.02933, abs=1e-5)
    field_a = parse_field(
        (tmp_path / "sharp_lambda1.5_mu200_variantA.field").read_text()
    )
    energy = eval_V(field_a, summary["c_wstar"], 200.0)
    assert energy == pytest.approx(summary["energy"], abs=1e-12)
    assert (tmp_path / "sharp_lambda1.5_mu200_cracks.csv").exists()
    assert (tmp_path / "sharp_lambda1.5_mu200_deformation_B.csv").exists()


def test_cli_sharp_rejects_compression(tmp_path):
    assert main(["sharp", "--lambda", "0.9", "--mu", "200", "--out", str(tmp_path)]) == 2


def test_cli_sharp_near_critical_single_crack(tmp_path):
    rc = main(["sharp", "--lambda", "1.0001", "--mu", "200", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "sharp_lambda1.0001_mu200.json").read_text())
    assert summary["n"] == 1


# ------------------------------------------------------------ scan


def test_cli_scan_staircase_and_determinism(tmp_path):
    args = [
        "scan", "--mu", "200", "--lambda-min", "1", "--lambda-max", "2",
        "--step", "0.01", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    first = (tmp_path / "scan_mu200.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "scan_mu200.csv").read_bytes() == first

    lines = first.decode().strip().splitlines()
    assert lines[0] == "lambda,mu,n,V_n,x,crack_positions"
    counts = []
    at_15 = None
    for line in lines[1:]:
        cells = line.split(",")
        counts.append(int(cells[2]))
        if abs(float(cells[0]) - 1.5) < 1e-9:
            at_15 = int(cells[2])
    assert at_15 == 4
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_cli_scan_rejects_bad_range(tmp_path):
    rc = main([
        "scan", "--mu", "200", "--lambda-min", "2", "--lambda-max", "1",
        "--step", "0.01", "--out", str(tmp_path),
    ])
    assert rc == 2


# ------------------------------------------------------------ minimize


def test_cli_minimize_identity(tmp_path, capsys):
    rc = main([
        "minimize", "--functional", "V", "--lambda", "1", "--mu", "200",
        "--epsilon", "0.05", "--grid", "200", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "minimize_V_lambda1_mu200_eps0.05.json").read_text()
    )
    assert summary["energy"] <= 1e-8
    csv_text = (tmp_path / "minimize_V_lambda1_mu200_eps0.05.csv").read_text()
    assert csv_text.splitlines()[0] == "y,value"


def test_cli_minimize_compression_value(tmp_path):
    rc = main([
        "minimize", "--functional", "E", "--lambda", "0.8",
        "--epsilon", "0.05", "--grid", "500", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "minimize_E_lambda0.8_mu0_eps0.05.json").read_text()
    )
    assert summary["energy"] == pytest.approx(0.0625, abs=1e-6)


def test_cli_minimize_strict_flags_nonconvergence(tmp_path):
    rc = main([
        "minimize", "--functional", "E", "--lambda", "1.4",
        "--epsilon", "0.05", "--grid", "600", "--max-iterations", "2",
        "--multistart", "0", "--strict", "--out", str(tmp_path),
    ])
    assert rc == 3


def test_cli_minimize_rejects_negative_epsilon(tmp_path):
    rc = main([
        "minimize", "--functional", "E", "--lambda", "1.4",
        "--epsilon", "-0.05", "--grid", "600", "--out", str(tmp_path),
    ])
    assert rc == 2


# ------------------------------------------------------------ sweep


def test_cli_sweep_small_ladder(tmp_path):
    rc = main([
        "sweep", "--functional", "I", "--lambda", "1", "--epsilons", "0.1,0.05",
        "--grid", "128", "--out", str(tmp_path),
    ])
    assert rc == 0
    text = (tmp_path / "sweep_I_lambda1_mu0.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("epsilon,energy,rescaled_energy,transition_count")
    assert len(lines) == 3
    payload = json.loads((tmp_path / "sweep_I_lambda1_mu0.json").read_text())
    assert payload["metadata"]["functional"] == "I"


def test_cli_sweep_rejects_increasing_ladder(tmp_path):
    rc = main([
        "sweep", "--functional", "I", "--lambda", "1", "--epsilons", "0.05,0.1",
        "--grid", "128", "--out", str(tmp_path),
    ])
    assert rc == 2


# ------------------------------------------------------------ reconstruct


def test_cli_reconstruct_round_trip(tmp_path):
    rc = main(["sharp", "--lambda", "1.4", "--mu", "0", "--out", str(tmp_path)])
    assert rc == 0
    rc = main([
        "reconstruct", "--field", str(tmp_path / "sharp_lambda1.4_mu0_variantA.field"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads(
        (tmp_path / "sharp_lambda1.4_mu0_variantA_deformation.json").read_text()
    )
    assert len(payload["jumps"]) == 1
    x, lo, hi = payload["jumps"][0]
    assert (x, lo, hi) == pytest.approx((1.0, 1.0, 1.4), abs=1e-12)


def test_cli_reconstruct_missing_file(tmp_path):
    assert main(["reconstruct", "--field", str(tmp_path / "nope.field")]) == 2


# ------------------------------------------------------------ config handling


def test_cli_config_overridden_by_flags(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[sharp]\nlambda = 1.5\nmu = 200\n", encoding="utf-8")
    rc = main([
        "sharp", "--config", str(config), "--mu", "0",
        "--lambda", "1.4", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "sharp_lambda1.4_mu0.json").read_text())
    assert summary["n"] == 1


def test_cli_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[sharp]\nlambda = 1.5\nmu = 200\nbogus = 1\n", encoding="utf-8")
    assert main(["sharp", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_cli_config_missing_file_rejected():
    assert main(["cwstar", "--config", "/nonexistent/run.ini"]) == 2


def test_cli_missing_required_setting(tmp_path):
    assert main(["sharp", "--mu", "200", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "section, value",
    [("sweep", "i"), ("sweep", "E"), ("minimize", "e"), ("minimize", "I")],
)
def test_cli_config_functional_checked_against_choices(tmp_path, capsys, section, value):
    ladder = "epsilons = 0.1" if section == "sweep" else "epsilon = 0.1"
    config = tmp_path / "run.ini"
    config.write_text(
        f"[{section}]\nfunctional = {value}\nlambda = 1\n{ladder}\ngrid = 32\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main([section, "--config", str(config), "--out", str(out)]) == 2
    assert "functional" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, code", [("maybe", 2), ("2", 2), ("yes", 3), ("On", 3)])
def test_cli_config_strict_accepts_only_boolean_words(tmp_path, value, code):
    config = tmp_path / "run.ini"
    config.write_text(f"[minimize]\nstrict = {value}\n", encoding="utf-8")
    rc = main([
        "minimize", "--config", str(config), "--functional", "E", "--lambda", "1.4",
        "--epsilon", "0.05", "--grid", "64", "--max-iterations", "2",
        "--multistart", "0", "--out", str(tmp_path),
    ])
    assert rc == code
