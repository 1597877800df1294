import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracture1d import cli, harness
from fracture1d.cli import main
from fracture1d.material import builtin_lj
from fracture1d.regularized import DiscreteField, SolveSettings
from fracture1d.serialize import (
    discrete_csv,
    field_to_text,
    format_number,
    parse_field,
)
from fracture1d.sharp import build_sharp_minimizer, eval_V

C_LJ = 4.0 * math.sqrt(2.0) / 15.0


# ------------------------------------------------------------ serialization


def test_field_round_trip_linear():
    field = build_sharp_minimizer(4, 1.5, "A", C_LJ, 200.0).field
    parsed = parse_field(field_to_text(field))
    before = eval_V(field, C_LJ, 200.0)
    after = eval_V(parsed, C_LJ, 200.0)
    assert after == pytest.approx(before, abs=1e-12)


def test_parse_field_rejects_garbage():
    with pytest.raises(ValueError):
        parse_field("not a field\n")
    with pytest.raises(ValueError):
        parse_field("lambda 1.0\nkind nope\n0 0\n1 1\n")
    # No command writes piecewise-constant fields; they are an unknown kind.
    with pytest.raises(ValueError, match="unknown field kind 'pwconstant'"):
        parse_field("lambda 1.5\nkind pwconstant\n1.0 1.0\n2.0 0.0\n")


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
    out = tmp_path / "out"
    assert main(["sharp", "--lambda", "0.9", "--mu", "200", "--out", str(out)]) == 2
    assert not out.exists()


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
    out = tmp_path / "out"
    rc = main([
        "scan", "--mu", "200", "--lambda-min", "2", "--lambda-max", "1",
        "--step", "0.01", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


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


def test_cli_minimize_E_writes_one_row_per_cell_at_its_midpoint(tmp_path):
    lam, n = 1.4, 64
    rc = main([
        "minimize", "--functional", "E", "--lambda", str(lam), "--epsilon", "0.05",
        "--grid", str(n), "--max-iterations", "20", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "minimize_E_lambda1.4_mu0_eps0.05.csv").read_text().splitlines()
    assert lines[0] == "y,value"
    y, values = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]]).T
    d = lam / n
    # The CSV carries 12 significant digits.
    assert np.allclose(y, (np.arange(n) + 0.5) * d, rtol=1e-12, atol=0.0)
    assert abs(d * np.sum(values) - 1.0) <= 1e-10


def test_cli_minimize_strict_flags_nonconvergence(tmp_path):
    rc = main([
        "minimize", "--functional", "E", "--lambda", "1.4",
        "--epsilon", "0.05", "--grid", "600", "--max-iterations", "2",
        "--multistart", "0", "--strict", "--out", str(tmp_path),
    ])
    assert rc == 3


def test_cli_minimize_rejects_negative_epsilon(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "minimize", "--functional", "E", "--lambda", "1.4",
        "--epsilon", "-0.05", "--grid", "600", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


def test_cli_main_builds_its_parser_once_and_writes_what_a_fresh_process_writes(tmp_path):
    """One parser serves every ``main`` call of a process.  Calls after
    two rejected ones (an unknown flag, a bad value: both exit 2) write
    the bytes a fresh interpreter writes."""
    commands = [
        ["sweep", "--functional", "V", "--lambda", "1.5", "--mu", "200",
         "--epsilons", "0.1,0.05", "--grid", "32", "--max-iterations", "5"],
        ["sharp", "--lambda", "1.5", "--mu", "200"],
    ]
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["sharp", "--lambda", "1.5", "--grid", "32", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert main(["sharp", "--lambda", "inf", "--out", str(tmp_path / "x")]) == 2
    here = tmp_path / "here"
    for argv in commands:
        assert main(argv + ["--out", str(here)]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)

    fresh = tmp_path / "fresh"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in commands:
        subprocess.run(
            [sys.executable, "-m", "fracture1d.cli", *argv, "--out", str(fresh)],
            check=True, env=env, capture_output=True, timeout=120,
        )
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in here.iterdir())
    assert len(names) == 10
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


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


def test_cli_sweep_I_records_the_mu_in_its_file_name(tmp_path):
    rc = main([
        "sweep", "--functional", "I", "--lambda", "0.8", "--mu", "5", "--epsilons", "0.1",
        "--grid", "32", "--max-iterations", "5", "--out", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "sweep_I_lambda0.8_mu5.json").read_text())
    assert payload["metadata"]["mu"] == 5.0


@pytest.mark.parametrize(
    "argv, target",
    [
        (["minimize", "--lambda", "1.4", "--epsilon", "0.05"], (cli, "run_minimize")),
        (["sweep", "--lambda", "1.4", "--epsilons", "0.05"], (harness, "gamma_sweep_V")),
    ],
    ids=["minimize", "sweep"],
)
def test_cli_solve_defaults_are_the_library_defaults(tmp_path, monkeypatch, argv, target):
    seen = []

    def capture(*args):
        # A sweep takes one SolveSettings, minimize a list of rows.
        flat = [a for arg in args for a in (arg if isinstance(arg, list) else [arg])]
        seen.append(next(a for a in flat if isinstance(a, SolveSettings)))
        raise ValueError("captured")

    monkeypatch.setattr(*target, capture)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    (settings,) = seen
    for f in dataclasses.fields(SolveSettings):
        if f.name not in ("lam", "epsilon", "mu"):
            assert getattr(settings, f.name) == f.default, f.name
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_increasing_ladder(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "sweep", "--functional", "I", "--lambda", "1", "--epsilons", "0.05,0.1",
        "--grid", "128", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


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


def test_cli_sharp_and_reconstruct_at_a_large_load(tmp_path):
    # n = 2605: slopes of the pieces near y = 1e4 carry rounding of 4e-9.
    assert main(["sharp", "--lambda", "1e4", "--mu", "200", "--out", str(tmp_path)]) == 0
    field = tmp_path / "sharp_lambda10000_mu200_variantA.field"
    assert main(["reconstruct", "--field", str(field), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sharp_lambda10000_mu200_variantA_deformation.json").read_text())
    assert len(payload["jumps"]) == 1303


def test_cli_reconstruct_missing_file(tmp_path):
    assert main(["reconstruct", "--field", str(tmp_path / "nope.field")]) == 2


@pytest.fixture(params=["proc-self-mem", "no-read-permission", "not-utf8"])
def unreadable(request, tmp_path):
    """An input file path that opens and cannot be read as UTF-8 text, or
    that cannot be opened at all."""
    if request.param == "proc-self-mem":
        # It opens, and reading it from offset 0 fails with EIO.
        if not sys.platform.startswith("linux"):
            pytest.skip("/proc/self/mem is Linux's")
        return "/proc/self/mem"
    path = tmp_path / "input"
    if request.param == "not-utf8":
        path.write_bytes(b"[sharp]\nlambda = 1.5 \xff\n")
        return str(path)
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        pytest.skip("root reads a file without read permission")
    path.write_text("[sharp]\nlambda = 1.5\n", encoding="utf-8")
    path.chmod(0)
    return str(path)


def test_cli_unreadable_config_exits_2_before_writing(tmp_path, capsys, unreadable):
    out = tmp_path / "out"
    assert main(["cwstar", "--config", unreadable]) == 2
    assert main(["sharp", "--config", unreadable, "--lambda", "1.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: config file") == 2
    assert not out.exists()


def test_cli_unreadable_field_exits_2_before_writing(tmp_path, capsys, unreadable):
    out = tmp_path / "out"
    assert main(["reconstruct", "--field", unreadable, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: field file")
    assert not out.exists()


def test_cli_reconstruct_rejects_a_piecewise_constant_field(tmp_path, capsys):
    field = tmp_path / "pc.field"
    field.write_text("lambda 1.5\nkind pwconstant\n1.0 1.0\n1.5 0.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reconstruct", "--field", str(field), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "error"),
    [
        pytest.param("lambda 1.5\nkind pwlinear\n0 0\n0.5 inf\n1.5 1\n", "finite", id="value-inf"),
        pytest.param("lambda 1e400\nkind pwlinear\n0 0\n1e400 1\n", "finite", id="lambda-overflows"),
        pytest.param("lambda 1.5 junk\nkind pwlinear\n0 0\n1 1\n1.5 1\n", "exactly one value",
                     id="lambda-extra-token"),
        pytest.param("lambda 1.5\nkind pwlinear 7\n0 0\n1 1\n1.5 1\n", "exactly one value",
                     id="kind-extra-token"),
    ],
)
def test_cli_reconstruct_rejects_a_field_that_is_not_finite(tmp_path, capsys, text, error):
    field = tmp_path / "inf.field"
    field.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reconstruct", "--field", str(field), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[sweep\nlambda = 0.8\n", id="missing-section-header"),
        pytest.param("[sweep]\nx\n", id="line-without-value"),
        pytest.param("[sweep]\ngrid = 32\ngrid = 64\n", id="duplicate-option"),
        pytest.param("[sweep]\nepsilons = 5%\n", id="bad-interpolation"),
    ],
)
def test_cli_malformed_config_file_exits_2_before_writing(tmp_path, capsys, text):
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "sweep", "--config", str(config), "--functional", "I", "--lambda", "0.8",
        "--grid", "32", "--max-iterations", "5", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config file")
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


@pytest.mark.parametrize("command, flag", [("cwstar", "--out"), ("reconstruct", "--model")])
def test_cli_rejects_a_flag_the_command_does_not_use(tmp_path, capsys, command, flag):
    field = tmp_path / "linear.field"
    field.write_text(field_to_text(build_sharp_minimizer(1, 1.4, "A", C_LJ, 0.0).field))
    target = tmp_path / "target"
    args = [command, flag, str(target)]
    if command == "reconstruct":
        args += ["--field", str(field), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not target.exists()
    assert not (tmp_path / "linear_deformation.csv").exists()


@pytest.mark.parametrize("command, key", [("cwstar", "out"), ("reconstruct", "model")])
def test_cli_config_rejects_a_key_the_command_does_not_use(tmp_path, capsys, command, key):
    field = tmp_path / "linear.field"
    field.write_text(field_to_text(build_sharp_minimizer(1, 1.4, "A", C_LJ, 0.0).field))
    config = tmp_path / "run.ini"
    config.write_text(f"[{command}]\n{key} = {tmp_path / 'target'}\n", encoding="utf-8")
    args = [command, "--config", str(config)]
    if command == "reconstruct":
        args += ["--field", str(field), "--out", str(tmp_path)]
    assert main(args) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "target").exists()
    assert not (tmp_path / "linear_deformation.csv").exists()


_SHARP = "sharp --lambda 1.5 --mu 200"
_SCAN = "scan --mu 200 --lambda-min 1 --lambda-max 2 --step 0.01"
_MINIMIZE = "minimize --functional E --lambda 1.4 --epsilon 0.1 --grid 32 --max-iterations 5"
_SWEEP = "sweep --functional I --lambda 0.8 --epsilons 0.1 --grid 32 --max-iterations 5"
_HUGE_EPSILON = "minimize --lambda 1.5 --mu 200 --epsilon 1e153 --grid 32 --max-iterations 5"
_NOT_A_DIR = "is not a directory"
_FIELD = Path(__file__).parent / "golden" / "sharp-reconstruct" / "sharp_lambda1.5_mu200_variantA.field"


# (command line, a word the error names); a later flag overrides an
# earlier one, so each row is a valid command with one value spoiled.
@pytest.mark.parametrize(
    "line, word",
    [
        pytest.param(f"{_SHARP} --lambda inf", "lambda", id="sharp-lambda-inf"),
        pytest.param(f"{_SHARP} --lambda nan", "lambda", id="sharp-lambda-nan"),
        pytest.param(f"{_SHARP} --mu nan", "mu", id="sharp-mu-nan"),
        pytest.param("sharp --mu 200", "missing required settings", id="sharp-missing"),
        pytest.param(
            "minimize --functional V --lambda inf --mu 200 --epsilon 0.05", "lam",
            id="minimize-V-lambda-inf",
        ),
        pytest.param(f"{_MINIMIZE} --lambda nan", "lam", id="minimize-lambda-nan"),
        pytest.param(f"{_MINIMIZE} --epsilon nan", "epsilon", id="minimize-epsilon-nan"),
        pytest.param(f"{_MINIMIZE} --epsilon 0", "epsilon", id="minimize-epsilon-0"),
        pytest.param(f"{_MINIMIZE} --mu nan", "mu", id="minimize-mu-nan"),
        pytest.param(f"{_MINIMIZE} --epsilon 1e200", "epsilon", id="minimize-epsilon-squared-overflows"),
        # E / epsilon overflows once the descent is done, before any write.
        pytest.param(f"{_MINIMIZE} --epsilon 1e-320", "epsilon", id="minimize-rescaled-overflows"),
        # Below that bound epsilon^2 / d still overflows a start's gradient.
        pytest.param(
            f"{_HUGE_EPSILON} --functional E", "epsilon", id="minimize-E-epsilon-gradient-overflows"
        ),
        pytest.param(
            f"{_HUGE_EPSILON} --functional V", "epsilon", id="minimize-V-epsilon-gradient-overflows"
        ),
        # W*(1/lambda) overflows a start's energy, whatever epsilon is.
        pytest.param(
            f"{_MINIMIZE} --lambda 1e-300", "lambda 1e-300 and epsilon 0.1 make the energy",
            id="minimize-lambda-energy-overflows",
        ),
        pytest.param(f"{_MINIMIZE} --multistart -3", "multistart", id="minimize-multistart"),
        pytest.param(
            "minimize --functional V --lambda 1.5 --mu 200 --epsilon 0.05 --grid 32 --seed -1",
            "seed", id="minimize-seed-negative",
        ),
        pytest.param("minimize --lambda 1.4", "missing required settings", id="minimize-missing"),
        pytest.param(f"{_SCAN} --lambda-max inf", "lambda range", id="scan-lambda-max-inf"),
        pytest.param(f"{_SCAN} --mu nan", "mu", id="scan-mu-nan"),
        pytest.param(f"{_SCAN} --step nan", "step", id="scan-step-nan"),
        # An empty range: no row would reach the per-row check of mu.
        pytest.param(f"{_SCAN} --lambda-max 1.005 --mu -5", "mu", id="scan-mu-negative-no-rows"),
        pytest.param("scan --mu 200", "missing required settings", id="scan-missing"),
        pytest.param(f"{_SWEEP} --epsilons 0.1,nan", "epsilons", id="sweep-epsilons-nan"),
        pytest.param(f"{_SWEEP} --epsilons 0.05,0.1", "epsilons", id="sweep-epsilons-increasing"),
        pytest.param(f"{_SWEEP} --epsilons 1e200", "epsilon", id="sweep-epsilon-squared-overflows"),
        pytest.param(f"{_SWEEP} --multistart -3", "multistart", id="sweep-multistart"),
        # Without a bound, building the random starts would never end.
        pytest.param(
            f"{_SWEEP} --multistart 1000000000000000", "multistart", id="sweep-multistart-huge"
        ),
        pytest.param(f"{_MINIMIZE} --grid 1000000000000000", "allocate", id="minimize-grid-huge"),
        pytest.param(f"{_SWEEP} --grid 1000000000000000", "allocate", id="sweep-grid-huge"),
        pytest.param(f"{_SWEEP} --seed -1", "seed", id="sweep-seed-negative"),
        pytest.param("sweep --lambda 1", "missing required settings", id="sweep-missing"),
        pytest.param("reconstruct", "missing required settings", id="reconstruct-missing"),
        pytest.param("cwstar --abs-tol inf", "abs_tol", id="cwstar-abs-tol-inf"),
        pytest.param("cwstar --abs-tol nan", "abs_tol", id="cwstar-abs-tol-nan"),
        pytest.param(f"{_SHARP} --lambda 1e200", "lambda", id="sharp-lambda-overflows"),
        pytest.param(f"{_SCAN} --step 1e-320", "step", id="scan-step-too-small"),
        # Huge but finite: about 5.6e100 cracks, 4.5e98 cracks at a scan's
        # first load, 1e300 rows, an overflowing count.
        pytest.param(f"{_SHARP} --lambda 1e150", "crack count", id="sharp-too-many-cracks"),
        pytest.param(
            "scan --mu 1e300 --lambda-min 1 --lambda-max 2 --step 0.01",
            "crack count",
            id="scan-too-many-cracks",
        ),
        pytest.param(f"{_SCAN} --step 1e-300", "step", id="scan-too-many-rows"),
        pytest.param(f"{_SHARP} --lambda 1e154", "crack count", id="sharp-crack-count-overflows"),
        # These rows pass an --out that is an existing file.
        pytest.param(_SHARP, _NOT_A_DIR, id="sharp-out-is-a-file"),
        pytest.param(_MINIMIZE, _NOT_A_DIR, id="minimize-out-is-a-file"),
        pytest.param(_SCAN, _NOT_A_DIR, id="scan-out-is-a-file"),
        pytest.param(_SWEEP, _NOT_A_DIR, id="sweep-out-is-a-file"),
        pytest.param(f"reconstruct --field {_FIELD}", _NOT_A_DIR, id="reconstruct-out-is-a-file"),
    ],
)
def test_cli_rejects_a_bad_value_before_writing(tmp_path, capsys, line, word):
    out = tmp_path / "out"
    if word == _NOT_A_DIR:
        out.write_text("kept\n")
    args = line.split()
    if args[0] != "cwstar":  # the one command without --out
        args += ["--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert word in err
    if word == _NOT_A_DIR:
        assert err.startswith("error: out ")
        assert out.read_text() == "kept\n"
    else:
        assert not out.exists()


# ------------------------------------------------------------ config sections and values


@pytest.mark.parametrize(
    "line", [_SHARP, _SCAN, f"reconstruct --field {_FIELD}"], ids=["sharp", "scan", "reconstruct"]
)
def test_cli_without_config_builds_no_config_parser(tmp_path, monkeypatch, capsys, line):
    def no_parser(*args, **kwargs):
        raise AssertionError("a ConfigParser was built without --config")

    monkeypatch.setattr(cli.configparser, "ConfigParser", no_parser)
    assert main([*line.split(), "--out", str(tmp_path)]) == 0
    assert any(tmp_path.glob("*.json"))


_QUARTIC_MODEL = "[model]\nname = quartic\ncoeffs = 0, 0, 2, -4, 2\n{}[cwstar]\nmodel = quartic\n"


# (growth lines of [model], a word the error names, or None for success)
@pytest.mark.parametrize(
    "growth, word",
    [
        pytest.param("growth_c = 1\ngrowth_m = 3\n", None, id="pair"),
        pytest.param("growth_c = 1\n", "come in pairs", id="one-alone"),
        pytest.param("growth_c = x\ngrowth_m = 3\n", "[model] growth_c", id="not-a-number"),
        pytest.param("growth_c = 1e6\ngrowth_m = 3\n", "growth bound", id="too-large"),
    ],
)
def test_cli_config_model_growth_constants(tmp_path, capsys, growth, word):
    config = tmp_path / "run.ini"
    config.write_text(_QUARTIC_MODEL.format(growth), encoding="utf-8")
    rc = main(["cwstar", "--config", str(config)])
    captured = capsys.readouterr()
    if word is None:
        assert rc == 0
        assert float(captured.out.split()[0]) == pytest.approx(1.0 / 3.0, abs=1e-10)
    else:
        assert rc == 2
        assert captured.err.startswith("error:")
        assert word in captured.err


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("[swep]\ngrid = 32\n", _SWEEP, id="misspelt-command"),
        pytest.param("[DEFAULT]\nlambda = 1.5\nmu = 200\n[sharp]\n", "sharp", id="default"),
    ],
)
def test_cli_config_rejects_a_section_that_is_not_a_command(tmp_path, capsys, text, line):
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([*line.split(), "--config", str(config), "--out", str(out)]) == 2
    assert "unknown sections" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_bad_value_names_its_section_and_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[sweep]\ngrid = abc\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "sweep", "--config", str(config), "--functional", "I", "--lambda", "0.8",
        "--epsilons", "0.1", "--max-iterations", "5", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: [sweep] grid must be int, got 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_sweep_bad_epsilons_token_names_the_setting(tmp_path, capsys, source):
    """A token of the ladder that is not a number names ``epsilons`` and
    itself, whether it came from the flag or from [sweep]."""
    args = ["sweep", "--functional", "I", "--lambda", "1.4", "--grid", "32"]
    if source == "flag":
        args += ["--epsilons", "0.1,abc"]
    else:
        config = tmp_path / "run.ini"
        config.write_text("[sweep]\nepsilons = 0.1,abc\n", encoding="utf-8")
        args += ["--config", str(config)]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [sweep] epsilons must be float, got 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param("[sweep]\ngird = 32\n", "[sweep]: ['gird']", id="sweep"),
        pytest.param("[model]\nname = q\ncoeffs = 0 1 -2 1\ncoef = 1\n", "[model]: ['coef']", id="model"),
    ],
)
def test_cli_config_rejects_a_typo_in_another_commands_section(tmp_path, capsys, text, key):
    """Every section's keys are checked, not only the running command's:
    a misspelt key in [sweep] or [model] fails ``sharp`` too."""
    config = tmp_path / "run.ini"
    config.write_text("[sharp]\nlambda = 1.5\nmu = 200\n" + text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sharp", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown keys in {key}\n"
    assert not out.exists()
    config.write_text("[sharp]\nlambda = 1.5\nmu = 200\n[sweep]\ngrid = 32\n", encoding="utf-8")
    assert main(["sharp", "--config", str(config), "--out", str(out)]) == 0
