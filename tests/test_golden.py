"""Golden CLI outputs: small versions of every README command.

Each case runs ``fracture1d.cli.main`` in-process and compares its exit
code, its stdout and every file it writes, byte for byte, with the
copies under ``tests/golden/<case>/``.  The grids and iteration caps are
small so the whole module runs in seconds; the point is that a refactor
keeps every output byte, not that the solves converge.

The bytes depend on the floating-point results of the numpy build that
wrote them (the committed files come from numpy 2.4 on x86-64).  Regenerate the golden files
only for an intended output change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from fracture1d.cli import main

GOLDEN = Path(__file__).parent / "golden"

QUARTIC_INI = (
    "[model]\nname = quartic\ncoeffs = 0, 0, 2, -4, 2\n\n"
    "[sweep]\nmodel = quartic\nlambda = 1.4\nepsilons = 0.08, 0.04, 0.02\n"
    "grid = 160\nmax_iterations = 150\n"
)

# case name -> (config text or None, commands); "{out}" and "{config}"
# are replaced by the output directory and the config file path.
CASES = {
    "cwstar": (None, [["cwstar", "--model", "lj"]]),
    "scan": (None, [[
        "scan", "--mu", "200", "--lambda-min", "1", "--lambda-max", "2",
        "--step", "0.01", "--out", "{out}",
    ]]),
    "sharp-reconstruct": (None, [
        ["sharp", "--lambda", "1.5", "--mu", "200", "--out", "{out}"],
        ["reconstruct", "--field", "{out}/sharp_lambda1.5_mu200_variantA.field",
         "--out", "{out}"],
    ]),
    "minimize-E": (None, [[
        "minimize", "--functional", "E", "--lambda", "1.4", "--epsilon", "0.05",
        "--grid", "200", "--max-iterations", "150", "--out", "{out}",
    ]]),
    "minimize-V": (None, [[
        "minimize", "--functional", "V", "--lambda", "1.5", "--mu", "200",
        "--epsilon", "0.05", "--grid", "200", "--max-iterations", "150",
        "--out", "{out}",
    ]]),
    "sweep-I": (None, [[
        "sweep", "--functional", "I", "--lambda", "1.4", "--epsilons", "0.08,0.04",
        "--grid", "200", "--max-iterations", "150", "--out", "{out}",
    ]]),
    "sweep-V": (None, [[
        "sweep", "--functional", "V", "--lambda", "1.5", "--mu", "200",
        "--epsilons", "0.08,0.04", "--grid", "200", "--max-iterations", "150",
        "--out", "{out}",
    ]]),
    "sweep-I-unloaded": (None, [[
        "sweep", "--functional", "I", "--lambda", "1", "--epsilons", "0.1,0.05",
        "--grid", "128", "--out", "{out}",
    ]]),
    "sweep-V-compressed": (None, [[
        "sweep", "--functional", "V", "--lambda", "0.9", "--mu", "200",
        "--epsilons", "0.1,0.05", "--grid", "128", "--max-iterations", "150",
        "--out", "{out}",
    ]]),
    "sweep-config-quartic": (QUARTIC_INI, [
        ["sweep", "--config", "{config}", "--out", "{out}"],
    ]),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case; return its outputs keyed by golden file name."""
    config_text, commands = CASES[name]
    out = workdir / "out"
    config = workdir / "run.ini"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    log = []
    for command in commands:
        argv = [a.format(out=out, config=config) for a in command]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        log.append(f"$ {' '.join(command)}\n{buffer.getvalue()}exit {code}\n")
    outputs = {"stdout.txt": "".join(log).encode("utf-8")}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden_files(name, tmp_path):
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    actual = run_case(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from the golden copy"


@pytest.mark.parametrize("name", ["scan", "sharp-reconstruct"])
def test_a_rerun_over_longer_and_empty_files_writes_the_golden_bytes(name, tmp_path):
    """Outputs are overwritten in place: a rerun into an ``--out`` whose
    files are longer (50 KB of junk) or shorter (empty) than the new ones
    leaves exactly the golden bytes."""
    expected_dir = GOLDEN / name
    out = tmp_path / "out"
    out.mkdir()
    names = sorted(p.name for p in expected_dir.iterdir() if p.name != "stdout.txt")
    for i, file_name in enumerate(names):
        (out / file_name).write_bytes(b"junk\n" * 10_000 if i % 2 == 0 else b"")
    actual = run_case(name, tmp_path)
    for file_name in names:
        assert actual[file_name] == (expected_dir / file_name).read_bytes(), file_name


def regenerate() -> None:
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file_name, data in outputs.items():
            (target / file_name).write_bytes(data)
        print(f"{name}: {len(outputs)} files", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
