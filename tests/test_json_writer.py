"""The JSON writer ``serialize.json_text`` against ``json.dumps``.

Every JSON file the CLI writes goes through ``json_text``, which must
give the bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``:
on the payloads of real commands, on seeded random nested payloads, on
numpy floats and on subclasses of int, str and dict, and it must raise
where ``json.dumps`` raises.  ``json_text`` builds the text of a plain
payload, one of only exact dicts with str keys, lists, str, int, bool,
None and finite floats, itself, and hands every other payload to
``json.dumps``.  The routing test pins that every payload of a real
command is plain, so the comparisons on real payloads, and on the plain
ones among the random payloads, stay independent checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import json
import math
import random
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from fracture1d import cli, serialize

ROOT = Path(__file__).resolve().parent.parent


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def recorded(monkeypatch):
    """Every (payload, text) that the commands run under it write."""
    calls = []
    writer = serialize.json_text

    def recording(obj):
        text = writer(obj)
        calls.append((obj, text))
        return text

    monkeypatch.setattr(serialize, "json_text", recording)
    return calls


def run_commands(argvs) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0, argv


def test_every_payload_of_a_closed_form_pass(tmp_path, recorded):
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT))
    ops = WORKLOADS["closed-form"].ops(7, tmp_path)
    run_commands([list(op.argv) for op in ops])
    # Per pair: the sharp summary and two deformations, the reconstructed
    # deformation and the scan.
    assert len(recorded) == 5 * 64
    for obj, text in recorded:
        assert text == reference(obj)


def test_every_payload_of_a_sweep_and_a_minimize(tmp_path, recorded):
    run_commands([
        ["sweep", "--functional", "V", "--lambda", "1.5", "--mu", "200", "--epsilons", "0.1,0.05",
         "--grid", "64", "--max-iterations", "20", "--out", str(tmp_path)],
        ["sweep", "--functional", "I", "--lambda", "1.4", "--epsilons", "0.1,0.05",
         "--grid", "64", "--max-iterations", "20", "--out", str(tmp_path)],
        ["minimize", "--functional", "V", "--lambda", "1.5", "--mu", "200", "--epsilon", "0.05",
         "--grid", "64", "--max-iterations", "20", "--out", str(tmp_path)],
    ])
    assert len(recorded) == 3
    for obj, text in recorded:
        assert text == reference(obj)
    # The file on disk is the text, byte for byte.
    written = (tmp_path / "minimize_V_lambda1.5_mu200_eps0.05.json").read_bytes()
    assert written == reference(recorded[-1][0]).encode("ascii")


def test_every_payload_of_a_many_row_scan(tmp_path, recorded):
    run_commands([["scan", "--mu", "2000", "--lambda-min", "1", "--lambda-max", "3",
                   "--step", "0.001", "--out", str(tmp_path)]])
    [(obj, text)] = recorded
    assert len(obj["rows"]) == 1999
    assert text == reference(obj)


def _workloads():
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT))
    return WORKLOADS


def _commands(out: Path) -> list[list[str]]:
    """A seed-7 closed-form pass, perfbench's V and I sweeps on a small
    grid, a V and an E minimize and a 1999-row scan, writing to ``out``."""
    workloads = _workloads()
    argvs = [list(op.argv) for op in workloads["closed-form"].ops(7, out)]
    for name in ("sweep-V", "sweep-I"):
        small = dataclasses.replace(workloads[name], grid=64, epsilons=(0.1, 0.05),
                                    max_iterations=20, multistart=1)
        argvs += [list(op.argv) for op in small.ops(7, out)]
    for functional, lam in (("V", "1.5"), ("E", "1.4")):
        argvs.append(["minimize", "--functional", functional, "--lambda", lam, "--mu", "200",
                      "--epsilon", "0.05", "--grid", "64", "--max-iterations", "20",
                      "--out", str(out)])
    argvs.append(["scan", "--mu", "2000", "--lambda-min", "1", "--lambda-max", "3",
                  "--step", "0.001", "--out", str(out)])
    return argvs


def test_the_commands_payloads_never_reach_json_dumps(tmp_path, monkeypatch):
    """Every payload a command writes is plain: with json.dumps raising,
    the commands still write every file, byte for byte as with it."""
    run_commands(_commands(tmp_path / "with"))

    def refuse(obj, *args, **kwargs):
        raise AssertionError(f"json.dumps reached with {obj!r:.200}")

    monkeypatch.setattr(json, "dumps", refuse)
    with pytest.raises(AssertionError, match="json.dumps reached"):
        serialize.json_text([math.nan])
    run_commands(_commands(tmp_path / "without"))

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    written = files(tmp_path / "with")
    assert sum(p.suffix == ".json" for p in written) == 5 * 64 + 5
    assert files(tmp_path / "without") == written


# Strings with quotes, backslashes, control characters, non-ASCII and
# astral characters, and the texts json gives non-finite floats.
_STRINGS = ("", "a", 'q"uote', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f", "é",
            "λ μ ε", " ", "\U0001f600", "NaN", "nan", "-inf", "[{,}]")
_FLOATS = (0.0, -0.0, 1e-320, 5e-324, 1.5, -2.25, 0.1, 1e16, 1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf"))
_INTS = (0, 1, -1, 2**53 + 1, 10**30, -(10**30))


def _random_payload(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 4 and roll < 0.3:
        size = rng.choice((0, 1, 2, 5))
        return {
            rng.choice(_STRINGS) + str(rng.randrange(50)): _random_payload(rng, depth + 1)
            for _ in range(size)
        }
    if depth < 4 and roll < 0.55:
        items = [_random_payload(rng, depth + 1) for _ in range(rng.choice((0, 1, 3, 6)))]
        return tuple(items) if rng.random() < 0.3 else items
    if roll < 0.6:
        # A list of floats only, as a field's values or a crack list.
        return [rng.choice(_FLOATS) for _ in range(rng.randrange(1, 6))]
    return rng.choice((
        rng.choice(_STRINGS),
        rng.choice(_FLOATS),
        rng.uniform(-1e6, 1e6),
        rng.choice(_INTS),
        rng.randrange(-1000, 1000),
        True,
        False,
        None,
    ))


@pytest.mark.parametrize("seed", range(4))
def test_random_payloads(seed):
    rng = random.Random(1000 + seed)
    for _ in range(1000):
        obj = _random_payload(rng)
        assert serialize.json_text(obj) == reference(obj)


def test_numpy_floats_are_written_as_floats():
    values = [np.float64(0.5), np.float64(-0.0), np.float64("nan"), np.float64("-inf"),
              np.float64(1e-320), np.float64(2.0) / 3.0]
    payload = {"values": values, "first": values[0], "rows": [{"x": v} for v in values]}
    assert serialize.json_text(payload) == reference(payload)
    assert "np.float64" not in serialize.json_text(payload)


def test_keys_that_json_converts():
    payload = {"b": 1, "a": [{"z": 0, "y": {}}]}
    assert serialize.json_text(payload) == reference(payload)
    for keys in ((1, 2), (1.5, -0.25, float("inf")), (True,), (None,), (False,)):
        payload = {k: [k] for k in keys}
        assert serialize.json_text(payload) == reference(payload)


class Count(enum.IntEnum):
    ONE = 1
    TWO = 2


class Name(str):
    pass


class Table(dict):
    pass


def test_subclasses_are_written_as_their_json_base():
    payload = {
        "counts": [Count.ONE, Count.TWO, {"n": Count.TWO}],
        "names": [Name("a"), Name('q"uote'), {Name("key"): Name("\u00e9")}],
        Name("b"): Table(z=Count.ONE, a=[Name("x"), 0.5]),
        "empty": Table(),
        "keys": {Count.TWO: 1, Count.ONE: 2},
    }
    assert serialize.json_text(payload) == reference(payload)
    assert serialize.json_text(Count.TWO) == reference(Count.TWO) == "2\n"
    assert serialize.json_text(Name("top")) == reference(Name("top"))


def test_equal_keys_of_other_types_keep_their_own_text():
    # 1, 1.0 and True are one dict key; json writes each as its own text.
    payload = [{1: 0}, {1.0: 0}, {True: 0}, {0: 1}, {-0.0: 1}, {False: 1}, {"1": 0}]
    assert serialize.json_text(payload) == reference(payload)
    rows = [{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": 5, "a": [{"b": 6, "a": 7}]}]
    assert serialize.json_text(rows) == reference(rows)


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(3),
        {"a": [1.0, np.int64(3)]},
        [1.0, {1, 2}],
        {"x": object()},
        {("tuple", "key"): 1},
        {"a": 1, 2: 3},
    ],
    ids=["np-int64", "np-int64-in-list", "set", "object", "tuple-key", "mixed-keys"],
)
def test_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        serialize.json_text(obj)


def test_a_circular_payload_raises_as_json_does():
    loop = [1.0]
    loop.append({"back": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        reference(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        serialize.json_text(loop)
    shared = [0.5]
    assert serialize.json_text([shared, shared]) == reference([shared, shared])


@pytest.mark.parametrize(
    "obj",
    [
        {"a": [1.0, object()]},
        {1: object(), Decimal(2): 1},
        {Decimal(1): 1.0, 2: object()},
        [0.5, {"b": {1, 2}, "a": 1.0}],
    ],
    ids=["object", "value-before-key", "key-before-value", "set"],
)
def test_type_errors_carry_json_s_message(obj):
    with pytest.raises(TypeError) as expected:
        reference(obj)
    with pytest.raises(TypeError) as raised:
        serialize.json_text(obj)
    assert str(raised.value) == str(expected.value)
