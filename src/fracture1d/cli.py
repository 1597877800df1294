"""Command-line entry points.

One command per invocation: cwstar, sharp, minimize, scan, sweep,
reconstruct.  Every flag can come from a config file (INI sections
named after the commands, plus an optional [model] section defining a
custom polynomial density); command-line values win.  Exit codes:
0 success, 2 domain or configuration error (a grid too large to
allocate included), 3 non-convergence under --strict.  Each value's
range is checked by the library function that owns it, so a rejected
value (NaN and infinity included) exits 2 before anything is written.
An ``--out`` that is, or lies under, an existing file exits 2 before
any computation; otherwise ``--out`` is created only when a command has
output to write, after its computation.  An output file or ``--out``
directory that cannot be written exits 2 too, and the files written
before it stay.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import harness, serialize
from .material import (
    QUADRATURE_TOL,
    MaterialModel,
    NonConvergence,
    c_wstar,
    polynomial_model,
    resolve_model,
    surface_constant_quadrature,
)
from .regularized import SolveSettings, minimize as run_minimize
from .sharp import build_sharp_minimizer, crack_count, continuous_crack_estimate, reconstruct_deformation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3


class ConfigError(ValueError):
    pass


_SOLVES = ("minimize", "sweep")
_WRITERS = ("sharp", "scan", "reconstruct") + _SOLVES  # commands with output files


@dataclass(frozen=True)
class _Option:
    """One setting of the listed commands, read from ``--key-with-dashes``
    or ``key`` in the command's config section.  A ``default`` of None
    makes the setting required."""

    key: str
    type: type
    commands: tuple[str, ...]
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# The library's solve defaults, which the solve options share.
_SOLVE_DEFAULTS = {f.name: f.default for f in fields(SolveSettings)}

# The one table of settings: it generates the parsers, the config
# validation and the defaults.  ``functional`` has one entry per command
# because the two commands accept different letters.
_OPTIONS = (
    _Option("model", str, ("cwstar", "sharp", "scan") + _SOLVES, "lj",
            help="material model name (default lj)"),
    _Option("out", str, _WRITERS, ".", help="output directory (default .)"),
    _Option("abs_tol", float, ("cwstar",), QUADRATURE_TOL),
    _Option("functional", str, ("minimize",), "V", ("E", "V"), "regularized functional"),
    _Option("functional", str, ("sweep",), "V", ("I", "V"), "sharp limit; I sweeps E"),
    _Option("lambda", float, ("sharp",) + _SOLVES),
    _Option("mu", float, ("sharp", "scan") + _SOLVES, _SOLVE_DEFAULTS["mu"]),
    _Option("epsilon", float, ("minimize",)),
    _Option("epsilons", str, ("sweep",), help="comma-separated decreasing list"),
    _Option("grid", int, _SOLVES, _SOLVE_DEFAULTS["grid_n"]),
    _Option("max_iterations", int, _SOLVES, _SOLVE_DEFAULTS["max_iterations"]),
    _Option("multistart", int, _SOLVES, _SOLVE_DEFAULTS["multistart"]),
    _Option("seed", int, _SOLVES, _SOLVE_DEFAULTS["seed"]),
    _Option("strict", bool, _SOLVES, False),
    _Option("lambda_min", float, ("scan",)),
    _Option("lambda_max", float, ("scan",)),
    _Option("step", float, ("scan",)),
    _Option("field", str, ("reconstruct",), help="path of a saved piecewise-linear field"),
)


def _options(command: str) -> dict[str, _Option]:
    return {o.key: o for o in _OPTIONS if command in o.commands}


# Parsing leaves the parser as it was, so one serves every main() call of
# a process; it is built at the first call, not at import.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracture1d",
        description="Sharp-interface and regularized 1d brittle-fracture energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="INI config file; flags override its values")
        for o in _options(command).values():
            if o.type is bool:
                p.add_argument(o.flag, dest=o.key, action="store_const", const=True, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.key, type=o.type, choices=o.choices, help=o.help)
    return parser


def _read_text(path: str, what: str) -> str:
    """A UTF-8 input file's text; one that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else f"cannot be read: {exc}"
        raise ConfigError(f"{what} {path!r} {why}") from exc


# The keys of the [model] section, which defines a polynomial model.
_MODEL_KEYS = ("name", "coeffs", "growth_c", "growth_m")


def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    """The config file's sections as plain dicts ({} without a file), every
    value interpolated once, so that a malformed file, a section that is
    neither a command nor [model], [DEFAULT] included, or a key that its
    section does not use is a ConfigError here, whichever command runs."""
    if not path:
        return {}
    cp = configparser.ConfigParser(default_section="")  # [DEFAULT] is then a plain name
    try:
        cp.read_string(_read_text(path, "config file"), source=path)
        config = {section: dict(cp.items(section)) for section in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    unknown = set(config) - {"model", *_COMMANDS}
    if unknown:
        raise ConfigError(f"config file {path!r}: unknown sections {sorted(unknown)}")
    for section, values in config.items():
        unknown = set(values) - set(_MODEL_KEYS if section == "model" else _options(section))
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    return config


def _cast(section: str, key: str, type_: type, raw: str):
    """``type_(raw)``, or a ConfigError naming the section and key."""
    try:
        return type_(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {type_.__name__}, got {raw!r}") from None


def _config_model(config: dict[str, dict[str, str]]) -> dict[str, MaterialModel]:
    section = config.get("model")
    if section is None:
        return {}
    name, coeffs = section.get("name"), section.get("coeffs")
    if not name or not coeffs:
        raise ConfigError("[model] needs both 'name' and 'coeffs'")
    growth_keys = [key for key in ("growth_c", "growth_m") if key in section]
    if len(growth_keys) == 1:
        raise ConfigError("[model] growth constants come in pairs")
    growth = tuple(_cast("model", key, float, section[key]) for key in growth_keys) or None
    values = [_cast("model", "coeffs", float, tok) for tok in coeffs.replace(",", " ").split()]
    return {name: polynomial_model(name, values, growth)}


def _config_value(option: _Option, section: str, raw: str):
    """A config value, cast and checked as its flag would be."""
    if option.type is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ConfigError(f"[{section}] {option.key} must be a boolean, got {raw!r}")
        return states[raw.lower()]
    value = _cast(section, option.key, option.type, raw)
    if option.choices and value not in option.choices:
        raise ConfigError(
            f"[{section}] {option.key} must be one of {list(option.choices)}, got {raw!r}"
        )
    return value


@contextlib.contextmanager
def _writing(path: Path):
    """An output that cannot be written is a ConfigError; the files
    written before it stay."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _gather(args, config) -> dict:
    """Each setting of the command: its flag, else its config value, else its default."""
    section = args.command
    options = _options(section)
    values = config.get(section, {})
    merged = {}
    for key, option in options.items():
        value = getattr(args, key)
        if value is None and key in values:
            value = _config_value(option, section, values[key])
        merged[key] = option.default if value is None else value
    missing = [key for key, value in merged.items() if value is None]
    if missing:
        raise ConfigError(f"missing required settings: {sorted(missing)}")
    if "out" in merged:
        out = Path(merged["out"])
        # The first existing path up the tree is where mkdir would fail.
        with _writing(out):
            existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"out {str(out)!r}: {str(existing)!r} is not a directory")
    return merged


def _out_dir(merged: dict) -> Path:
    out = Path(merged["out"])
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    with _writing(path):
        serialize.write_text(path, text)


def _model(merged: dict, config) -> MaterialModel:
    try:
        return resolve_model(merged["model"], _config_model(config))
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_cwstar(merged, config) -> int:
    model = _model(merged, config)
    value, err = surface_constant_quadrature(model, merged["abs_tol"])
    print(f"{value:.12g} +/- {err:.3g}")
    return EXIT_OK


def _cmd_sharp(merged, config) -> int:
    lam, mu = merged["lambda"], merged["mu"]
    model = _model(merged, config)
    cw = c_wstar(model)
    n = crack_count(cw, mu, lam)
    x = continuous_crack_estimate(cw, mu, lam)
    minimizers = {v: build_sharp_minimizer(n, lam, v, cw, mu) for v in ("A", "B")}
    graphs = {v: reconstruct_deformation(m.field) for v, m in minimizers.items()}
    out = _out_dir(merged)
    stem = f"sharp_lambda{lam:g}_mu{mu:g}"
    for variant, minimizer in minimizers.items():
        field_path = out / f"{stem}_variant{variant}.field"
        with _writing(field_path):
            serialize.write_field(field_path, minimizer.field)
        graph = graphs[variant]
        _write(out / f"{stem}_deformation_{variant}.csv", serialize.deformation_csv(graph))
        _write(out / f"{stem}_deformation_{variant}.json", serialize.deformation_json(graph))
    cracks = {v: m.cracks for v, m in minimizers.items()}
    _write(out / f"{stem}_cracks.csv", serialize.cracks_csv(cracks))
    energy = minimizers["A"].energy
    summary = {
        "lambda": lam,
        "mu": mu,
        "model": model.name,
        "c_wstar": cw,
        "x": x,
        "n": n,
        "energy": energy,
    }
    _write(out / f"{stem}.json", serialize.json_text(summary))
    print(f"n={n} energy={energy:.12g} x={x:.12g}")
    return EXIT_OK


def _settings(merged) -> SolveSettings:
    return SolveSettings(
        lam=merged["lambda"],
        epsilon=merged.get("epsilon", 1.0),  # sweeps set epsilon per row
        mu=merged["mu"],
        grid_n=merged["grid"],
        max_iterations=merged["max_iterations"],
        multistart=merged["multistart"],
        seed=merged["seed"],
    )


def _cmd_minimize(merged, config) -> int:
    settings = _settings(merged)
    model = _model(merged, config)
    (result,) = run_minimize(merged["functional"], model, [settings])
    out = _out_dir(merged)
    stem = (
        f"minimize_{merged['functional']}_lambda{merged['lambda']:g}"
        f"_mu{merged['mu']:g}_eps{merged['epsilon']:g}"
    )
    _write(out / f"{stem}.csv", serialize.discrete_csv(result.minimizer))
    metadata = {
        "functional": merged["functional"],
        "lambda": merged["lambda"],
        "mu": merged["mu"],
        "epsilon": merged["epsilon"],
        "grid_n": merged["grid"],
        "seed": merged["seed"],
        "model": model.name,
    }
    _write(out / f"{stem}.json", serialize.solve_summary_json(result, metadata))
    print(
        f"energy={result.energy:.12g} rescaled={result.rescaled_energy:.12g} "
        f"transitions={result.transition_count} converged={result.converged}"
    )
    if merged["strict"] and not result.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_scan(merged, config) -> int:
    model = _model(merged, config)
    report = harness.crack_scan(
        (merged["lambda_min"], merged["lambda_max"]), merged["step"], merged["mu"], model
    )
    out = _out_dir(merged)
    stem = f"scan_mu{merged['mu']:g}"
    _write(out / f"{stem}.csv", serialize.scan_csv(report))
    _write(out / f"{stem}.json", serialize.scan_json(report))
    print(f"rows={len(report.rows)}")
    return EXIT_OK


def _cmd_sweep(merged, config) -> int:
    epsilons = [
        _cast("sweep", "epsilons", float, tok) for tok in merged["epsilons"].replace(",", " ").split()
    ]
    settings = _settings(merged)
    model = _model(merged, config)
    sweep = harness.gamma_sweep_I if merged["functional"] == "I" else harness.gamma_sweep_V
    report = sweep(model, epsilons, settings)
    out = _out_dir(merged)
    stem = f"sweep_{merged['functional']}_lambda{merged['lambda']:g}_mu{merged['mu']:g}"
    _write(out / f"{stem}.csv", serialize.sweep_csv(report))
    _write(out / f"{stem}.json", serialize.sweep_json(report))
    not_converged = [row.epsilon for row in report.rows if not row.converged]
    print(f"rows={len(report.rows)} unconverged={len(not_converged)}")
    if merged["strict"] and not_converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_reconstruct(merged, config) -> int:
    parsed = serialize.parse_field(_read_text(merged["field"], "field file"))
    graph = reconstruct_deformation(parsed)
    out = _out_dir(merged)
    stem = Path(merged["field"]).stem + "_deformation"
    _write(out / f"{stem}.csv", serialize.deformation_csv(graph))
    _write(out / f"{stem}.json", serialize.deformation_json(graph))
    print(f"segments={len(graph.segments)} jumps={len(graph.jumps)}")
    return EXIT_OK


# command -> (help, handler)
_COMMANDS = {
    "cwstar": ("print the surface-energy constant", _cmd_cwstar),
    "sharp": ("write the sharp minimizing configurations", _cmd_sharp),
    "minimize": ("minimize a regularized functional", _cmd_minimize),
    "scan": ("tabulate the crack count across loads", _cmd_scan),
    "sweep": ("run an epsilon sweep against the sharp limit", _cmd_sweep),
    "reconstruct": ("recover the deformation graph from a field file", _cmd_reconstruct),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(getattr(args, "config", None))
        merged = _gather(args, config)
        return _COMMANDS[args.command][1](merged, config)
    except (NonConvergence, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
