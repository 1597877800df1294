"""Command-line entry points.

One command per invocation: cwstar, sharp, minimize, scan, sweep,
reconstruct.  Every flag can come from a config file (INI sections
named after the commands, plus an optional [model] section defining a
custom polynomial density); command-line values win.  Exit codes:
0 success, 2 domain or configuration error, 3 non-convergence under
--strict.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import harness, serialize
from .material import (
    MaterialModel,
    NonConvergence,
    c_wstar,
    polynomial_model,
    resolve_model,
    surface_constant_quadrature,
)
from .regularized import SolveSettings, minimize as run_minimize
from .sharp import DomainError, build_sharp_minimizer, crack_count, continuous_crack_estimate, reconstruct_deformation, v_n

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3


class ConfigError(ValueError):
    pass


_SOLVES = ("minimize", "sweep")


@dataclass(frozen=True)
class _Option:
    """One setting, read from ``--key-with-dashes`` or ``key`` in the
    command's config section.  ``commands`` None means every command;
    a ``default`` of None means none."""

    key: str
    type: type
    commands: tuple[str, ...] | None
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# The one table of settings: it generates the parsers, the config
# validation and the defaults.  ``functional`` has one entry per command
# because the two commands accept different letters.
_OPTIONS = (
    _Option("model", str, None, "lj", help="material model name (default lj)"),
    _Option("out", str, None, ".", help="output directory (default .)"),
    _Option("abs_tol", float, ("cwstar",), 1e-10),
    _Option("functional", str, ("minimize",), "V", ("E", "V"), "regularized functional"),
    _Option("functional", str, ("sweep",), "V", ("I", "V"), "sharp limit; I sweeps E"),
    _Option("lambda", float, ("sharp",) + _SOLVES),
    _Option("mu", float, ("sharp", "scan") + _SOLVES, 0.0),
    _Option("epsilon", float, ("minimize",)),
    _Option("epsilons", str, ("sweep",), help="comma-separated decreasing list"),
    _Option("grid", int, _SOLVES, 1000),
    _Option("max_iterations", int, _SOLVES, 3000),
    _Option("gtol", float, _SOLVES, 1e-8),
    _Option("multistart", int, _SOLVES, 3),
    _Option("seed", int, _SOLVES, 0),
    _Option("strict", bool, _SOLVES, False),
    _Option("lambda_min", float, ("scan",)),
    _Option("lambda_max", float, ("scan",)),
    _Option("step", float, ("scan",)),
    _Option("field", str, ("reconstruct",), help="path of a saved piecewise-linear field"),
)


def _options(command: str) -> dict[str, _Option]:
    return {o.key: o for o in _OPTIONS if o.commands is None or command in o.commands}


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


def _read_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path:
        if not Path(path).is_file():
            raise ConfigError(f"config file {path!r} not found")
        cp.read(path)
    return cp


def _config_model(config: configparser.ConfigParser) -> dict[str, MaterialModel]:
    if not config.has_section("model"):
        return {}
    section = config["model"]
    unknown = set(section) - {"name", "coeffs", "growth_c", "growth_m"}
    if unknown:
        raise ConfigError(f"unknown keys in [model]: {sorted(unknown)}")
    name = section.get("name")
    coeffs = section.get("coeffs")
    if not name or not coeffs:
        raise ConfigError("[model] needs both 'name' and 'coeffs'")
    growth = None
    if "growth_c" in section or "growth_m" in section:
        if not ("growth_c" in section and "growth_m" in section):
            raise ConfigError("[model] growth constants come in pairs")
        growth = (section.getfloat("growth_c"), section.getfloat("growth_m"))
    values = [float(tok) for tok in coeffs.replace(",", " ").split()]
    return {name: polynomial_model(name, values, growth)}


def _config_value(option: _Option, section: str, raw: str):
    """A config value, cast and checked as its flag would be."""
    if option.type is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ConfigError(f"[{section}] {option.key} must be a boolean, got {raw!r}")
        return states[raw.lower()]
    value = option.type(raw)
    if option.choices and value not in option.choices:
        raise ConfigError(
            f"[{section}] {option.key} must be one of {list(option.choices)}, got {raw!r}"
        )
    return value


def _gather(args, config) -> dict:
    """Each setting of the command: its flag, else its config value, else its default."""
    section = args.command
    options = _options(section)
    if config.has_section(section):
        unknown = set(config[section]) - set(options)
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    merged = {}
    for key, option in options.items():
        value = getattr(args, key)
        if value is None and config.has_option(section, key):
            value = _config_value(option, section, config.get(section, key))
        merged[key] = option.default if value is None else value
    return merged


def _require(merged: dict, *keys) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise ConfigError(f"missing required settings: {sorted(missing)}")


def _require_positive(merged: dict, *keys) -> None:
    for k in keys:
        v = merged.get(k)
        if v is not None and v <= 0:
            raise ConfigError(f"setting {k!r} must be positive, got {v!r}")


def _out_dir(merged: dict) -> Path:
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _model(merged: dict, config) -> MaterialModel:
    try:
        return resolve_model(merged["model"], _config_model(config))
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_cwstar(merged, config) -> int:
    _require_positive(merged, "abs_tol")
    model = _model(merged, config)
    value, err = surface_constant_quadrature(model, merged["abs_tol"])
    print(f"{value:.12g} +/- {err:.3g}")
    return EXIT_OK


def _cmd_sharp(merged, config) -> int:
    _require(merged, "lambda", "mu")
    lam, mu = merged["lambda"], merged["mu"]
    if lam <= 1.0:
        raise DomainError("sharp configurations require lambda > 1")
    if mu < 0.0:
        raise DomainError("mu must be nonnegative")
    model = _model(merged, config)
    out = _out_dir(merged)
    cw = c_wstar(model)
    n = crack_count(cw, mu, lam)
    x = continuous_crack_estimate(cw, mu, lam)
    stem = f"sharp_lambda{lam:g}_mu{mu:g}"
    cracks = {}
    for variant in ("A", "B"):
        minimizer = build_sharp_minimizer(n, lam, variant, cw, mu)
        serialize.write_field(out / f"{stem}_variant{variant}.field", minimizer.field)
        cracks[variant] = minimizer.cracks
        graph = reconstruct_deformation(minimizer.field)
        _write(out / f"{stem}_deformation_{variant}.csv", serialize.deformation_csv(graph))
        _write(out / f"{stem}_deformation_{variant}.json", serialize.deformation_json(graph))
    _write(out / f"{stem}_cracks.csv", serialize.cracks_csv(cracks))
    summary = {
        "lambda": lam,
        "mu": mu,
        "model": model.name,
        "c_wstar": cw,
        "x": x,
        "n": n,
        "energy": v_n(n, cw, mu, lam),
    }
    _write(out / f"{stem}.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"n={n} energy={v_n(n, cw, mu, lam):.12g} x={x:.12g}")
    return EXIT_OK


def _settings(merged) -> SolveSettings:
    return SolveSettings(
        lam=merged["lambda"],
        epsilon=merged.get("epsilon") or 1.0,  # sweeps set epsilon per row
        mu=merged["mu"],
        grid_n=merged["grid"],
        max_iterations=merged["max_iterations"],
        gtol=merged["gtol"],
        multistart=merged["multistart"],
        seed=merged["seed"],
    )


def _cmd_minimize(merged, config) -> int:
    _require(merged, "lambda", "epsilon")
    _require_positive(merged, "lambda", "epsilon", "grid", "gtol", "max_iterations")
    model = _model(merged, config)
    out = _out_dir(merged)
    settings = _settings(merged)
    result = run_minimize(merged["functional"], model, settings)
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
    _require(merged, "mu", "lambda_min", "lambda_max", "step")
    _require_positive(merged, "step")
    if merged["lambda_min"] < 1.0 or merged["lambda_max"] <= merged["lambda_min"]:
        raise ConfigError("scan needs 1 <= lambda-min < lambda-max")
    model = _model(merged, config)
    out = _out_dir(merged)
    report = harness.crack_scan(
        (merged["lambda_min"], merged["lambda_max"]), merged["step"], merged["mu"], model
    )
    stem = f"scan_mu{merged['mu']:g}"
    _write(out / f"{stem}.csv", serialize.scan_csv(report))
    _write(out / f"{stem}.json", serialize.scan_json(report))
    print(f"rows={len(report.rows)}")
    return EXIT_OK


def _cmd_sweep(merged, config) -> int:
    _require(merged, "lambda", "epsilons")
    _require_positive(merged, "lambda", "grid", "gtol", "max_iterations")
    epsilons = [float(tok) for tok in merged["epsilons"].replace(",", " ").split()]
    model = _model(merged, config)
    out = _out_dir(merged)
    settings = _settings(merged)
    if merged["functional"] == "I":
        report = harness.gamma_sweep_I(
            merged["lambda"], model, epsilons, merged["grid"], settings
        )
    else:
        report = harness.gamma_sweep_V(
            merged["lambda"], merged["mu"], model, epsilons, merged["grid"], settings
        )
    stem = f"sweep_{merged['functional']}_lambda{merged['lambda']:g}_mu{merged['mu']:g}"
    _write(out / f"{stem}.csv", serialize.sweep_csv(report))
    _write(out / f"{stem}.json", serialize.sweep_json(report))
    not_converged = [row.epsilon for row in report.rows if not row.converged]
    print(f"rows={len(report.rows)} unconverged={len(not_converged)}")
    if merged["strict"] and not_converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_reconstruct(merged, config) -> int:
    _require(merged, "field")
    path = Path(merged["field"])
    if not path.is_file():
        raise ConfigError(f"field file {path} not found")
    parsed = serialize.parse_field(path.read_text(encoding="utf-8"))
    graph = reconstruct_deformation(parsed)
    out = _out_dir(merged)
    stem = path.stem + "_deformation"
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
    except (NonConvergence, ConfigError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
