"""The benchmark's workloads: a fixed list of CLI commands per pass, and
the checks each pass's outputs must meet.

Every workload is one closed-loop client: the next command starts when
the previous one returns.  The seed reaches the program only as the
sweeps' ``--seed`` value and as the closed-form (lambda, mu) list.
The tolerances are those of the acceptance criteria (criteria 1, 2, 3,
6, 7 and 8) and must not be loosened.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Closed-form surface-energy constant of the LJ model, 4*sqrt(2)/15.
C_LJ = 4.0 * math.sqrt(2.0) / 15.0


def sharp_energy(n: int, c: float, mu: float, lam: float) -> float:
    """V_n of the n-crack configuration, written out independently of the package."""
    return n * c + mu * (lam - 1.0) ** 2 / (6.0 * n * n)


def sharp_count(c: float, mu: float, lam: float) -> int:
    """The crack count minimizing V_n; ties go to the smaller count."""
    x = (mu * (lam - 1.0) ** 2 / (3.0 * c)) ** (1.0 / 3.0)
    candidates = range(1, int(x) + 3)
    return min(candidates, key=lambda n: (sharp_energy(n, c, mu, lam), n))


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``expect`` holds what its check needs."""

    argv: tuple[str, ...]
    expect: dict


@dataclass
class OpResult:
    code: int | None
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Sweep:
    """One ``fracture1d sweep`` command per pass."""

    name: str
    why: str
    functional: str
    lam: float
    epsilons: tuple[float, ...]
    grid: int
    mu: float | None = None
    multistart: int = 2
    max_iterations: int = 1500
    warmup: bool = False
    # The package modules whose functions the pass calls; a traced pass
    # must record self time in each of them.
    layers: tuple[str, ...] = ("cli", "harness", "regularized", "material", "serialize")

    def ops(self, seed: int, out: Path) -> list[Op]:
        argv = ["sweep", "--functional", self.functional, "--lambda", f"{self.lam:g}"]
        if self.mu is not None:
            argv += ["--mu", f"{self.mu:g}"]
        argv += [
            "--epsilons", ",".join(f"{e:g}" for e in self.epsilons),
            "--grid", str(self.grid),
            "--multistart", str(self.multistart),
            "--max-iterations", str(self.max_iterations),
            "--seed", str(seed),
            "--out", str(out),
        ]
        return [Op(tuple(argv), {})]

    def check(self, ops: list[Op], results: list[OpResult], out: Path):
        """Per-op failure reasons (None when it passed) and quality figures."""
        result = results[0]
        if result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()[-200:]}"], {}
        mu = 0.0 if self.mu is None else self.mu
        path = out / f"sweep_{self.functional}_lambda{self.lam:g}_mu{mu:g}.json"
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable sweep output: {exc!r}"], {}
        quality = {
            "rescaled_energy_final": rows[-1]["rescaled_energy"],
            "rescaled_energy_mean": sum(r["rescaled_energy"] for r in rows) / len(rows),
            "unconverged_frac": sum(1 for r in rows if not r["converged"]) / len(rows),
        }
        return [self._criteria(rows, mu)], quality

    def _criteria(self, rows: list[dict], mu: float) -> str | None:
        last = rows[-1]
        if self.functional == "V":
            # Criterion 7.
            n = sharp_count(C_LJ, mu, self.lam)
            target = sharp_energy(n, C_LJ, mu, self.lam)
            if last["transition_count"] != n:
                return f"final transition count {last['transition_count']} != {n}"
            if abs(last["rescaled_energy"] - target) > 0.15 * target:
                return f"final rescaled energy {last['rescaled_energy']} not within 15% of {target}"
            for r in rows:
                if r["rescaled_energy"] < 0.98 * r["mm_lower_bound"]:
                    return f"row eps={r['epsilon']} below 0.98 x the equipartition bound"
            return None
        # Criterion 6.
        if last["transition_count"] != 1:
            return f"final transition count {last['transition_count']} != 1"
        if abs(last["rescaled_energy"] - C_LJ) > 0.10 * C_LJ:
            return f"final rescaled energy {last['rescaled_energy']} not within 10% of C"
        if len(rows) > 1 and last["l1_distance_to_sharp"] > rows[-2]["l1_distance_to_sharp"]:
            return "L1 distance to the sharp field rose on the last step"
        return None


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class ClosedForm:
    """Sharp-limit commands over a seeded list of (lambda, mu) pairs."""

    name: str
    why: str
    pairs: int = 64
    warmup: bool = True
    layers: tuple[str, ...] = ("cli", "harness", "sharp", "material", "serialize")

    def points(self, seed: int) -> list[tuple[str, str, str]]:
        """(lambda, mu, variant) per pair, as the strings passed to the CLI.

        A Latin hypercube over lambda in (1.05, 3) and mu in (10, 2000):
        each of ``pairs`` equal strata of either range holds one point, so
        every seed gives the same spread of crack counts and work per pass.
        """
        rng = random.Random(seed)
        lam_strata = list(range(self.pairs))
        rng.shuffle(lam_strata)
        out = []
        for k in range(self.pairs):
            u, v = (0.0005 + 0.999 * rng.random() for _ in range(2))
            lam = 1.05 + 1.95 * (lam_strata[k] + u) / self.pairs
            mu = 10.0 + 1990.0 * (k + v) / self.pairs
            out.append((f"{lam:.6f}", f"{mu:.4f}", rng.choice("AB")))
        return out

    def ops(self, seed: int, out: Path) -> list[Op]:
        ops = []
        for k, (lam, mu, variant) in enumerate(self.points(seed)):
            pair_dir = out / f"pair{k:02d}"
            stem = f"sharp_lambda{float(lam):g}_mu{float(mu):g}"
            field = pair_dir / f"{stem}_variant{variant}.field"
            expect = {"lam": float(lam), "mu": float(mu), "dir": pair_dir, "stem": stem, "variant": variant}
            ops += [
                Op(("sharp", "--lambda", lam, "--mu", mu, "--out", str(pair_dir)), {"kind": "sharp", **expect}),
                Op(("reconstruct", "--field", str(field), "--out", str(pair_dir)), {"kind": "reconstruct", **expect}),
                Op(
                    ("scan", "--mu", mu, "--lambda-min", "1", "--lambda-max", "2", "--step", "0.01",
                     "--out", str(pair_dir)),
                    {"kind": "scan", **expect},
                ),
            ]
        # Once per pass, not per pair: with four commands per pair, the
        # latency median would sit on the edge between two commands' clusters.
        return ops + [Op(("cwstar", "--model", "lj"), {"kind": "cwstar"})]

    def check(self, ops: list[Op], results: list[OpResult], out: Path):
        failures = []
        seen = {"cwstar": [], "scan": []}  # values the quality figures average
        for op, result in zip(ops, results):
            e = op.expect
            if result.code != 0:
                failures.append(f"{e['kind']}: exit code {result.code}: {result.stderr.strip()[-200:]}")
                continue
            check = getattr(self, f"_check_{e['kind']}")
            try:
                failures.append(check(e, result, seen))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"{e['kind']}: unreadable output: {exc!r}")
        quality = {
            # With no epsilon to drive down, the final rescaled energy is the
            # limit value itself: C, the rescaled energy of one crack, which
            # sweep-I approaches.  The mean runs over every scan row's V_n.
            # Both are nearly seed-independent, so they share the sweeps' bound.
            "rescaled_energy_final": _mean(seen["cwstar"]),
            "rescaled_energy_mean": _mean(seen["scan"]),
            "unconverged_frac": 0.0,
        }
        return failures, quality

    def _check_sharp(self, e, result, seen):
        # Criteria 2 and 3: the printed count and energy follow the closed form.
        fields = dict(tok.split("=", 1) for tok in result.stdout.split())
        n, energy = int(fields["n"]), float(fields["energy"])
        expected = sharp_count(C_LJ, e["mu"], e["lam"])
        if n != expected:
            return f"sharp: n={n}, closed form gives {expected}"
        target = sharp_energy(n, C_LJ, e["mu"], e["lam"])
        if abs(energy - target) > 1e-9 * max(1.0, abs(target)):
            return f"sharp: energy {energy} != V_n {target}"
        return None

    def _check_reconstruct(self, e, result, seen):
        # Lazy import: the package is on the path only once run.py set it up.
        from fracture1d.serialize import field_to_text, parse_field

        d, stem, variant = e["dir"], e["stem"], e["variant"]
        text = (d / f"{stem}_variant{variant}.field").read_text(encoding="utf-8")
        if field_to_text(parse_field(text)) != text:
            return "reconstruct: field file does not round-trip through parse_field"
        direct = (d / f"{stem}_deformation_{variant}.csv").read_bytes()
        parsed = (d / f"{stem}_variant{variant}_deformation.csv").read_bytes()
        if direct != parsed:
            return "reconstruct: deformation from the parsed field differs from the direct one"
        return None

    def _check_scan(self, e, result, seen):
        # Criterion 8: the staircase never steps down.
        rows = _read_csv(e["dir"] / f"scan_mu{e['mu']:g}.csv")
        counts = [int(r["n"]) for r in rows]
        if len(rows) != 99:
            return f"scan: {len(rows)} rows, expected 99"
        if any(b < a for a, b in zip(counts, counts[1:])):
            return "scan: crack count decreases along the scan"
        seen["scan"].extend(float(r["V_n"]) for r in rows)
        return None

    def _check_cwstar(self, e, result, seen):
        # Criterion 1.
        value = float(result.stdout.split()[0])
        if abs(value - C_LJ) > 1e-10:
            return f"cwstar: {value} not within 1e-10 of 4*sqrt(2)/15"
        seen["cwstar"].append(value)
        return None


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            name="sweep-V",
            why=(
                "V sweep at lambda 1.5, mu 200, N 1000: pure-Python PAV projection, the mollified "
                "sharp-start battery and continuation; bypasses project_H"
            ),
            functional="V",
            lam=1.5,
            mu=200.0,
            epsilons=(0.04, 0.02),
            grid=1000,
            # The V sweep also builds sharp minimizers as starting points.
            layers=("cli", "harness", "regularized", "sharp", "material", "serialize"),
        ),
        Sweep(
            name="sweep-I",
            why=(
                "I sweep at lambda 1.4, N 4000 (criterion 6): sort-based simplex projection "
                "project_H at large N; bypasses PAV and the sharp-minimizer construction"
            ),
            functional="I",
            lam=1.4,
            epsilons=(0.08, 0.04, 0.02, 0.01),
            grid=4000,
        ),
        ClosedForm(
            name="closed-form",
            why=(
                "sharp, reconstruct, scan and cwstar over seeded (lambda, mu): CLI parsing, model "
                "resolution, c_wstar quadrature, sharp and serialize; bypasses regularized"
            ),
        ),
    )
}
