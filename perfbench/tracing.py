"""Outside-in tracing of the fracture1d modules.

The benchmark records spans without editing the package: a wrapper
replaces a function at the name its caller looks up.  A function that
another module imports by name (``harness.minimize``,
``cli.build_sharp_minimizer``) is wrapped in that importing module; a
function read as a module global at call time (``regularized.project_h``)
is wrapped in its own module.  The wrappers exist only while
``Tracer.install`` is in effect, so untraced passes run the package
untouched.

Spans live in flat in-memory arrays (name, start, end, parent span, run
id) and are written out once at the end with ``Tracer.dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# The package's modules, which are the benchmark's layers.
LAYERS = ("cli", "harness", "regularized", "sharp", "material", "serialize")

_WRITERS = (
    "write_field",
    "discrete_csv",
    "solve_summary_json",
    "sweep_csv",
    "sweep_json",
    "scan_csv",
    "scan_json",
    "cracks_csv",
    "deformation_csv",
    "deformation_json",
)

# (module whose global the caller reads, attribute, span name).
PATCHES = (
    ("cli", "main", "cli.main"),
    ("harness", "gamma_sweep_I", "harness.sweep"),
    ("harness", "gamma_sweep_V", "harness.sweep"),
    ("harness", "crack_scan", "harness.crack_scan"),
    ("harness", "minimize", "regularized.minimize"),
    ("cli", "run_minimize", "regularized.minimize"),
    ("harness", "mm_lower_bound_H", "regularized.mm_lower_bound"),
    ("harness", "mm_lower_bound_slopes", "regularized.mm_lower_bound"),
    ("regularized", "project_h", "regularized.project_h"),
    ("regularized", "project_H", "regularized.project_H"),
    ("regularized", "isotonic_regression", "regularized.isotonic_regression"),
    ("regularized", "mollify_sharp_candidate", "regularized.mollify_sharp_candidate"),
    ("cli", "resolve_model", "material.resolve_model"),
    # Both entry points to the surface-constant quadrature.
    ("cli", "c_wstar", "material.c_wstar"),
    ("cli", "surface_constant_quadrature", "material.c_wstar"),
    ("harness", "c_wstar", "material.c_wstar"),
    ("regularized", "c_wstar", "material.c_wstar"),
    ("cli", "build_sharp_minimizer", "sharp.build_sharp_minimizer"),
    ("harness", "build_sharp_minimizer", "sharp.build_sharp_minimizer"),
    ("regularized", "build_sharp_minimizer", "sharp.build_sharp_minimizer"),
    ("cli", "reconstruct_deformation", "sharp.reconstruct_deformation"),
    ("serialize", "parse_field", "serialize.parse_field"),
) + tuple(("serialize", name, "serialize.write") for name in _WRITERS)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every patch site and the LJ model; return the undo function."""
        saved = []
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(f"fracture1d.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        material = importlib.import_module("fracture1d.material")
        builtin_lj = material.builtin_lj
        saved.append((material, "builtin_lj", builtin_lj))

        def counting_lj():
            # A copy of the LJ model whose densities record spans, so that
            # density calls are counted and their time leaves the caller's self time.
            model = builtin_lj()
            return dataclasses.replace(
                model,
                wstar=self.wrap("material.wstar", model.wstar),
                wstar_prime=self.wrap("material.wstar_prime", model.wstar_prime),
            )

        material.builtin_lj = counting_lj

        def undo():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return undo

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path: Path) -> None:
        """Write all spans as one ``.npz``; ``names`` maps name ids to names."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are merged as intervals, so overlapping children are not
    subtracted twice; parts of a child outside its parent do not count.
    """
    n = len(start)
    out = [end[i] - start[i] for i in range(n)]
    order = sorted((j for j in range(n) if parent[j] >= 0), key=lambda j: (parent[j], start[j]))
    k = 0
    while k < len(order):
        p = parent[order[k]]
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        while k < len(order) and parent[order[k]] == p:
            j = order[k]
            a, b = max(start[j], reach), min(end[j], hi)
            if b > a:
                covered += b - a
                reach = b
            k += 1
        out[p] -= covered
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (inclusive) and self seconds."""
    a = tracer.arrays()
    own = self_times(a["start"].tolist(), a["end"].tolist(), a["parent"].tolist())
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in tracer.names}
    for nid, t0, t1, s in zip(a["name_id"].tolist(), a["start"].tolist(), a["end"].tolist(), own):
        entry = out[tracer.names[nid]]
        entry["calls"] += 1
        entry["busy_s"] += t1 - t0
        entry["self_s"] += s
    return out


def layer_self(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer: the sum over that module's span names."""
    return {
        layer: sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)
        for layer in LAYERS
    }


def _noop():
    return None


def wrapper_cost(calls: int = 20000, trials: int = 5) -> float:
    """Median extra seconds one traced call costs over an untraced call."""
    costs = []
    for _ in range(trials):
        traced = Tracer().wrap("calibrate", _noop)
        t0 = perf_counter()
        for _ in range(calls):
            _noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - t0 - bare) / calls)
    return max(statistics.median(costs), 0.0)
