"""Record a baseline: run every workload on ten seeds, interleaved.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Round r runs each workload of ``BENCHMARK.json`` once with seed
``--first-seed + r``, so slow
spells of a shared machine fall on all workloads alike.  Each run is a
separate ``perfbench/run.py`` process with ``--trace 0``.  Per workload
and end-to-end metric it records every value, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  It also
records each run's sample counts and raw pass times, and the
environment of the first run.  At the end it prints each metric's
median and spread, and marks every spread above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    tagged = {
        tag: json.loads(ln[len(f"# {tag} "):])
        for tag in ("env", "samples")
        for ln in lines
        if ln.startswith(f"# {tag} ")
    }
    return {**tagged, **json.loads(lines[-1])}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    runs = {w["name"]: [] for w in bench["workloads"]}
    env = None
    for r in range(RUNS):
        for workload in runs:
            result = run_once(workload, args.first_seed + r, bench["run_seconds"])
            env = env or result["env"]
            del result["env"]
            runs[workload].append(result)
            metrics = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(workload, args.first_seed + r, result["correct"], metrics, flush=True)

    summary = {}
    for workload, results in runs.items():
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "samples": [r["samples"] for r in results],
            "metrics": {
                m["name"]: {"unit": m["unit"], **spread([r["metrics"][m["name"]]["value"] for r in results])}
                for m in bench["end_to_end"]
            },
        }
    record = {
        "seeds": [args.first_seed + r for r in range(RUNS)],
        "run_seconds": bench["run_seconds"],
        "env": env,
        "workloads": summary,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            flag = "" if m["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:24s} median {m['median']:.6g} spread {m['spread']:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
