#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 [--repeat 11-20]
                              [--workloads cli-scenarios,sweep-grid]
                              [--traced] [--out summary.json]

For every workload, runs ``bench/run.py`` once per seed, one process at a
time, with ``run_seconds`` from BENCHMARK.json, and reports for every
end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound.  ``--traced`` adds one traced run per workload,
on the first seed, for the per-layer breakdown.  ``--repeat`` runs a second
set on other seeds and checks it against the first: every spread but
``setup_s``'s within its bound, and no median worse than the first set's by
more than the bound; the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its ``env`` lines."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = dict(line[4:].split(" = ", 1) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _set(workloads: list[str], seeds: list[int], seconds: int, bounds: dict,
         label: str) -> tuple[dict, dict]:
    """One set of untraced runs: per workload, summaries of every end-to-end metric."""
    entries, environment = {}, {}
    for workload in workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        results = [result for result, _ in runs]
        environment = {k: v for k, v in runs[0][1].items() if k != "seed"}
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"{label} {workload:<14} {name:<22} median={stats['median']:<12.6g} "
                  f"q1={stats['q1']:<12.6g} q3={stats['q3']:<12.6g} "
                  f"spread={stats['spread']:.4f} bound={bounds[name]} {flag}", flush=True)
        print(f"{label} {workload:<14} failed {entry['failed']} of {entry['attempted']}",
              flush=True)
        entries[workload] = entry
    return entries, environment


def _compare(first: dict, second: dict, spec: dict) -> bool:
    """Print how far each second-set median moved, in the worse direction."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in first:
            a = first[workload]["end_to_end"][name]
            b = second[workload]["end_to_end"][name]
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max(a["spread"], b["spread"])
            fits = worse <= bound and (name == "setup_s" or spread <= bound)
            ok = ok and fits
            print(f"repeat {workload:<14} {name:<22} worse by {worse:+.4f} "
                  f"spreads {a['spread']:.4f}/{b['spread']:.4f} bound {bound} {'ok' if fits else 'OUT'}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--repeat", help="seeds of a second set of runs, e.g. 11-20")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "seeds": seeds}
    report["workloads"], report["environment"] = _set(workloads, seeds, seconds, bounds, "set")
    if args.traced:
        for workload in workloads:
            traced, _ = _run(workload, seeds[0], seconds, 1)
            report["workloads"][workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
            report["workloads"][workload]["per_layer_seed"] = seeds[0]
    status = 0
    if args.repeat:
        repeat_seeds = _seeds(args.repeat)
        second, _ = _set(workloads, repeat_seeds, seconds, bounds, "repeat")
        report["repeat"] = {
            "note": "a second set of runs of the same code, taken right after the first",
            "seeds": repeat_seeds,
            "workloads": second,
        }
        status = 0 if _compare(report["workloads"], second, spec) else 1
    layers = report["workloads"].get("lattice-beta", {}).get("per_layer")
    imports = report["workloads"].get("cli-scenarios", {}).get("per_layer")
    if layers and imports:
        report["known_waste"] = {
            "lattice-beta universe builds per lattice run": layers[
                "lattice.universe_builds_per_run"],
            "lattice-beta CDF evaluations per inverse": layers[
                "numerics.cdf_evals_per_inverse"],
            "NumPy share of import workmix": imports["import.numpy_ms"]
            / imports["import.workmix_ms"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
