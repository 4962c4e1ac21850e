"""Run every workload of the benchmark and summarise it in one command.

    python3 perfbench/summary.py [--first-seed 1] [--baseline perfbench/baseline.json]

Run from the root of the repository.  For each workload of BENCHMARK.json,
run.py runs RUNS times untraced (seeds first-seed, first-seed + 1, ...) and
TRACED times traced, so that run.py compares the counters of traced runs.
Prints every end-to-end metric (median, quartiles as
``statistics.quantiles(n=4)`` gives them, and their spread against a third
of the metric's bound), every per-layer metric with the end-to-end metric and
workload it should move, and the share of wall time each workload's stressed
layer takes.  Exits non-zero if any run fails a check.  ``--baseline`` also
writes all of it, with the environment, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import source_hash

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10       # untraced runs per workload, the sample of each quartile
TRACED = 2      # traced runs per workload; two, so the counters are compared

# per-layer metric -> (end-to-end metric, workload it should move)
MOVES = {
    "oracle.mc.s": ("wall_s", "qubit_compare"),
    "oracle.quad.s": ("wall_s", "qubit_compare"),
    "oracle.analytic.s": ("wall_s", "qubit_compare"),
    "oracle.realizations": ("wall_s", "qubit_compare"),
    "dynamics.propagate.s": ("wall_s", "dimer_chain"),
    "dynamics.propagate.calls": ("wall_s", "dimer_chain"),
    "dynamics.matvecs": ("wall_s", "dimer_chain"),
    "dynamics.states_held_mb": ("peak_rss_mb", "dimer_chain"),
    "dynamics.auto_depth.s": ("wall_s", "general_auto"),
    "dynamics.depths_tried": ("wall_s", "general_auto"),
    "dynamics.depth_chosen": ("wall_s", "general_auto"),
    "lattice.build.s": ("wall_s", "general_auto"),
    "lattice.build.calls": ("wall_s", "general_auto"),
    "lattice.to_csr.s": ("wall_s", "general_auto"),
    "lattice.op_dim": ("wall_s", "general_auto"),
    "lattice.op_nnz": ("wall_s", "general_auto"),
    # each at most ~1% of any workload; recorded so that a regression shows
    "measures.recurrence_table.s": ("wall_s", "any"),
    "measures.quantile.s": ("wall_s", "any"),
    "states.initial.s": ("wall_s", "any"),
    "reduction.trace.s": ("wall_s", "any"),
    "cli.output.s": ("wall_s", "any"),
    "cli.output_bytes": ("wall_s", "any"),
    "cli.self.s": ("wall_s", "any"),
    "cli.run.s": ("wall_s", "any"),
    "trace.overhead_s": ("wall_s", "any"),
}

# the layer each workload was chosen to stress, and the least share of wall_s
# it should take at the seed commit
STRESS = {
    "qubit_compare": ("oracle.mc.s", 0.70),
    "dimer_chain": ("dynamics.propagate.s", 0.90),
    "general_auto": ("lattice.build.s", 0.50),
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    out["exit_code"] = proc.returncode
    print(f"  {workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"correct {out.get('correct')}, {out.get('attempted')} runs, "
          f"{out.get('failed')} failed", flush=True)
    return out


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / statistics.median(values)}


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"source_hash": source_hash(), "nproc": os.cpu_count(), "blas_threads": 1, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "cpu_model": cpu}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = False
    record = {"runs": RUNS, "traced_runs": TRACED, "first_seed": args.first_seed,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}:", flush=True)
        seeds = range(args.first_seed, args.first_seed + RUNS)
        untraced = [bench(workload, s, spec["run_seconds"], 0) for s in seeds]
        traced = [bench(workload, s, spec["run_seconds"], 1) for s in seeds[:TRACED]]
        failed |= any(r["exit_code"] != 0 or not r.get("correct") for r in untraced + traced)
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in untraced if r.get("correct")]
            if not values:
                continue
            q = end_to_end[name] = quartiles(values)
            steady = "steady" if q["spread"] < bound / 3 else "NOT STEADY"
            print(f"  {name:30s} median {q['median']:12.6g} {units[name]:6s} "
                  f"q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']} spread {q['spread']:.4f} "
                  f"(bound {bound}, {steady})")
        per_layer = {}
        for name, (moves, target) in MOVES.items():
            values = [r["metrics"][name]["value"] for r in traced if r.get("correct")]
            if not values:
                continue
            per_layer[name] = statistics.median(values)
            print(f"  {name:30s} {per_layer[name]:12.6g} {units[name]:6s} "
                  f"moves {moves} on {target}")
        stressed, least = STRESS[workload]
        share = None
        if stressed in per_layer:
            share = per_layer[stressed] / per_layer["cli.run.s"]
            print(f"  stress: {stressed} is {share:.1%} of the traced wall_s "
                  f"(expected >= {least:.0%})")
        record["workloads"][workload] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
            "stress": {"metric": stressed, "share_of_wall_s": share, "expected_at_least": least}}

    if args.baseline:
        record["environment"] = environment()
        record["per_layer_moves"] = {k: {"end_to_end": m, "workload": w}
                                     for k, (m, w) in MOVES.items()}
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    print("FAILED" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
