"""End-to-end benchmark of enslat on three workloads, with a traced mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths are relative to the checkout that holds perfbench/.  Each run is one call of the public
``enslat.cli.run`` in a fresh child process (child.py), one run at a time:
a closed loop with one client.  BLAS threads in the child are pinned to 1.
Runs repeat until ``--seconds`` have passed (at least one run); the seed is
handed to ``run(seed=...)``.

Every run is checked: the child and ``run`` exit 0, every ``compare`` row
the program reports passes, the benchmark's own recomputation of those gates
from the trajectory CSVs passes, the dimer chain result lies within 1e-8 of
an order-384 quadrature reference made outside the timed runs, and the
trajectory CSVs are byte-identical for every run with one seed.

``--trace 0`` reports the end-to-end metrics (medians over the runs;
``setup_s`` also over set-up-only children before and after the runs);
``--trace 1`` traces every run (tracing.py) and reports the per-layer
metrics (medians over the runs).  The counters of every traced run of one
source tree must agree exactly.  The dimer reference, the CSV digests and counters seen so
far, the outputs and the span dumps are kept in ``.perfbench/``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BUDGET_S = 170.0        # the whole invocation must end within 180 s
SETUP_PROBES = 8        # set-up-only children before the runs, and as many after

# The gates of the shipped compare configs, applied by the benchmark itself.
QUAD_TOL, ANALYTIC_TOL, MC_SIGMAS, MC_FLOOR = 1e-8, 1e-9, 4.0, 1e-10
DIMER_REF_TOL = 1e-8

# per-layer metrics that depend on the source tree only, never on timing or seed
COUNTERS = ("oracle.realizations", "dynamics.propagate.calls", "dynamics.matvecs",
            "dynamics.states_held_mb", "dynamics.depths_tried", "dynamics.depth_chosen",
            "lattice.build.calls", "lattice.op_dim", "lattice.op_nnz")

WORKLOADS = {
    # the common user run: compare, auto depth; the MC oracle does most work
    "qubit_compare": "configs/qubit_gaussian.yaml",
    # the paper's 2-D showcase: one long propagation, nothing else
    "dimer_chain": "configs/dimer_gaussian.yaml",
    # auto depth over a degree-2 coupling: quadrature assembly at each depth
    "general_auto": None,
}


def general_auto_config(work: Path) -> Path:
    """Write the benchmark-owned general_auto config and its initial state.

    Three levels, a degree-2 polynomial coupling, gaussian disorder cut at
    +-5 sigma (so the recurrence table comes from Stieltjes), a tabulated
    disorder-dependent initial state, auto depths and ``compare``.
    ``auto_depth`` leaks at depth 128, is clean at 256 and accepts 512.
    The initial state is tabulated at the two support edges only: the CLI
    interpolates linearly and renormalizes, so c(lam) = (u + lam v)/|u + lam v|,
    an analytic function.  A denser table puts a kink at every node, and the
    expansion then drifts by ~1e-11 between doublings, so auto depth never
    settles.
    """
    u, v = (1.0, 0.5, 0.2), (0.0, 0.05, -0.1)
    rows = []
    for lam in (-5.0, 5.0):
        c = [a + lam * b for a, b in zip(u, v)]
        norm = math.sqrt(sum(x * x for x in c))
        rows.append(" ".join(repr(x) for x in [lam] + [y for x in c for y in (x / norm, 0.0)]))
    (work / "initial_state.txt").write_text("\n".join(rows) + "\n")
    zero = [[0.0] * 3 for _ in range(3)]
    config = {
        "unit": "E",
        "system": {
            "h0": [[0.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 2.0]],
            "couplings": [{"type": "polynomial", "matrices": [
                zero,
                [[0.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, -1.2]],
                [[0.12, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.12]]]}],
            "distributions": [{"family": "gaussian", "width": 1.0, "cutoff": [-5.0, 5.0]}],
        },
        "initial": {"kind": "tabulated", "file": "initial_state.txt"},
        "time": {"t_max": 20.0, "n_steps": 200},
        "method": "compare",
        "numeric": {"tol": 1e-12, "depths": "auto", "seed": 1, "samples": 4000,
                    "quad_order": 160},
        "compare": {"quad_tol": QUAD_TOL, "mc_sigmas": MC_SIGMAS},
        "output": {"directory": "out"},
    }
    path = work / "config.json"             # JSON is YAML, which the CLI reads
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed, self.deadline = seed, deadline
        shipped = WORKLOADS[workload]
        self.config = ROOT / shipped if shipped else general_auto_config(self.work)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.src = source_hash()
        # what earlier invocations in this checkout saw, per source hash
        self.record_file = self.work / "record.json"
        self.record = (json.loads(self.record_file.read_text()) if self.record_file.exists()
                       else {"digests": {}, "counts": {}})

    def child(self, mode: str, *extra: str) -> dict:
        """Run child.py to completion (killed at the deadline); its result."""
        result = self.work / f"{mode}.json"
        result.unlink(missing_ok=True)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(self.config),
                 str(result), repr(t_spawn), *extra],
                env=self.env, cwd=self.work, stdout=sys.stderr,
                timeout=max(self.deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: killed at the time budget") from None
        if proc.returncode != 0 or not result.exists():
            raise ChildFailed(f"{mode}: child exited {proc.returncode}")
        out = json.loads(result.read_text())
        if Path(out["enslat"]).resolve().parent.parent != ROOT / "src":
            raise ChildFailed(f"{mode}: imported enslat from {out['enslat']}")
        return out

    def reference(self) -> dict:
        """Order-384 quadrature reference for the dimer, cached per source."""
        path = self.work / f"quad_ref_{self.src}.csv"
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            self.child("reference", str(tmp))
            tmp.replace(path)
        return read_trajectory(path)

    def one_run(self, trace: bool, reference) -> tuple[dict | None, list]:
        """One timed run and its checks; (child result, problems)."""
        out_dir = self.work / "out"
        try:
            res = self.child("run", str(out_dir), str(self.seed), "1" if trace else "0")
        except ChildFailed as exc:
            return None, [str(exc)]
        try:
            problems = check_outputs(res, out_dir, reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"malformed outputs: {exc!r}"]
        print(f"run: wall_s {res['wall_s']:.4f} setup_s {res['setup_s']:.4f} "
              f"cpu_s {res['cpu_s']:.4f} peak_rss_mb {res['peak_rss_mb']:.1f}"
              f"{' traced' if trace else ''}", file=sys.stderr, flush=True)
        seen = self.record["digests"].setdefault(f"{self.seed}:{self.src}", {})
        for name in sorted(res["outputs"]):
            if name.startswith("trajectory_"):
                digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                if seen.setdefault(name, digest) != digest:
                    problems.append(f"{name} differs from an earlier run with seed {self.seed}")
        return res, problems

    def check_counts(self, metrics: dict) -> list:
        """The counters of a traced run must equal those of every earlier one."""
        counts = {k: metrics[k] for k in COUNTERS}
        seen = self.record["counts"].setdefault(self.src, counts)
        return [f"{k} = {v} in this traced run, {seen.get(k)} in an earlier one"
                for k, v in counts.items() if seen.get(k) != v]

    def save_record(self):
        tmp = self.record_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.record, indent=1, sort_keys=True))
        tmp.replace(self.record_file)


def read_trajectory(path: Path) -> dict:
    """Trajectory CSV -> {column: [values]}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in fh:
            for h, x in zip(header, line.split(",")):
                cols[h].append(float(x))
    return cols


def max_gap(a: dict, b: dict, band=None) -> float:
    """max over times and entries of |a - b| (minus the band, if given)."""
    if a["t"] != b["t"]:
        return math.inf
    worst = -math.inf
    for re in (h for h in a if h.startswith("re_rho_")):
        im = "im" + re[2:]
        sem = b.get("sem" + re[2:]) if band else None
        for i in range(len(a[re])):
            gap = abs(complex(a[re][i] - b[re][i], a[im][i] - b[im][i]))
            if band:
                gap -= band(sem[i])
            worst = max(worst, gap)
    return worst


def check_outputs(res: dict, out_dir: Path, reference) -> list:
    problems = []
    if res["exit_code"] != 0:
        problems.append(f"run() returned exit code {res['exit_code']}")
    problems += [f"compare row {r['pair']} failed: {r['max_abs_error']:.3e}"
                 for r in res["compare"] if not r["pass"]]
    traj = {name[len("trajectory_"):-len(".csv")]: read_trajectory(out_dir / name)
            for name in res["outputs"] if name.startswith("trajectory_")}
    chain = traj.get("chain")
    if chain is None:
        return problems + ["no chain trajectory written"]
    gates = [("quad", QUAD_TOL, None), ("analytic", ANALYTIC_TOL, None),
             ("mc", 0.0, lambda sem: MC_SIGMAS * sem + MC_FLOOR)]
    for name, tol, band in gates:
        if name in traj:
            gap = max_gap(chain, traj[name], band)
            if not gap <= tol:
                problems.append(f"chain vs {name}: {gap:.3e} > {tol:g}")
    if reference is not None:
        gap = max_gap(chain, reference)
        if not gap <= DIMER_REF_TOL:
            problems.append(f"chain vs order-384 quadrature reference: {gap:.3e}")
    return problems


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "enslat" / "cli.py").is_file():
        print(f"no enslat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(args.workload, args.seed, deadline)
    setups = []

    def probe_setup():
        setups.extend(bench.child("setup")["setup_s"] for _ in range(SETUP_PROBES))

    try:
        if not args.trace:
            probe_setup()
        reference = bench.reference() if args.workload == "dimer_chain" else None
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    runs, problems = [], []
    t0 = time.monotonic()
    while not runs or (time.monotonic() - t0 < args.seconds and time.monotonic() < deadline):
        runs.append(bench.one_run(bool(args.trace), reference))

    # runs that failed a check still count in the medians; they make correct false
    done = [res for res, _ in runs if res]
    metrics = {}
    if not args.trace:
        try:
            probe_setup()
        except ChildFailed as exc:
            problems.append(f"set-up probe after the runs: {exc}")
        metrics["setup_s"] = median(setups + [res["setup_s"] for res in done])
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = median([r[name] for r in done])
    elif done:
        for name in done[0]["trace"]["metrics"]:
            metrics[name] = median([r["trace"]["metrics"][name] for r in done])
        for res in done:
            problems += bench.check_counts(res["trace"]["metrics"])
        trace_file = bench.work / f"trace_seed{args.seed}.json"
        trace_file.write_text(json.dumps(done[-1]["trace"], indent=1))
    bench.save_record()

    problems += [msg for _, bad in runs for msg in bad]
    out = {}
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} not measured")
        else:
            print(f"{m['name']:32s} {value:>16.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(runs),
                      "failed": sum(1 for _, bad in runs if bad), "metrics": out}))
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
