"""Config-driven command-line driver.

A run is described by a single YAML file (see README for the schema): the
ensemble, the initial state, the time grid, the method (``chain`` for the
lattice route, ``mc`` / ``quad`` / ``analytic`` for the oracles, ``compare``
to cross-check them) and numeric controls.  Outputs are CSV trajectories, a
leakage report for the chain route, an error table for ``compare``, and a
YAML manifest holding every resolved parameter; the manifest doubles as a
re-runnable config so deterministic runs reproduce bitwise.

Exit codes: 0 ok, 2 config error, 3 numeric failure (leakage, breakdown,
convergence), 4 comparison tolerance exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np
import yaml

from . import __version__
from .errors import (
    ConfigError,
    EmptySupport,
    EnslatError,
    KrylovBreakdown,
    LeakageExceeded,
    NormDefectExceeded,
    NotHermitian,
    NotNormalized,
    NumericalBreakdown,
    UnboundedSupport,
    UnsupportedFamily,
)
from .dynamics import PropagationPlan, auto_depth
from .dynamics import propagate  # noqa: F401  unused; perfbench/tracing.py rebinds it here
from .lattice import (
    EnsembleSpec,
    LinearCoupling,
    PolynomialCoupling,
    TabulatedCoupling,
    build_general,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
    build_linear,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
)
from .measures import (
    DisorderDistribution,
    recurrence_table,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
)
from .oracle import OracleConfig, analytic_qubit, mc_average, quad_average
from .reduction import (
    DensityTrajectory,
    trajectory_from_states,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
)
from .states import expanded_initial, localized_initial

__all__ = ["run", "validate_config", "main", "RunResult"]

_METHODS = ("chain", "mc", "quad", "analytic", "compare")

# numeric failures: the run exits 3 on these, after recording them in its manifest
_NUMERIC_FAILURES = (LeakageExceeded, NumericalBreakdown, KrylovBreakdown, NormDefectExceeded,
                     UnboundedSupport, NotNormalized, EmptySupport)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _as_complex(entry, path: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    _fail(path, f"expected a number or [re, im] pair, got {entry!r}")


def _matrix(block, path: str) -> np.ndarray:
    if not isinstance(block, list) or not block:
        _fail(path, "expected a matrix as a list of rows")
    mat = np.array([[_as_complex(e, f"{path}[{i}][{j}]")
                     for j, e in enumerate(row)] for i, row in enumerate(block)])
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        _fail(path, f"matrix must be square, got shape {mat.shape}")
    return mat


def _matrix_to_yaml(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]


def _data_file(block: dict, path: str, base_dir: str, what: str) -> np.ndarray:
    """The table in the file a block's ``file`` key names, relative to the config."""
    fname = block.get("file")
    if fname is None:
        _fail(f"{path}.file", f"{what} needs a data file")
    fpath = os.path.join(base_dir, fname)
    if not os.path.exists(fpath):
        _fail(f"{path}.file", f"no such file: {fpath}")
    return np.loadtxt(fpath, ndmin=2)


def _file_from(block, base_dir: str, out_dir: str):
    """The block with its ``file`` key, if any, relative to the manifest's directory.

    A config's ``file`` is relative to the config; the manifest written to
    out_dir is read back with out_dir as its base, so it names the same file
    from there.
    """
    if not isinstance(block, dict) or "file" not in block:
        return block
    fpath = os.path.join(base_dir, block["file"])
    return {**block, "file": os.path.relpath(fpath, os.path.abspath(out_dir))}


def _distribution(block, path: str, base_dir: str) -> DisorderDistribution:
    if not isinstance(block, dict) or "family" not in block:
        _fail(path, "expected a mapping with a 'family' key")
    family = block["family"]
    cutoff = block.get("cutoff")
    if cutoff is not None:
        if not (isinstance(cutoff, (list, tuple)) and len(cutoff) == 2):
            _fail(f"{path}.cutoff", "expected [lo, hi]")
        cutoff = (float(cutoff[0]), float(cutoff[1]))
    try:
        if family == "tabulated":
            data = _data_file(block, path, base_dir, "tabulated distribution")
            return DisorderDistribution.tabulated(data[:, 0], data[:, 1], cutoff=cutoff)
        if "width" not in block:
            _fail(f"{path}.width", f"{family} distribution needs a width")
        return DisorderDistribution(family, width=float(block["width"]), cutoff=cutoff)
    except (ValueError, EmptySupport) as exc:
        _fail(path, str(exc))


def _coupling(block, path: str, base_dir: str):
    kind = block.get("type", "linear") if isinstance(block, dict) else None
    if kind == "linear":
        return LinearCoupling(_matrix(block["matrix"], f"{path}.matrix"))
    if kind == "polynomial":
        mats = block.get("matrices")
        if not isinstance(mats, list) or not mats:
            _fail(f"{path}.matrices", "expected a list of coefficient matrices")
        return PolynomialCoupling(tuple(_matrix(m, f"{path}.matrices[{d}]")
                                        for d, m in enumerate(mats)))
    if kind == "tabulated":
        data = _data_file(block, path, base_dir, "tabulated coupling")
        lam = data[:, 0]
        n = int(round(np.sqrt((data.shape[1] - 1) / 2)))
        if 1 + 2 * n * n != data.shape[1]:
            _fail(f"{path}.file", f"need 1 + 2*N^2 columns, got {data.shape[1]}")
        vals = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, n, n)
        vals = 0.5 * (vals + vals.conj().transpose(0, 2, 1))
        return TabulatedCoupling(lam, vals, fit_degree=int(block.get("fit_degree", 8)))
    _fail(f"{path}.type", f"unknown coupling type {kind!r}")


def parse_spec(cfg: dict, base_dir: str) -> EnsembleSpec:
    sysblock = cfg.get("system")
    if not isinstance(sysblock, dict):
        _fail("system", "missing system block")
    h0 = _matrix(sysblock.get("h0"), "system.h0")
    couplings = sysblock.get("couplings")
    dists = sysblock.get("distributions")
    if not isinstance(couplings, list) or not couplings:
        _fail("system.couplings", "expected a non-empty list")
    if not isinstance(dists, list) or len(dists) != len(couplings):
        _fail("system.distributions", "need one distribution per coupling")
    try:
        return EnsembleSpec(
            h0,
            tuple(_coupling(c, f"system.couplings[{i}]", base_dir)
                  for i, c in enumerate(couplings)),
            tuple(_distribution(d, f"system.distributions[{i}]", base_dir)
                  for i, d in enumerate(dists)))
    except (NotHermitian, ValueError) as exc:
        _fail("system", str(exc))


def parse_initial(cfg: dict, spec: EnsembleSpec, base_dir: str):
    block = cfg.get("initial")
    if not isinstance(block, dict):
        _fail("initial", "missing initial block")
    kind = block.get("kind", "localized")
    if kind == "localized":
        amps = block.get("amplitudes")
        if not isinstance(amps, list) or len(amps) != spec.n:
            _fail("initial.amplitudes", f"need {spec.n} amplitudes")
        c = np.array([_as_complex(a, f"initial.amplitudes[{i}]") for i, a in enumerate(amps)])
        return ("localized", c)
    if kind == "tabulated":
        if spec.l != 1:
            _fail("initial", "tabulated initial states support a single disorder variable")
        data = _data_file(block, "initial", base_dir, "tabulated initial state")
        if data.shape[1] != 1 + 2 * spec.n:
            _fail("initial.file", f"need 1 + 2*N columns, got {data.shape[1]}")
        lam = data[:, 0]
        cvals = data[:, 1::2] + 1j * data[:, 2::2]
        cvals /= np.linalg.norm(cvals, axis=1, keepdims=True)

        def c_fn(pts):
            pts = np.atleast_2d(pts)[:, 0]
            out = np.empty((pts.size, spec.n), dtype=complex)
            for j in range(spec.n):
                out[:, j] = np.interp(pts, lam, cvals[:, j].real) \
                    + 1j * np.interp(pts, lam, cvals[:, j].imag)
            return out / np.linalg.norm(out, axis=1, keepdims=True)

        return ("tabulated", c_fn)
    if kind == "spectral":
        if spec.l != 1:
            _fail("initial", "spectral initial states support a single disorder variable")
        amps = block.get("amplitudes")
        if not isinstance(amps, list) or len(amps) != spec.n:
            _fail("initial.amplitudes", f"need {spec.n} amplitudes")
        c = np.array([_as_complex(a, f"initial.amplitudes[{i}]") for i, a in enumerate(amps)])
        dist = _distribution(block.get("distribution"), "initial.distribution", base_dir)
        return ("spectral", (dist, c))
    _fail("initial.kind", f"unknown kind {kind!r}")


def _positive_int(value, path: str):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        _fail(path, f"expected a positive integer, got {value!r}")


def _positive_number(value, path: str):
    try:
        ok = not isinstance(value, bool) and float(value) > 0
    except (TypeError, ValueError):
        ok = False
    if not ok:
        _fail(path, f"expected a positive number, got {value!r}")


def _positive_ints(value, path: str, n_vars: int | None):
    """A positive integer, or a list of one per disorder variable."""
    if not isinstance(value, (list, tuple)):
        _positive_int(value, path)
        return
    if n_vars is not None and len(value) != n_vars:
        _fail(path, f"need {n_vars} entries, one per disorder variable, got {len(value)}")
    for i, v in enumerate(value):
        _positive_int(v, f"{path}[{i}]")


def _resolve_numeric(cfg: dict, n_vars: int | None = None) -> dict:
    """The numeric block with its defaults, checked; ``n_vars`` disorder
    variables, when known, fix the length of a list of depths or
    quadrature orders."""
    num = dict(cfg.get("numeric") or {})
    # retired knobs (Lanczos dimension, assembly quadrature order): old manifests still run
    num.pop("max_krylov_dim", None)
    num.pop("quad_points", None)
    num.setdefault("tol", 1e-12)
    num.setdefault("depths", "auto")
    num.setdefault("seed", 0)
    num.setdefault("samples", 10_000)
    num.setdefault("quad_order", 40)
    num.setdefault("leakage_threshold", 1e-8)
    num.setdefault("depth_cap", 4096)
    if num["depths"] != "auto":
        _positive_ints(num["depths"], "numeric.depths", n_vars)
        if n_vars is not None and not isinstance(num["depths"], (list, tuple)):
            num["depths"] = [num["depths"]] * n_vars
    _positive_ints(num["quad_order"], "numeric.quad_order", n_vars)
    _positive_int(num["samples"], "numeric.samples")
    _positive_int(num["depth_cap"], "numeric.depth_cap")
    _positive_number(num["tol"], "numeric.tol")
    _positive_number(num["leakage_threshold"], "numeric.leakage_threshold")
    return num


def _resolve_time(cfg: dict):
    tb = cfg.get("time")
    if not isinstance(tb, dict) or "t_max" not in tb:
        _fail("time", "missing time block with t_max")
    n_steps = tb.get("n_steps", 200)
    _positive_number(tb["t_max"], "time.t_max")
    _positive_int(n_steps, "time.n_steps")
    if n_steps < 2:
        _fail("time.n_steps", "need n_steps >= 2")
    return float(tb["t_max"]), n_steps


def _resolve_output(cfg: dict) -> str:
    out_block = dict(cfg.get("output") or {})
    if any(f != "csv" for f in out_block.get("formats", ["csv"])):
        _fail("output.formats", "only 'csv' is supported")
    return out_block.get("directory", "out")


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _chain_trajectory(spec, initial, times, num):
    """Lattice route: one propagation, on a lattice grown or pinned, traced as it runs."""
    plan = PropagationPlan(times, tol=float(num["tol"]),
                           leakage_threshold=float(num["leakage_threshold"]))
    kind, payload = initial
    if kind == "spectral":
        # eigenstate ensemble: a localized state on the chain of the energy measure
        dist, payload = payload
        spec, kind = EnsembleSpec(spec.h0, spec.couplings, (dist,)), "localized"

    def psi0_for(basis, tables):
        if kind == "localized":
            return localized_initial(payload, basis)
        return expanded_initial(payload, spec.distributions, tables, basis)

    auto = num["depths"] == "auto"
    cap = num["depth_cap"] if auto else num["depths"]
    depths, report = auto_depth(spec, psi0_for, plan, start=16 if auto else max(cap), cap=cap)
    traj = DensityTrajectory(times, report.rho, info={"method": "chain",
                                                      "depths": list(depths)})
    return traj, report, depths


def _oracle_trajectory(method, spec, initial, times, num):
    kind, c_fn = initial
    if kind == "spectral":
        _fail("initial", f"method {method!r} does not support spectral initial states")
    cfg = OracleConfig(samples=int(num["samples"]), seed=int(num["seed"]),
                       quad_order=num["quad_order"])
    if method == "mc":
        return mc_average(spec, c_fn, times, cfg)
    return quad_average(spec, c_fn, times, cfg)


def _analytic_trajectory(spec, initial, times):
    kind, payload = initial
    if kind != "localized":
        _fail("initial", "the analytic route needs a localized initial state")
    if spec.n != 2 or spec.l != 1:
        _fail("system", "the analytic route covers the single-variable qubit only")
    c = payload
    h0 = spec.h0
    coup = spec.couplings[0]
    if not isinstance(coup, LinearCoupling):
        _fail("system.couplings", "the analytic route needs a linear coupling")
    want = np.zeros((2, 2)); want[1, 1] = 1.0
    if np.max(np.abs(h0 - np.diag(np.diag(h0)))) > 1e-12 \
            or np.max(np.abs(coup.matrix - want)) > 1e-12:
        _fail("system", "the analytic route needs h0 = diag(E0, E1) and coupling diag(0, 1)")
    return analytic_qubit(c[0], c[1], h0[0, 0].real, h0[1, 1].real,
                          spec.distributions[0], times)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def trajectory_csv(traj: DensityTrajectory) -> str:
    """CSV text: t plus re/im of the upper-triangle entries (17 sig digits);
    MC trajectories append one sem column per entry."""
    n = traj.n
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    cols = ["t"]
    for a, b in pairs:
        cols += [f"re_rho_{a}_{b}", f"im_rho_{a}_{b}"]
    if traj.errors is not None:
        cols += [f"sem_rho_{a}_{b}" for a, b in pairs]
    lines = [",".join(cols)]
    for i, t in enumerate(traj.times):
        row = [f"{t:.17g}"]
        for a, b in pairs:
            v = traj.rho[i, a, b]
            row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
        if traj.errors is not None:
            row += [f"{traj.errors[i, a, b]:.17g}" for a, b in pairs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _leakage_csv(report) -> str:
    lines = ["t,leakage"]
    lines += [f"{t:.17g},{v:.17g}" for t, v in zip(report.times, report.leakage)]
    return "\n".join(lines) + "\n"


def _compare_csv(rows) -> str:
    lines = ["pair,max_abs_error,tolerance,pass"]
    for r in rows:
        lines.append(f"{r['pair']},{r['max_abs_error']:.17g},{r['tolerance']:.17g},"
                     f"{int(r['pass'])}")
    return "\n".join(lines) + "\n"


def _compare_row(pair, err, tol, ok, **extra) -> dict:
    return {"pair": pair, "max_abs_error": err, "tolerance": tol, "pass": bool(ok), **extra}


def _propagator_record(report) -> dict:
    return {
        "spectral_centre": report.centre, "spectral_half_width": report.half_width,
        "windows": report.windows, "matvecs": report.matvecs,
        "max_norm_drift": report.norm_drift, "op_dim": report.op_dim,
        "op_nnz": report.op_nnz, "growth": [[int(d) for d in g] for g in report.growth],
        "box": [int(b) for b in report.box],
        "box_growths": report.box_growths, "redos": report.redos,
        "active_fraction": report.active_fraction}


# ---------------------------------------------------------------------------
# run / validate
# ---------------------------------------------------------------------------

class RunResult:
    """Exit status plus the list of files a run produced."""

    def __init__(self, exit_code: int, outputs: list, manifest: dict):
        self.exit_code = exit_code
        self.outputs = outputs
        self.manifest = manifest


def _load(config) -> tuple[dict, str]:
    if isinstance(config, dict):
        doc = config
        base = os.getcwd()
    else:
        with open(config) as fh:
            doc = yaml.safe_load(fh)
        base = os.path.dirname(os.path.abspath(config))
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    if "config" in doc and isinstance(doc["config"], dict) and "system" in doc["config"]:
        doc = doc["config"]          # manifest re-fed as config
    return doc, base


def run(config, out_dir=None, method=None, seed=None) -> RunResult:
    """Execute one configured run and write its outputs.

    `config` is a YAML path or an equivalent dict (a run manifest also
    works).  Returns a RunResult; never calls sys.exit.  A numeric failure
    in a stage (the errors ``main`` exits 3 on) still writes the manifest,
    with ``result.failure`` naming the stage, the error class and its
    message, and is then raised again.
    """
    t_start = time.perf_counter()
    cfg, base_dir = _load(config)
    cfg = dict(cfg)
    if method is not None:
        cfg["method"] = method
    if seed is not None:
        cfg.setdefault("numeric", {})
        cfg["numeric"] = dict(cfg["numeric"] or {}, seed=int(seed))
    if out_dir is not None:
        cfg["output"] = dict(cfg.get("output") or {}, directory=str(out_dir))

    spec = parse_spec(cfg, base_dir)
    initial = parse_initial(cfg, spec, base_dir)
    t_max, n_steps = _resolve_time(cfg)
    times = np.linspace(0.0, t_max, n_steps)
    num = _resolve_numeric(cfg, spec.l)
    meth = cfg.get("method", "chain")
    if meth not in _METHODS:
        _fail("method", f"unknown method {meth!r}; expected one of {_METHODS}")
    out_dir = _resolve_output(cfg)

    outputs = []
    result_meta: dict = {"package_version": __version__, "method": meth}
    residuals = {i: c.fit_residual for i, c in enumerate(spec.couplings)
                 if isinstance(c, TabulatedCoupling)}
    if residuals:
        result_meta["tabulated_fit_residual"] = residuals
    compare_rows = []
    exit_code = 0

    def emit(name, text):
        path = os.path.join(out_dir, name)
        _atomic_write(path, text)
        outputs.append(name)

    # resolved config: everything needed to reproduce this run
    resolved = {
        "unit": cfg.get("unit", "energy"),
        "system": {
            "h0": _matrix_to_yaml(spec.h0),
            "couplings": [_file_from(c, base_dir, out_dir) for c in cfg["system"]["couplings"]],
            "distributions": [_file_from(d, base_dir, out_dir)
                              for d in cfg["system"]["distributions"]],
        },
        "initial": _file_from(cfg["initial"], base_dir, out_dir),
        "time": {"t_max": t_max, "n_steps": n_steps},
        "method": meth,
        # auto stays auto: a rerun grows the lattice the same way, bitwise
        "numeric": num,
        "output": {"directory": out_dir, "formats": ["csv"]},
    }
    if "compare" in cfg:
        resolved["compare"] = cfg["compare"]

    def write_manifest() -> dict:
        result_meta["oracles"] = {name: dict(traj.info) for name, traj in trajs.items()
                                  if name != "chain"}
        result_meta["wall_clock_s"] = round(time.perf_counter() - t_start, 3)
        result_meta["outputs"] = outputs + ["manifest.yaml"]
        manifest = {"config": resolved, "result": result_meta}
        _atomic_write(os.path.join(out_dir, "manifest.yaml"),
                      yaml.safe_dump(manifest, sort_keys=False))
        outputs.append("manifest.yaml")
        return manifest

    trajs: dict[str, DensityTrajectory] = {}
    stage = None
    try:
        if meth in ("chain", "compare"):
            stage = "chain"
            traj, report, depths = _chain_trajectory(spec, initial, times, num)
            trajs["chain"] = traj
            emit("trajectory_chain.csv", trajectory_csv(traj))
            emit("leakage_chain.csv", _leakage_csv(report))
            result_meta["accepted_depths"] = [int(d) for d in depths]
            result_meta["max_leakage"] = report.max_leakage
            result_meta["propagator"] = _propagator_record(report)
        if meth in ("mc", "quad"):
            stage = meth
            traj = _oracle_trajectory(meth, spec, initial, times, num)
            trajs[meth] = traj
            emit(f"trajectory_{meth}.csv", trajectory_csv(traj))
        if meth == "analytic":
            stage = "analytic"
            traj = _analytic_trajectory(spec, initial, times)
            trajs["analytic"] = traj
            emit("trajectory_analytic.csv", trajectory_csv(traj))

        if meth == "compare":
            cmp_block = dict(cfg.get("compare") or {})
            quad_tol = float(cmp_block.get("quad_tol", 1e-8))
            analytic_tol = float(cmp_block.get("analytic_tol", 1e-9))
            mc_sigmas = float(cmp_block.get("mc_sigmas", 4.0))
            # absolute floor under the MC band: zero-variance entries would
            # otherwise flag the propagator's own float-level error
            mc_floor = float(cmp_block.get("mc_floor", 1e-10))
            chain = trajs["chain"]

            stage = "quad"
            qt = _oracle_trajectory("quad", spec, initial, times, num)
            trajs["quad"] = qt
            emit("trajectory_quad.csv", trajectory_csv(qt))
            err = float(np.max(np.abs(chain.rho - qt.rho)))
            compare_rows.append(_compare_row("chain_vs_quad", err, quad_tol, err <= quad_tol))

            stage = "mc"
            mt = _oracle_trajectory("mc", spec, initial, times, num)
            trajs["mc"] = mt
            emit("trajectory_mc.csv", trajectory_csv(mt))
            dev = np.abs(chain.rho - mt.rho)
            worst = float(np.max(dev - (mc_sigmas * mt.errors + mc_floor)))
            # the band is applied to every entry at every time, so a chance
            # excursion beyond it is readable from these two numbers
            noisy = mt.errors > 0
            excess = (float(np.max((dev[noisy] - mc_floor) / mt.errors[noisy]))
                      if noisy.any() else None)
            compare_rows.append(_compare_row(
                f"chain_vs_mc_{mc_sigmas:g}sem", max(worst, 0.0), 0.0, worst <= 0.0,
                entries_tested=int(dev.size), worst_excess_sem=excess))

            stage = "analytic"
            try:
                at = _analytic_trajectory(spec, initial, times)
            except (ConfigError, UnsupportedFamily):
                at = None      # no closed form for this setup: skip that pair
            if at is not None:
                trajs["analytic"] = at
                emit("trajectory_analytic.csv", trajectory_csv(at))
                err = float(np.max(np.abs(chain.rho - at.rho)))
                compare_rows.append(
                    _compare_row("chain_vs_analytic", err, analytic_tol, err <= analytic_tol))

            emit("compare_errors.csv", _compare_csv(compare_rows))
            result_meta["compare"] = compare_rows
            if not all(r["pass"] for r in compare_rows):
                exit_code = 4
    except _NUMERIC_FAILURES as exc:
        # a failed run still leaves a record of the stage that failed and why
        result_meta["failure"] = {"stage": stage, "error": type(exc).__name__,
                                  "message": str(exc)}
        if isinstance(exc, LeakageExceeded) and exc.report is not None:
            result_meta["propagator"] = _propagator_record(exc.report)
        write_manifest()
        raise
    return RunResult(exit_code, outputs, write_manifest())


def validate_config(config, method=None) -> list:
    """Dry-run schema and physics checks, with ``method`` overriding the
    configured one as in :func:`run`; returns a list of failure strings."""
    failures = []
    try:
        cfg, base_dir = _load(config)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        return [str(exc)]
    spec = None
    try:
        spec = parse_spec(cfg, base_dir)
    except ConfigError as exc:
        failures.append(str(exc))
    if spec is not None:
        try:
            parse_initial(cfg, spec, base_dir)
        except ConfigError as exc:
            failures.append(str(exc))
    for check in (lambda: _resolve_time(cfg),
                  lambda: _resolve_numeric(cfg, spec.l if spec is not None else None),
                  lambda: _resolve_output(cfg)):
        try:
            check()
        except ConfigError as exc:
            failures.append(str(exc))
    meth = method or cfg.get("method", "chain")
    if meth not in _METHODS:
        failures.append(f"method: unknown method {meth!r}")
    if spec is not None and meth in ("chain", "quad", "compare"):
        for i, d in enumerate(spec.distributions):
            if not d.moments_defined:
                failures.append(
                    f"system.distributions[{i}]: moments undefined; set cutoff")
            elif not d.bounded and d.family == "cauchy":
                failures.append(
                    f"system.distributions[{i}]: unbounded support; set cutoff")
    if spec is not None and meth == "analytic":
        try:
            _analytic_trajectory(spec, parse_initial(cfg, spec, base_dir),
                                 np.array([0.0, 1.0]))
        except ConfigError as exc:
            failures.append(str(exc))
        except EnslatError as exc:
            failures.append(f"system: {exc}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enslat",
        description="Disordered-ensemble dynamics via the equivalent semi-infinite lattice.",
        epilog="Exit codes: 0 ok; 2 config error; 3 numeric failure "
               "(leakage/convergence); 4 comparison tolerance exceeded.")
    parser.add_argument("--config", required=True, help="YAML run configuration (or a manifest)")
    parser.add_argument("--validate", action="store_true",
                        help="check the config and report problems without running")
    parser.add_argument("--method", choices=_METHODS, help="override the configured method")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the random seed")
    args = parser.parse_args(argv)

    if args.validate:
        failures = validate_config(args.config, method=args.method)
        if failures:
            for f in failures:
                print(f"FAIL {f}")
            return 2
        print("OK")
        return 0

    try:
        result = run(args.config, out_dir=args.out, method=args.method, seed=args.seed)
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, EnslatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name in result.outputs:
        print(name)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
