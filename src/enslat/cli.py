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
import contextlib
import os
import sys
import tempfile
import time
from collections import namedtuple

import numpy as np
import yaml

from . import __version__
from .errors import (
    ConfigError,
    DimensionMismatch,
    EnslatError,
    LeakageExceeded,
    NormDefectExceeded,
    NotHermitian,
    NumericalBreakdown,
    UnsupportedFamily,
)
from .dynamics import PropagationPlan, auto_depth
from .dynamics import propagate  # noqa: F401  unused; perfbench/tracing.py rebinds it here
from .lattice import (
    EnsembleSpec,
    PolynomialCoupling,
    build_general,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
    build_linear,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
)
from .measures import (
    DisorderDistribution,
    characteristic_function,
    recurrence_table,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
)
from .oracle import MAX_DENSE_N, OracleConfig, _workers, analytic_qubit, mc_average, quad_average
from .reduction import (
    DensityTrajectory,
    trajectory_from_states,  # noqa: F401  unused; perfbench/tracing.py rebinds it here
)
from .states import NORM_TOL, expanded_initial, localized_initial

__all__ = ["run", "validate_config", "main", "RunResult"]

_METHODS = ("chain", "mc", "quad", "analytic", "compare")

# the compare gates' defaults; mc_floor is an absolute floor under the MC band:
# zero-variance entries would otherwise flag the propagator's own float-level error
_COMPARE_GATES = {"quad_tol": 1e-8, "analytic_tol": 1e-9, "mc_sigmas": 4.0, "mc_floor": 1e-10}

_NUMERIC_DEFAULTS = {"tol": 1e-12, "depths": "auto", "seed": 0, "samples": 10_000,
                     "quad_order": 40, "leakage_threshold": 1e-8, "depth_cap": 4096}

# numeric failures: the run exits 3 on these, after recording them in its manifest
_NUMERIC_FAILURES = (LeakageExceeded, NumericalBreakdown, NormDefectExceeded)

# a dimer rerun is bitwise only under the same BLAS thread setting
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# libyaml's parser and emitter where PyYAML has them: the same documents, read
# and written several times faster than by the pure-Python classes
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# the keys each mapping of a config may hold; any other is refused
_CONFIG_KEYS = ("unit", "system", "initial", "time", "method", "numeric", "compare", "output")
_COUPLING_KEYS = {"linear": ("type", "matrix"), "polynomial": ("type", "matrices"),
                  "tabulated": ("type", "file", "fit_degree")}
_INITIAL_KEYS = {"localized": ("kind", "amplitudes"),
                 "spectral": ("kind", "amplitudes", "distribution"),
                 "tabulated": ("kind", "file")}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _as_complex(entry, path: str) -> complex:
    if isinstance(entry, (int, float)):
        entry = (entry, 0)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        try:
            value = complex(float(entry[0]), float(entry[1]))
        except (TypeError, ValueError):
            value = None
        if value is not None and np.isfinite(value):
            return value
    _fail(path, f"expected a finite number or [re, im] pair, got {entry!r}")


def _matrix(block, path: str) -> np.ndarray:
    if not isinstance(block, list) or not block:
        _fail(path, "expected a matrix as a list of rows")
    if any(not isinstance(row, list) or len(row) != len(block) for row in block):
        _fail(path, f"matrix must be square: need {len(block)} rows of {len(block)} entries each")
    return np.array([[_as_complex(e, f"{path}[{i}][{j}]")
                      for j, e in enumerate(row)] for i, row in enumerate(block)])


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
    try:
        data = np.loadtxt(fpath, ndmin=2)
    except ValueError as exc:
        _fail(f"{path}.file", f"unreadable table {fpath}: {exc}")
    if not np.all(np.isfinite(data)):
        _fail(f"{path}.file", f"non-finite entries in {fpath}")
    return data


def _file_from(block, base_dir: str, out_dir: str):
    """The block with each ``file`` key relative to the manifest's directory.

    A config's ``file`` is relative to the config; the manifest written to
    out_dir is read back with out_dir as its base, so it names the same file
    from there.
    """
    if isinstance(block, dict) and "distribution" in block:     # a spectral state
        block = {**block, "distribution": _file_from(block["distribution"], base_dir, out_dir)}
    if not isinstance(block, dict) or "file" not in block:
        return block
    fpath = os.path.join(base_dir, block["file"])
    return {**block, "file": os.path.relpath(fpath, os.path.abspath(out_dir))}


def _distribution(block, path: str, base_dir: str) -> DisorderDistribution:
    if not isinstance(block, dict) or "family" not in block:
        _fail(path, "expected a mapping with a 'family' key")
    family, width, cutoff = block["family"], block.get("width"), block.get("cutoff")
    _known(block, path, ("family", "file" if family == "tabulated" else "width", "cutoff"))
    if cutoff is not None and not (isinstance(cutoff, (list, tuple)) and len(cutoff) == 2
                                   and all(isinstance(v, (int, float)) and np.isfinite(v)
                                           for v in cutoff)):
        _fail(f"{path}.cutoff", f"expected [lo, hi], two finite numbers, got {cutoff!r}")
    grid = None
    if family == "tabulated":
        data = _data_file(block, path, base_dir, "tabulated distribution")
        grid = (data[:, 0], data[:, 1])
    elif width is None:
        _fail(f"{path}.width", f"{family} distribution needs a width")
    try:        # the constructor applies the cutoff, and refuses an empty window
        return DisorderDistribution(family, width=None if grid else float(width), grid=grid,
                                    cutoff=cutoff)
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


def _coupling(block, path: str, base_dir: str) -> PolynomialCoupling:
    kind = block.get("type", "linear") if isinstance(block, dict) else None
    if kind in tuple(_COUPLING_KEYS):         # a tuple: a malformed kind may be unhashable
        _known(block, path, _COUPLING_KEYS[kind])
    if kind == "linear":
        return PolynomialCoupling.linear(_matrix(block.get("matrix"), f"{path}.matrix"))
    if kind == "polynomial":
        mats = block.get("matrices")
        if not isinstance(mats, list) or not mats:
            _fail(f"{path}.matrices", "expected a list of coefficient matrices")
        return PolynomialCoupling(tuple(_matrix(m, f"{path}.matrices[{d}]")
                                        for d, m in enumerate(mats)))
    if kind == "tabulated":
        degree = block.get("fit_degree", 8)
        _positive_int(degree, f"{path}.fit_degree", allow_zero=True)
        data = _data_file(block, path, base_dir, "tabulated coupling")
        lam = data[:, 0]
        n = int(round(np.sqrt((data.shape[1] - 1) / 2)))
        if 1 + 2 * n * n != data.shape[1]:
            _fail(f"{path}.file", f"need 1 + 2*N^2 columns, got {data.shape[1]}")
        vals = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, n, n)
        try:        # each sample must be Hermitian, as h0 and every coefficient must
            return PolynomialCoupling.fit(lam, vals, degree)
        except (NotHermitian, ValueError) as exc:
            _fail(f"{path}.file", str(exc))
    _fail(f"{path}.type", f"unknown coupling type {kind!r}")


def _known(block: dict, path: str, keys) -> dict:
    """The mapping at ``path`` (the config's root when empty), with any key
    but ``keys`` refused: a misspelt one would be ignored."""
    unknown = [name for name in block if name not in keys]
    if unknown:
        _fail(f"{path}.{unknown[0]}" if path else str(unknown[0]),
              f"unknown key; expected one of {tuple(keys)}")
    return block


def _block(cfg: dict, key: str, required: bool = False, keys=None) -> dict:
    """The config's ``key`` section, a mapping; an optional one that is absent is
    empty.  With ``keys``, any other key is refused."""
    block = cfg.get(key)
    if block is None and not required:
        return {}
    if not isinstance(block, dict):
        _fail(key, f"expected a mapping, got {block!r}")
    return block if keys is None else _known(block, key, keys)


def parse_spec(cfg: dict, base_dir: str) -> EnsembleSpec:
    sysblock = _block(cfg, "system", required=True, keys=("h0", "couplings", "distributions"))
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
    except (NotHermitian, DimensionMismatch, ValueError) as exc:
        _fail("system", str(exc))


def parse_initial(cfg: dict, spec: EnsembleSpec, base_dir: str):
    block = _block(cfg, "initial", required=True)
    kind = block.get("kind", "localized")
    if kind in tuple(_INITIAL_KEYS):
        _known(block, "initial", _INITIAL_KEYS[kind])
    if kind == "spectral" and spec.l != 1:
        _fail("initial", "spectral initial states support a single disorder variable")
    if kind in ("localized", "spectral"):
        amps = block.get("amplitudes")
        if not isinstance(amps, list) or len(amps) != spec.n:
            _fail("initial.amplitudes", f"need {spec.n} amplitudes")
        c = np.array([_as_complex(a, f"initial.amplitudes[{i}]") for i, a in enumerate(amps)])
        if kind == "localized":
            return ("localized", c)
        dist = _distribution(block.get("distribution"), "initial.distribution", base_dir)
        return ("spectral", (dist, c))
    if kind == "tabulated":
        if spec.l != 1:
            _fail("initial", "tabulated initial states support a single disorder variable")
        data = _data_file(block, "initial", base_dir, "tabulated initial state")
        if data.shape[1] != 1 + 2 * spec.n:
            _fail("initial.file", f"need 1 + 2*N columns, got {data.shape[1]}")
        lam = data[:, 0]
        cvals = data[:, 1::2] + 1j * data[:, 2::2]
        norms = np.linalg.norm(cvals, axis=1, keepdims=True)
        if np.any(norms == 0):
            _fail("initial.file", f"row {int(np.argmin(norms))} has all amplitudes zero")
        cvals /= norms
        # the interpolant of two unit rows passes through zero only where they are antiparallel
        flat = np.flatnonzero(np.linalg.norm(cvals[1:] + cvals[:-1], axis=1) == 0)
        if flat.size:
            _fail("initial.file", f"rows {flat[0]} and {flat[0] + 1} are antiparallel: "
                                  "the state interpolated between them passes through zero")

        def c_fn(pts):
            pts = np.atleast_2d(pts)[:, 0]
            out = np.empty((pts.size, spec.n), dtype=complex)
            for j in range(spec.n):
                out[:, j] = np.interp(pts, lam, cvals[:, j].real) \
                    + 1j * np.interp(pts, lam, cvals[:, j].imag)
            return out / np.linalg.norm(out, axis=1, keepdims=True)

        return ("tabulated", c_fn)
    _fail("initial.kind", f"unknown kind {kind!r}")


def _positive_int(value, path: str, allow_zero: bool = False):
    if isinstance(value, bool) or not isinstance(value, int) or value < (0 if allow_zero else 1):
        _fail(path, f"expected a {'non-negative' if allow_zero else 'positive'} integer, "
                    f"got {value!r}")


def _positive_number(value, path: str, allow_zero: bool = False):
    try:
        ok = not isinstance(value, bool) and np.isfinite(float(value)) \
            and (float(value) > 0 or allow_zero and float(value) == 0)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        _fail(path, f"expected a finite {'non-negative' if allow_zero else 'positive'} "
                    f"number, got {value!r}")


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
    # retired knobs (Lanczos dimension, assembly quadrature order): old manifests still run
    retired = ("max_krylov_dim", "quad_points")
    num = {key: value for key, value in
           _block(cfg, "numeric", keys=(*_NUMERIC_DEFAULTS, *retired)).items()
           if key not in retired}
    for key, value in _NUMERIC_DEFAULTS.items():
        num.setdefault(key, value)
    if num["depths"] != "auto":
        _positive_ints(num["depths"], "numeric.depths", n_vars)
        if n_vars is not None and not isinstance(num["depths"], (list, tuple)):
            num["depths"] = [num["depths"]] * n_vars
    _positive_ints(num["quad_order"], "numeric.quad_order", n_vars)
    _positive_int(num["samples"], "numeric.samples")
    if isinstance(num["seed"], bool) or not isinstance(num["seed"], int) \
            or not 0 <= num["seed"] < 2 ** 64:
        _fail("numeric.seed", f"expected an integer in [0, 2**64), got {num['seed']!r}")
    _positive_int(num["depth_cap"], "numeric.depth_cap")
    _positive_number(num["tol"], "numeric.tol")
    threshold = num["leakage_threshold"]
    try:                # the plan's own rule decides the range: >= 0, inf for no check
        if isinstance(threshold, bool):
            raise TypeError
        PropagationPlan(np.zeros(1), leakage_threshold=float(threshold))
    except (TypeError, ValueError):
        _fail("numeric.leakage_threshold",
              f"expected a number >= 0, or .inf for no check; got {threshold!r}")
    return num


def _resolve_time(cfg: dict):
    tb = _block(cfg, "time", required=True, keys=("t_max", "n_steps"))
    n_steps = tb.get("n_steps", 200)
    _positive_number(tb.get("t_max"), "time.t_max")
    _positive_int(n_steps, "time.n_steps")
    if n_steps < 2:
        _fail("time.n_steps", "need n_steps >= 2")
    return float(tb["t_max"]), n_steps


def _resolve_method(cfg: dict) -> str:
    meth = cfg.get("method", "chain")
    if meth not in _METHODS:
        _fail("method", f"unknown method {meth!r}; expected one of {_METHODS}")
    return meth


def _resolve_output(cfg: dict) -> str:
    out_block = _block(cfg, "output", keys=("directory", "formats"))
    formats, directory = out_block.get("formats", ["csv"]), out_block.get("directory", "out")
    if not isinstance(formats, list) or any(f != "csv" for f in formats):
        _fail("output.formats", f"expected a list of formats, only 'csv' is supported; "
                                f"got {formats!r}")
    if not isinstance(directory, str) or not directory:
        _fail("output.directory", f"expected a non-empty path, got {directory!r}")
    return directory


def _resolve_compare(cfg: dict) -> dict:
    """The compare gates with their defaults, each a non-negative number."""
    gates = {**_COMPARE_GATES, **_block(cfg, "compare", keys=_COMPARE_GATES)}
    for key in _COMPARE_GATES:
        _positive_number(gates[key], f"compare.{key}", allow_zero=True)
    return {key: float(gates[key]) for key in _COMPARE_GATES}


def _route_failures(route: str, spec: EnsembleSpec, kind: str, paths: list) -> list:
    """What the ensemble, or an initial state of this kind, lacks for one route;
    ``paths`` names each distribution's config key."""
    if route == "analytic":
        if kind != "localized":
            return ["initial: the analytic route needs a localized initial state"]
        # read from the coefficients: lambda * diag(0, 1), every other power zero
        mats = spec.couplings[0].matrices if spec.n == 2 and spec.l == 1 else ()
        h0, unit = spec.h0, np.diag([0.0, 1.0])
        defects = [h0 - np.diag(np.diag(h0))] + [m - unit * (p == 1) for p, m in enumerate(mats)]
        if len(mats) < 2 or max(np.max(np.abs(d)) for d in defects) > 1e-12:
            return ["system: the analytic route needs a qubit with h0 = diag(E0, E1) "
                    "and one coupling lambda * diag(0, 1)"]
        try:
            characteristic_function(spec.distributions[0], 0.0)
        except UnsupportedFamily as exc:
            return [f"{paths[0]}: {exc}"]
        return []
    failures = []
    if route in ("mc", "quad") and spec.n > MAX_DENSE_N:
        failures.append(f"system.h0: the dense oracles (mc, quad) need N <= {MAX_DENSE_N} "
                        f"levels, got N = {spec.n}")
    for path, dist in zip(paths, spec.distributions):
        if route in ("chain", "quad") and not dist.moments_defined:
            failures.append(f"{path}: moments undefined; set cutoff")
        elif route == "chain" and kind == "tabulated" and not dist.bounded:
            failures.append(f"{path}: unbounded support; set cutoff to expand "
                            "a tabulated initial state over it")
    return failures


# a checked config: the ensemble and initial state every route sees, the
# (t_max, n_steps) grid, the numeric block, the compare gates, the routes in order
_Preflight = namedtuple("_Preflight", "spec initial time num method out_dir gates routes")


def _preflight(cfg: dict, base_dir: str) -> tuple[_Preflight | None, list]:
    """Every check a run makes before its first route: the resolved run and no
    failures, or None and the failure of each section, in order.  Reads the
    config only: no table, no expanded state, no oracle.  A spectral state
    becomes the localized state on the chain of its energy measure, which
    replaces the disorder measure for every route."""
    failures = []

    def section(resolve, *args):
        try:
            return resolve(*args)
        except ConfigError as exc:
            failures.append(str(exc))

    section(_known, cfg, "", _CONFIG_KEYS)
    spec = section(parse_spec, cfg, base_dir)
    initial = section(parse_initial, cfg, spec, base_dir) if spec is not None else None
    grid = section(_resolve_time, cfg)
    num = section(_resolve_numeric, cfg, spec.l if spec is not None else None)
    meth = section(_resolve_method, cfg)
    out_dir = section(_resolve_output, cfg)
    gates = section(_resolve_compare, cfg)
    routes = None
    if initial is not None:
        kind, payload = initial
        paths = [f"system.distributions[{i}]" for i in range(spec.l)]
        if kind == "spectral":
            (dist, payload), kind, paths = payload, "localized", ["initial.distribution"]
            spec = EnsembleSpec(spec.h0, spec.couplings, (dist,))
        initial = (kind, payload)
        if kind == "localized" and abs(np.linalg.norm(payload) - 1.0) > NORM_TOL:
            failures.append(f"initial.amplitudes: need unit norm, got "
                            f"||c|| = {float(np.linalg.norm(payload))}")
        if meth is not None:
            # compare: the chain, both averages, and the closed form where one exists
            routes = ["chain", "quad", "mc", "analytic"] if meth == "compare" else [meth]
            if meth == "compare" and _route_failures("analytic", spec, kind, paths):
                routes.pop()
            missing = [f for route in routes for f in _route_failures(route, spec, kind, paths)]
            failures += list(dict.fromkeys(missing))    # chain and quad can miss the same
    if failures:
        return None, failures
    return _Preflight(spec, initial, grid, num, meth, out_dir, gates, routes), []


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _trajectory(route, pre: _Preflight, times):
    """One route's trajectory, and the chain's report (None for an oracle): one
    propagation on a lattice grown or pinned, or an oracle."""
    spec, num, (kind, c) = pre.spec, pre.num, pre.initial
    if route == "chain":
        plan = PropagationPlan(times, tol=float(num["tol"]),
                               leakage_threshold=float(num["leakage_threshold"]))

        def psi0_for(basis, tables):
            if kind == "localized":
                return localized_initial(c, basis)
            return expanded_initial(c, spec.distributions, tables, basis)

        auto = num["depths"] == "auto"
        cap = num["depth_cap"] if auto else num["depths"]
        depths, report = auto_depth(spec, psi0_for, plan, start=16 if auto else max(cap), cap=cap)
        info = {"method": "chain", "depths": list(depths)}
        return DensityTrajectory(times, report.rho, info=info), report
    if route == "analytic":
        h0 = spec.h0
        return analytic_qubit(c[0], c[1], h0[0, 0].real, h0[1, 1].real,
                              spec.distributions[0], times), None
    cfg = OracleConfig(samples=int(num["samples"]), seed=int(num["seed"]),
                       quad_order=num["quad_order"])
    average = mc_average if route == "mc" else quad_average
    return average(spec, c, times, cfg), None


def _compare_rows(trajs: dict, gates: dict) -> list:
    """Each oracle's trajectory against the chain's, in route order."""
    rows = []
    for route, traj in trajs.items():
        dev = np.abs(trajs["chain"].rho - traj.rho)
        if route in ("quad", "analytic"):
            err, tol = float(np.max(dev)), gates[f"{route}_tol"]
            rows.append({"pair": f"chain_vs_{route}", "max_abs_error": err, "tolerance": tol,
                         "pass": err <= tol})
        elif route == "mc":
            sigmas, floor, sem = gates["mc_sigmas"], gates["mc_floor"], traj.errors
            worst = float(np.max(dev - (sigmas * sem + floor)))
            # the band is applied to every entry at every time, so a chance
            # excursion beyond it is readable from these two numbers
            noisy = sem > 0
            excess = float(np.max((dev[noisy] - floor) / sem[noisy])) if noisy.any() else None
            rows.append({"pair": f"chain_vs_mc_{sigmas:g}sem", "max_abs_error": max(worst, 0.0),
                         "tolerance": 0.0, "pass": worst <= 0.0,
                         "entries_tested": int(dev.size), "worst_excess_sem": excess})
    return rows


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


def _propagator_record(report) -> dict:
    return {
        "spectral_centre": report.centre, "spectral_half_width": report.half_width,
        "windows": report.windows, "matvecs": report.matvecs,
        "max_norm_drift": report.norm_drift, "op_dim": report.op_dim,
        "op_nnz": report.op_nnz, "growth": [[int(d) for d in g] for g in report.growth],
        "box": [int(b) for b in report.box],
        "box_growths": report.box_growths, "redos": report.redos,
        "active_fraction": report.active_fraction,
        "initial_norm_defect": report.initial_norm_defect}


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
            try:
                doc = yaml.load(fh, Loader=_YAML_LOADER)
            except yaml.YAMLError as exc:
                raise ConfigError(f"config: not YAML: {exc}") from None
        base = os.path.dirname(os.path.abspath(config))
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    if "config" in doc and isinstance(doc["config"], dict) and "system" in doc["config"]:
        doc = doc["config"]          # manifest re-fed as config
    return doc, base


def _override(cfg: dict, method=None, seed=None, out_dir=None) -> dict:
    """The config with the command line's overrides applied."""
    def merged(block, **items):     # a block that is not a mapping is left for the pre-flight
        return items if block is None else {**block, **items} if isinstance(block, dict) else block

    cfg = dict(cfg)
    if method is not None:
        cfg["method"] = method
    if seed is not None:
        cfg["numeric"] = merged(cfg.get("numeric"), seed=int(seed))
    if out_dir is not None:
        cfg["output"] = merged(cfg.get("output"), directory=str(out_dir))
    return cfg


def run(config, out_dir=None, method=None, seed=None) -> RunResult:
    """Execute one configured run and write its outputs.

    `config` is a YAML path or an equivalent dict (a run manifest also
    works).  Returns a RunResult; never calls sys.exit.  The checks of
    :func:`validate_config` come first: the first failure is raised as a
    ConfigError before any file is written.  A numeric failure in a route
    (the errors ``main`` exits 3 on) still writes the manifest, with
    ``result.failure`` naming the route, the error class and its message,
    and is then raised again.
    """
    t_start = time.perf_counter()
    cfg, base_dir = _load(config)
    cfg = _override(cfg, method, seed, out_dir)
    pre, failures = _preflight(cfg, base_dir)
    if failures:
        raise ConfigError(failures[0])
    spec, out_dir = pre.spec, pre.out_dir
    t_max, n_steps = pre.time
    times = np.linspace(0.0, t_max, n_steps)

    outputs = []
    # the thread environment as the run saw it, written before any route: each
    # variable is what was asked of BLAS (None when unset), not the library's count
    threads = {**{var: os.environ.get(var) for var in _THREAD_VARS}, "cores": _workers()}
    result_meta: dict = {"package_version": __version__, "method": pre.method,
                         "threads": threads}
    residuals = {i: c.fit_residual for i, c in enumerate(spec.couplings)
                 if c.fit_residual is not None}
    if residuals:
        result_meta["tabulated_fit_residual"] = residuals

    def emit(name, text):
        _atomic_write(os.path.join(out_dir, name), text)
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
        "method": pre.method,
        # auto stays auto: a rerun grows the lattice the same way, bitwise
        "numeric": pre.num,
        "output": {"directory": out_dir, "formats": ["csv"]},
    }
    if "compare" in cfg:
        resolved["compare"] = cfg["compare"]

    stages: dict[str, float] = {}       # wall seconds of each route, and of the output files

    @contextlib.contextmanager
    def timed(name):
        t0 = time.perf_counter()
        try:
            yield
        finally:                        # a stage that raises still records its time
            stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0

    def write_manifest() -> dict:
        result_meta["oracles"] = {name: dict(traj.info) for name, traj in trajs.items()
                                  if name != "chain"}
        result_meta["stages"] = {name: round(s, 3) for name, s in stages.items()}
        result_meta["wall_clock_s"] = round(time.perf_counter() - t_start, 3)
        result_meta["outputs"] = outputs + ["manifest.yaml"]
        manifest = {"config": resolved, "result": result_meta}
        _atomic_write(os.path.join(out_dir, "manifest.yaml"),
                      yaml.dump(manifest, Dumper=_YAML_DUMPER, sort_keys=False))
        outputs.append("manifest.yaml")
        return manifest

    trajs: dict[str, DensityTrajectory] = {}
    stage = None
    try:
        for stage in pre.routes:
            with timed(stage):
                trajs[stage], report = _trajectory(stage, pre, times)
            with timed("output"):
                emit(f"trajectory_{stage}.csv", trajectory_csv(trajs[stage]))
                if report is not None:
                    emit("leakage_chain.csv", _leakage_csv(report))
            if report is not None:
                result_meta["accepted_depths"] = [int(d) for d in report.growth[-1]]
                result_meta["max_leakage"] = report.max_leakage
                result_meta["propagator"] = _propagator_record(report)
        if pre.method == "compare":
            compare_rows = _compare_rows(trajs, pre.gates)
            with timed("output"):
                emit("compare_errors.csv", _compare_csv(compare_rows))
            result_meta["compare"] = compare_rows
    except _NUMERIC_FAILURES as exc:
        # a failed run still leaves a record of the route that failed and why
        result_meta["failure"] = {"stage": stage, "error": type(exc).__name__,
                                  "message": str(exc)}
        if isinstance(exc, LeakageExceeded) and exc.report is not None:
            result_meta["propagator"] = _propagator_record(exc.report)
        write_manifest()
        raise
    exit_code = 0 if all(r["pass"] for r in result_meta.get("compare", [])) else 4
    return RunResult(exit_code, outputs, write_manifest())


def validate_config(config, method=None) -> list:
    """The checks :func:`run` makes before its first route, with ``method``
    overriding the configured one as in :func:`run`; returns every failure,
    one string per failed section, empty exactly when the run would start."""
    try:
        cfg, base_dir = _load(config)
    except (ConfigError, OSError) as exc:
        return [str(exc)]
    return _preflight(_override(cfg, method), base_dir)[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enslat",
        description="Disordered-ensemble dynamics via the equivalent semi-infinite lattice.",
        epilog="Exit codes: 0 ok; 2 config error; 3 numeric failure "
               "(leakage/convergence); 4 comparison tolerance exceeded.")
    parser.add_argument("--config", required=True, help="YAML run configuration (or a manifest)")
    parser.add_argument("--validate", action="store_true",
                        help="make the checks a run makes before its first route, and stop")
    parser.add_argument("--method", choices=_METHODS, help="override the configured method")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the random seed")
    args = parser.parse_args(argv)

    if args.validate:
        failures = validate_config(args.config, method=args.method)
        print("\n".join(f"FAIL {f}" for f in failures) or "OK")
        return 2 if failures else 0

    try:
        result = run(args.config, out_dir=args.out, method=args.method, seed=args.seed)
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (EnslatError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name in result.outputs:
        print(name)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
