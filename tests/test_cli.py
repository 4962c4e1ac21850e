"""CLI: config parsing, outputs, exit codes, manifest round trip."""

import ast
import importlib.util
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import enslat.cli
import enslat.dynamics
import enslat.oracle
from enslat import (
    DisorderDistribution,
    LatticeBasis,
    PolynomialCoupling,
    PropagationPlan,
    build_general,
    localized_initial,
    propagate,
    recurrence_analytic,
)
from enslat.cli import main, run, trajectory_csv, validate_config
from conftest import qubit_spec

INV = 0.70710678118654746
SPECTRAL = {"kind": "spectral", "amplitudes": [[INV, 0], [INV, 0]],
            "distribution": {"family": "gaussian", "width": 0.5}}


# one level past the dense oracles' limit: a diagonal 65-level system on its ground state
LEVELS_65 = {
    "system": {"h0": np.diag(np.arange(65.0)).tolist(),
               "couplings": [{"type": "linear", "matrix": np.diag(np.ones(65)).tolist()}],
               "distributions": [{"family": "gaussian", "width": 1.0}]},
    "initial": {"kind": "localized", "amplitudes": [1.0] + [0.0] * 64},
}


def qubit_config(tmp_path, method="chain", dist=None, depths=64, samples=4000,
                 n_steps=40, extra=None):
    cfg = {
        "unit": "E",
        "system": {
            "h0": [[0, 0], [0, 1]],
            "couplings": [{"type": "linear", "matrix": [[0, 0], [0, 1]]}],
            "distributions": [dist or {"family": "gaussian", "width": 1.0}],
        },
        "initial": {"kind": "localized", "amplitudes": [[INV, 0], [INV, 0]]},
        "time": {"t_max": 4.0, "n_steps": n_steps},
        "method": method,
        "numeric": {"tol": 1e-12, "depths": depths, "seed": 9, "samples": samples,
                    "quad_order": 40},
        "output": {"directory": str(tmp_path / "out")},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_chain_run_outputs(tmp_path):
    path = qubit_config(tmp_path)
    result = run(str(path))
    assert result.exit_code == 0
    out = tmp_path / "out"
    assert (out / "trajectory_chain.csv").exists()
    assert (out / "leakage_chain.csv").exists()
    assert (out / "manifest.yaml").exists()
    header = (out / "trajectory_chain.csv").read_text().splitlines()[0]
    assert header == ("t,re_rho_0_0,im_rho_0_0,re_rho_0_1,im_rho_0_1,"
                      "re_rho_1_1,im_rho_1_1")
    lines = (out / "leakage_chain.csv").read_text().splitlines()
    assert lines[0] == "t,leakage"
    assert len(lines) == 41


def test_mc_run_has_sem_columns(tmp_path):
    path = qubit_config(tmp_path, method="mc", samples=500, n_steps=6)
    result = run(str(path))
    assert result.exit_code == 0
    header = (tmp_path / "out" / "trajectory_mc.csv").read_text().splitlines()[0]
    assert header.endswith("sem_rho_0_0,sem_rho_0_1,sem_rho_1_1")


def test_compare_ok_and_manifest(tmp_path):
    path = qubit_config(tmp_path, method="compare", samples=4000, n_steps=20,
                        extra={"compare": {"quad_tol": 1e-8, "analytic_tol": 1e-9}})
    result = run(str(path))
    assert result.exit_code == 0
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    pairs = {row["pair"]: row for row in man["result"]["compare"]}
    assert pairs["chain_vs_quad"]["pass"] and pairs["chain_vs_analytic"]["pass"]
    assert man["result"]["accepted_depths"] == [64]
    assert man["config"]["numeric"]["depths"] == [64]


def test_manifest_records_oracles(tmp_path):
    path = qubit_config(tmp_path, method="compare", samples=300, n_steps=10)
    result = run(str(path))
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    assert man["result"]["oracles"] == {
        "quad": {"method": "quad", "quad_order": [40]},
        "mc": {"method": "mc", "samples": 300, "seed": 9, "degenerate_distribution": False,
               "conserved_entries": [[0, 0], [1, 1]]},
        "analytic": {"method": "analytic"},
    }
    assert man["result"] == result.manifest["result"]
    # each route that ran and the output files, in wall seconds rounded as the run's
    stages = man["result"]["stages"]
    assert list(stages) == ["chain", "output", "quad", "mc", "analytic"]
    assert all(s >= 0 and s == round(s, 3) for s in stages.values())
    assert sum(stages.values()) <= man["result"]["wall_clock_s"] + 0.005
    # libyaml writes the text the pure-Python emitter writes
    assert (tmp_path / "out" / "manifest.yaml").read_text() == yaml.safe_dump(
        result.manifest, sort_keys=False)
    # a manifest is still a config, its record of the oracles included
    assert validate_config(str(tmp_path / "out" / "manifest.yaml")) == []


def test_manifest_records_propagator(tmp_path):
    path = qubit_config(tmp_path)
    cfg = yaml.safe_load(path.read_text())
    cfg["numeric"]["max_krylov_dim"] = 30      # retired knobs, still found in old manifests
    cfg["numeric"]["quad_points"] = 12
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    prop = man["result"]["propagator"]
    assert set(prop) == {"spectral_centre", "spectral_half_width", "windows", "matvecs",
                         "max_norm_drift", "op_dim", "op_nnz", "growth", "box", "box_growths",
                         "redos", "active_fraction"}
    assert prop["growth"] == [[64]]          # pinned: the one lattice
    assert prop["matvecs"] > 0 and prop["windows"] > 0 and prop["spectral_half_width"] > 0
    assert prop["max_norm_drift"] <= 1e-10
    # depth 64 qubit chain, dim 130: level 1 has an on-node entry on each of the 65
    # nodes (level 0's is zero) and a hop between neighbours, stored both ways
    assert prop["op_dim"] == 130 and prop["op_nnz"] == 65 + 2 * 64
    assert prop["box"] == [64] or 0 < prop["box"][0] < 64
    assert prop["box_growths"] >= 1 and prop["redos"] >= 0
    assert 0 < prop["active_fraction"] <= 1
    assert "max_krylov_dim" not in man["config"]["numeric"]
    assert "quad_points" not in man["config"]["numeric"]


def test_compare_tolerance_exceeded_exit_4(tmp_path):
    path = qubit_config(tmp_path, method="compare", samples=200, n_steps=10,
                        extra={"compare": {"quad_tol": 1e-30, "analytic_tol": 1e-30}})
    assert main(["--config", str(path)]) == 4


def test_manifest_roundtrip_bitwise(tmp_path):
    path = qubit_config(tmp_path, method="chain", depths="auto", n_steps=25)
    run(str(path))
    man_path = tmp_path / "out" / "manifest.yaml"
    rt_dir = tmp_path / "rt"
    result = run(str(man_path), out_dir=str(rt_dir))
    assert result.exit_code == 0
    a = (tmp_path / "out" / "trajectory_chain.csv").read_bytes()
    b = (rt_dir / "trajectory_chain.csv").read_bytes()
    assert a == b
    # the manifest keeps auto, and the rerun grows the lattice the same way
    man = yaml.safe_load(man_path.read_text())
    assert man["config"]["numeric"]["depths"] == "auto"
    assert result.manifest["result"]["propagator"]["growth"] == man["result"]["propagator"]["growth"]


def test_method_and_seed_override(tmp_path):
    path = qubit_config(tmp_path, method="chain", samples=300, n_steps=6)
    rc = main(["--config", str(path), "--method", "mc", "--seed", "123",
               "--out", str(tmp_path / "ov")])
    assert rc == 0
    man = yaml.safe_load((tmp_path / "ov" / "manifest.yaml").read_text())
    assert man["result"]["method"] == "mc"
    assert man["config"]["numeric"]["seed"] == 123


def test_exit_code_2_on_bad_config(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text(yaml.safe_dump({"system": {"h0": [[0, 0], [0, 1]]}}))
    assert main(["--config", str(p)]) == 2
    p2 = tmp_path / "nonhermitian.yaml"
    cfgpath = qubit_config(tmp_path)
    cfg = yaml.safe_load(cfgpath.read_text())
    cfg["system"]["h0"] = [[0, 1], [0, 1]]
    p2.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(p2)]) == 2


@pytest.mark.parametrize("key, value", [
    ("depths", "sixteen"), ("depths", -3), ("depths", 0), ("depths", 2.5), ("depths", True),
    ("depths", [16, 16]), ("depths", [0]), ("depth_cap", 0), ("depth_cap", "many"),
    ("tol", 0.0), ("tol", "small"), ("leakage_threshold", -1e-8), ("seed", -1), ("seed", "one"),
])
def test_bad_numeric_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    path = qubit_config(tmp_path, n_steps=5)
    cfg = yaml.safe_load(path.read_text())
    cfg["numeric"][key] = value
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert f"numeric.{key}" in capsys.readouterr().out
    assert main(["--config", str(path)]) == 2
    assert f"config error: numeric.{key}" in capsys.readouterr().err


DIMER = {"system": {
    "h0": [[0.2, 0.3], [0.3, -0.1]],
    "couplings": [{"type": "linear", "matrix": [[1, 0], [0, 0]]},
                  {"type": "linear", "matrix": [[0, 0], [0, 1]]}],
    "distributions": [{"family": "semicircle", "width": 1.0},
                      {"family": "uniform", "width": 0.8}]}}


@pytest.mark.parametrize("method, key, value", [
    ("quad", "quad_order", 0), ("quad", "quad_order", [48]), ("quad", "quad_order", [48, 0]),
    ("quad", "quad_order", 2.5), ("mc", "samples", 0), ("compare", "samples", 0),
])
def test_bad_oracle_setting_exits_2_naming_the_key(tmp_path, capsys, method, key, value):
    # on a two-variable lattice, a per-axis quadrature order needs two entries
    path = qubit_config(tmp_path, method=method, depths=[8, 8], n_steps=5, extra=DIMER)
    cfg = yaml.safe_load(path.read_text())
    cfg["numeric"][key] = value
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert f"numeric.{key}" in capsys.readouterr().out
    assert main(["--config", str(path)]) == 2
    assert f"config error: numeric.{key}" in capsys.readouterr().err


def test_per_axis_quad_order_runs(tmp_path):
    path = qubit_config(tmp_path, method="quad", depths=[8, 8], n_steps=5, extra=DIMER)
    cfg = yaml.safe_load(path.read_text())
    cfg["numeric"]["quad_order"] = [12, 16]
    path.write_text(yaml.safe_dump(cfg))
    assert validate_config(str(path)) == []
    result = run(str(path))
    assert result.exit_code == 0
    assert result.manifest["result"]["oracles"]["quad"]["quad_order"] == [12, 16]


def test_shipped_configs_validate(capsys):
    # a schema check must not reject a config the package ships
    shipped = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert shipped
    for path in shipped:
        assert main(["--config", str(path), "--validate"]) == 0, path.name
        assert capsys.readouterr().out.strip() == "OK"


def test_exit_code_3_on_leakage(tmp_path):
    # depth 4 cannot carry the horizon: numeric failure, not a config error
    path = qubit_config(tmp_path, dist={"family": "semicircle", "width": 1.0},
                        depths=4, n_steps=30)
    assert main(["--config", str(path)]) == 3


def test_exit_3_leaves_a_record_of_the_failure(tmp_path, capsys):
    # the manifest says which stage failed and why, and holds the partial
    # propagator record; the error still reaches main, which exits 3
    path = qubit_config(tmp_path, dist={"family": "semicircle", "width": 1.0},
                        depths=4, n_steps=30)
    assert main(["--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: boundary-shell population")
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    failure = man["result"]["failure"]
    assert failure["stage"] == "chain" and failure["error"] == "LeakageExceeded"
    assert failure["message"].startswith("boundary-shell population")
    prop = man["result"]["propagator"]
    assert prop["growth"] == [[4]] and prop["matvecs"] > 0 and prop["op_dim"] == 10
    assert man["config"]["numeric"]["depths"] == [4]
    assert "trajectory_chain.csv" not in man["result"]["outputs"]
    # the failing stage's time is recorded; no output stage ran
    assert list(man["result"]["stages"]) == ["chain"] and man["result"]["stages"]["chain"] >= 0


def test_manifest_records_the_thread_environment(tmp_path, monkeypatch):
    # each BLAS thread variable as the run saw it (null when unset) and the
    # usable cores, recorded before the first route: an exit-3 manifest has them
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    path = qubit_config(tmp_path, dist={"family": "semicircle", "width": 1.0},
                        depths=4, n_steps=30)
    assert main(["--config", str(path)]) == 3
    threads = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())["result"]["threads"]
    assert threads["OPENBLAS_NUM_THREADS"] == "3" and threads["MKL_NUM_THREADS"] is None
    assert threads["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
    assert threads["cores"] == enslat.oracle._workers() >= 1


def test_validate_reports(tmp_path, capsys):
    ok = qubit_config(tmp_path)
    assert main(["--config", str(ok), "--validate"]) == 0
    assert capsys.readouterr().out.strip() == "OK"

    bad = qubit_config(tmp_path, dist={"family": "cauchy", "width": 1.0})
    assert main(["--config", str(bad), "--validate"]) == 2
    out = capsys.readouterr().out
    assert "moments undefined; set cutoff" in out

    cfg = yaml.safe_load(ok.read_text())
    cfg["system"]["h0"] = [[0, [0.5, 0]], [0, 1]]
    p = tmp_path / "nh.yaml"
    p.write_text(yaml.safe_dump(cfg))
    failures = validate_config(str(p))
    assert failures and "Hermitian" in failures[0]


def test_validate_cut_cauchy_passes(tmp_path):
    path = qubit_config(tmp_path, dist={"family": "cauchy", "width": 1.0,
                                        "cutoff": [-30.0, 30.0]})
    assert validate_config(str(path)) == []


def test_tabulated_initial_state(tmp_path):
    # c(lam) = (lam, sqrt(1 - lam^2)) tabulated on a fine grid
    lam = np.linspace(-1, 1, 801)
    data = np.column_stack([lam, lam, np.zeros_like(lam),
                            np.sqrt(1 - lam ** 2), np.zeros_like(lam)])
    np.savetxt(tmp_path / "c.txt", data)
    path = qubit_config(tmp_path, dist={"family": "semicircle", "width": 1.0},
                        depths=48, n_steps=10)
    cfg = yaml.safe_load(path.read_text())
    cfg["initial"] = {"kind": "tabulated", "file": "c.txt"}
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0
    text = (tmp_path / "out" / "trajectory_chain.csv").read_text().splitlines()
    row0 = [float(tok) for tok in text[1].split(",")]
    # rho_00(0) = E[lam^2] = 1/4 for the unit semicircle
    assert abs(row0[1] - 0.25) < 1e-4


def test_manifest_with_data_file_reruns_from_its_directory(tmp_path):
    # the initial state's file is relative to the config; the manifest names
    # it relative to its own directory, where a rerun resolves it.  Tabulated
    # at the support's edges only, c(lam) is smooth, so every compare gate holds
    (tmp_path / "tables").mkdir()
    np.savetxt(tmp_path / "tables" / "c.txt",
               [[-1.0, 1.0, 0.0, 0.2, 0.0], [1.0, 1.0, 0.0, 0.8, 0.1]])
    path = qubit_config(tmp_path, method="compare", samples=500,
                        dist={"family": "semicircle", "width": 1.0}, depths=48, n_steps=10)
    cfg = yaml.safe_load(path.read_text())
    cfg["initial"] = {"kind": "tabulated", "file": "tables/c.txt"}
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    first = run(str(path))
    assert first.exit_code == 0
    csvs = {name: (out / name).read_bytes() for name in first.outputs if name.endswith(".csv")}
    assert {"trajectory_chain.csv", "trajectory_mc.csv", "trajectory_quad.csv"} <= set(csvs)
    rerun = run(str(out / "manifest.yaml"))
    assert rerun.exit_code == 0
    assert {name: (out / name).read_bytes() for name in csvs} == csvs


def test_spectral_manifest_reruns_from_its_directory(tmp_path):
    # a spectral state's tabulated energy measure is a data file too
    (tmp_path / "tables").mkdir()
    e = np.linspace(-2.0, 2.0, 201)
    np.savetxt(tmp_path / "tables" / "energy.txt", np.column_stack([e, np.exp(-2 * e ** 2)]))
    path = qubit_config(tmp_path, method="quad", n_steps=6, extra={"initial": {
        **SPECTRAL, "distribution": {"family": "tabulated", "file": "tables/energy.txt"}}})
    out = tmp_path / "out"
    assert run(str(path)).exit_code == 0
    first = (out / "trajectory_quad.csv").read_bytes()
    assert run(str(out / "manifest.yaml")).exit_code == 0
    assert (out / "trajectory_quad.csv").read_bytes() == first


def test_trajectory_csv_precision():
    from enslat import DensityTrajectory
    rho = np.array([[[1 / 3, 1j / 7], [-1j / 7, 2 / 3]]])
    text = trajectory_csv(DensityTrajectory(np.array([0.0]), rho))
    row = text.splitlines()[1].split(",")
    assert row[1] == f"{1 / 3:.17g}"
    assert row[4] == f"{1 / 7:.17g}"


def test_spectral_initial_runs(tmp_path):
    path = qubit_config(tmp_path, depths=32, n_steps=8)
    cfg = yaml.safe_load(path.read_text())
    cfg["initial"] = {"kind": "spectral",
                      "amplitudes": [[INV, 0], [INV, 0]],
                      "distribution": {"family": "gaussian", "width": 0.5}}
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0


def test_spectral_initial_with_auto_depth(tmp_path):
    path = qubit_config(tmp_path, depths="auto", n_steps=8)
    cfg = yaml.safe_load(path.read_text())
    cfg["initial"] = {"kind": "spectral",
                      "amplitudes": [[INV, 0], [INV, 0]],
                      "distribution": {"family": "gaussian", "width": 0.5}}
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0
    assert result.manifest["result"]["accepted_depths"][0] > 16


def test_validate_rejects_spectral_state_on_two_variables(tmp_path):
    # --validate must refuse what the run refuses
    path = qubit_config(tmp_path)
    cfg = yaml.safe_load(path.read_text())
    cfg["system"]["couplings"] *= 2
    cfg["system"]["distributions"] *= 2
    cfg["initial"] = {"kind": "spectral",
                      "amplitudes": [[INV, 0], [INV, 0]],
                      "distribution": {"family": "gaussian", "width": 0.5}}
    path.write_text(yaml.safe_dump(cfg))
    assert validate_config(str(path)) == [
        "initial: spectral initial states support a single disorder variable"]
    assert main(["--config", str(path), "--validate"]) == 2


@pytest.mark.parametrize("method, dist, changes, failure", [
    ("mc", None, {"initial": SPECTRAL}, None),
    ("compare", None, {"initial": SPECTRAL}, None),
    ("chain", None, {"initial": {**SPECTRAL, "distribution": {"family": "cauchy", "width": 0.5}}},
     "initial.distribution: moments undefined; set cutoff"),
    ("chain", None, {"initial": {"kind": "tabulated", "file": "c.txt"}},
     "system.distributions[0]: unbounded support; set cutoff"),
    ("chain", None, {"initial": {"kind": "localized", "amplitudes": [1, 1]}},
     "initial.amplitudes: need unit norm, got ||c|| = 1.4142135623730951"),
    ("compare", None, {"compare": {"quad_tol": "tight"}}, "compare.quad_tol: expected"),
    ("chain", {"family": "cauchy", "width": 1.0}, {},
     "system.distributions[0]: moments undefined; set cutoff"),
    ("compare", {"family": "uniform", "width": 1.0, "cutoff": [2.0, 3.0]}, {},
     "system.distributions[0]: cutoff window (2.0, 3.0) is empty"),
    ("compare", None, LEVELS_65, "system.h0: the dense oracles (mc, quad) need N <= 64"),
    ("chain", None, {"output": "out_dir"}, "output: expected a mapping"),
    ("chain", None, {"numeric": 5}, "numeric: expected a mapping"),
], ids=["spectral-mc", "spectral-compare", "spectral-uncut-cauchy", "tabulated-uncut-gaussian",
        "unnormalized", "unreadable-gate", "uncut-cauchy", "empty-cut-window", "65-levels",
        "output-not-a-mapping", "numeric-not-a-mapping"])
def test_validate_passes_exactly_what_run_starts(tmp_path, capsys, method, dist, changes,
                                                 failure):
    # --validate makes the checks a run makes before its first route; a run
    # they refuse exits 2 naming the key and writes no file
    (tmp_path / "c.txt").write_text(f"-5 {INV} 0 {INV} 0\n5 0.6 0 0.8 0\n")
    path = qubit_config(tmp_path, method=method, dist=dist, depths="auto", samples=500,
                        n_steps=12)
    cfg = yaml.safe_load(path.read_text())
    cfg.update(changes)
    path.write_text(yaml.safe_dump(cfg))
    failures = validate_config(str(path))
    rc = main(["--config", str(path)])
    err = capsys.readouterr().err
    if failure is None:
        assert failures == [] and rc == 0
        return
    assert len(failures) == 1 and failures[0].startswith(failure)
    assert rc == 2 and err == f"config error: {failures[0]}\n"
    assert not (tmp_path / "out").exists()


def test_spectral_state_runs_under_every_route(tmp_path):
    # the eigenstate ensemble is the localized state on the energy measure's
    # chain, for the oracles as for the lattice: compare covers it, closed form included
    path = qubit_config(tmp_path, method="compare", samples=500, n_steps=12, depths="auto",
                        extra={"initial": SPECTRAL})
    result = run(str(path))
    assert result.exit_code == 0
    rows = {r["pair"]: r for r in result.manifest["result"]["compare"]}
    assert set(rows) == {"chain_vs_quad", "chain_vs_mc_4sem", "chain_vs_analytic"}
    assert rows["chain_vs_quad"]["max_abs_error"] <= 1e-13
    assert rows["chain_vs_analytic"]["max_abs_error"] <= 1e-13


def test_validate_builds_no_table_and_calls_no_route(tmp_path, monkeypatch):
    # the pre-flight reads the config only: every layer the run calls through
    # the cli module is out of its reach
    def forbidden(*args, **kwargs):
        raise AssertionError("the pre-flight called a pipeline layer")

    for mod, name, *_ in _load_tracing()._SPANS:
        if mod == "cli" and name != "run":
            monkeypatch.setattr(enslat.cli, name, forbidden)
    (tmp_path / "c.txt").write_text(f"-5 {INV} 0 {INV} 0\n5 0.6 0 0.8 0\n")
    path = qubit_config(tmp_path, method="compare",
                        dist={"family": "gaussian", "width": 1.0, "cutoff": [-5.0, 5.0]},
                        extra={"initial": {"kind": "tabulated", "file": "c.txt"}})
    assert validate_config(str(path)) == []
    for initial in (SPECTRAL, {"kind": "localized", "amplitudes": [[INV, 0], [INV, 0]]}):
        cfg = yaml.safe_load(path.read_text())
        cfg["initial"] = initial
        path.write_text(yaml.safe_dump(cfg))
        assert validate_config(str(path)) == []


def test_unreadable_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("system: [unclosed\n")
    assert main(["--config", str(path), "--validate"]) == 2
    assert capsys.readouterr().out.startswith("FAIL config: not YAML")
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config: not YAML")


def test_auto_depth_run_builds_each_lattice_once(tmp_path, monkeypatch):
    # the run propagates the lattice auto_depth accepted instead of building it again
    built = []
    for module in (enslat.cli, enslat.dynamics):
        build = module.build_general
        monkeypatch.setattr(module, "build_general",
                            lambda spec, tables, depths, build=build:
                            built.append(tuple(depths)) or build(spec, tables, depths))
    path = qubit_config(tmp_path, depths="auto", n_steps=25)
    result = run(str(path))
    assert result.exit_code == 0
    assert len(built) == len(set(built)) > 1
    assert list(built[-1]) == result.manifest["result"]["accepted_depths"]


def test_auto_depth_run_propagates_once(tmp_path, monkeypatch):
    # one propagation grows the lattice; the initial state is set up only on
    # start lattices, never on one the run grew into
    calls, starts = [], []
    propagate_fn = enslat.dynamics.propagate
    monkeypatch.setattr(enslat.dynamics, "propagate",
                        lambda *a, **kw: calls.append(1) or propagate_fn(*a, **kw))
    for name in ("localized_initial", "expanded_initial"):
        fn = getattr(enslat.cli, name)
        monkeypatch.setattr(enslat.cli, name, lambda *a, fn=fn: starts.append(a[-1].depths)
                            or fn(*a))
    for kind in ("localized", "tabulated"):
        calls.clear()
        starts.clear()
        path = qubit_config(tmp_path, depths="auto", n_steps=25)
        cfg = yaml.safe_load(path.read_text())
        cfg["system"]["distributions"] = [{"family": "gaussian", "width": 1.0,
                                           "cutoff": [-5.0, 5.0]}]
        if kind == "tabulated":
            (tmp_path / "c.txt").write_text(f"-5 {INV} 0 {INV} 0\n5 0.6 0 0.8 0\n")
            cfg["initial"] = {"kind": "tabulated", "file": "c.txt"}
        path.write_text(yaml.safe_dump(cfg))
        result = run(str(path))
        assert result.exit_code == 0
        growth = result.manifest["result"]["propagator"]["growth"]
        assert len(calls) == 1 and len(growth) > 1
        assert growth[-1] == result.manifest["result"]["accepted_depths"]
        assert list(starts[-1]) == growth[0] and all(s[0] <= growth[0][0] for s in starts)


@pytest.mark.parametrize("key, value", [
    ("t_max", "soon"), ("t_max", 0), ("t_max", None), ("n_steps", "many"), ("n_steps", 1),
    ("n_steps", 2.5),
])
def test_bad_time_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    path = qubit_config(tmp_path, n_steps=5)
    cfg = yaml.safe_load(path.read_text())
    cfg["time"][key] = value
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert f"time.{key}" in capsys.readouterr().out
    assert main(["--config", str(path)]) == 2
    assert f"config error: time.{key}" in capsys.readouterr().err


def test_validate_applies_the_method_override_and_checks_formats(tmp_path, capsys):
    # --validate refuses what the run with the same flags refuses
    path = qubit_config(tmp_path, method="mc", dist={"family": "cauchy", "width": 1.0})
    assert main(["--config", str(path), "--validate"]) == 0
    assert main(["--config", str(path), "--validate", "--method", "chain"]) == 2
    assert "system.distributions[0]" in capsys.readouterr().out
    assert validate_config(str(path), method="chain") == [
        "system.distributions[0]: moments undefined; set cutoff"]
    cfg = yaml.safe_load(path.read_text())
    cfg["output"]["formats"] = ["hdf5"]
    path.write_text(yaml.safe_dump(cfg))
    for flags in ([], ["--method", "chain"]):
        assert main(["--config", str(path), "--validate", *flags]) == 2
        assert "FAIL output.formats" in capsys.readouterr().out
        assert main(["--config", str(path), *flags]) == 2
        assert "config error: output.formats" in capsys.readouterr().err


def test_polynomial_coupling_compare(tmp_path, capsys):
    # a degree-2 coupling M0 + lambda M1 + lambda^2 M2 passes every gate of
    # compare; its coefficient matrices are required
    path = qubit_config(tmp_path, method="compare", samples=500, n_steps=12, depths="auto")
    cfg = yaml.safe_load(path.read_text())
    cfg["system"]["h0"] = [[0.0, 0.3], [0.3, 1.0]]
    cfg["system"]["couplings"] = [{"type": "polynomial", "matrices": [
        [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.1, 0.0], [0.0, 0.0]]]}]
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0
    rows = {r["pair"]: r for r in result.manifest["result"]["compare"]}
    assert set(rows) == {"chain_vs_quad", "chain_vs_mc_4sem"}
    assert all(r["pass"] for r in rows.values())
    del cfg["system"]["couplings"][0]["matrices"]
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert capsys.readouterr().out.startswith("FAIL system.couplings[0].matrices: ")
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: system.couplings[0].matrices: ")


@pytest.mark.parametrize("matrices", [2, 3])
def test_analytic_route_reads_the_coefficients(tmp_path, matrices):
    # lambda * diag(0, 1) as a polynomial, with or without a zero lambda^2
    # term, is the linear coupling of the dephasing qubit: compare checks it
    # against the closed form, and the analytic route runs on it
    zero = [[0.0, 0.0], [0.0, 0.0]]
    path = qubit_config(tmp_path, method="compare", samples=500, n_steps=12, depths="auto")
    cfg = yaml.safe_load(path.read_text())
    cfg["system"]["couplings"] = [{"type": "polynomial", "matrices": [
        zero, [[0.0, 0.0], [0.0, 1.0]], zero][:matrices]}]
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0
    rows = {r["pair"]: r for r in result.manifest["result"]["compare"]}
    assert rows["chain_vs_analytic"]["pass"] and rows["chain_vs_analytic"]["tolerance"] == 1e-9
    assert main(["--config", str(path), "--method", "analytic"]) == 0
    # a constant diag(0, 1) is no disorder coupling at all
    cfg["system"]["couplings"] = [{"type": "polynomial", "matrices": [[[0, 0], [0, 1]]]}]
    path.write_text(yaml.safe_dump(cfg))
    assert validate_config(str(path), method="analytic") == [
        "system: the analytic route needs a qubit with h0 = diag(E0, E1) "
        "and one coupling lambda * diag(0, 1)"]


@pytest.mark.parametrize("section, key, value", [
    ("numeric", "depth", 64), ("time", "n_step", 20), ("compare", "mc_sigma", 1.0),
    ("output", "format", ["csv"]), ("system", "hO", [[0, 0], [0, 1]]),
    ("initial", "amplitude", [1, 0]),
])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, section, key, value):
    # a misspelt key would otherwise be ignored, and the run would use the default
    path = qubit_config(tmp_path, n_steps=6)
    cfg = yaml.safe_load(path.read_text())
    cfg.setdefault(section, {})[key] = value
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert capsys.readouterr().out.startswith(f"FAIL {section}.{key}: unknown key")
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}: unknown key")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, key", [
    ("top level", "methd"),
    ("linear coupling", "system.couplings[0].fit_degree"),
    ("polynomial coupling", "system.couplings[0].matrix"),
    ("tabulated coupling", "system.couplings[0].matrix"),
    ("named distribution", "system.distributions[0].cutof"),
    ("tabulated distribution", "system.distributions[0].width"),
    ("tabulated initial state", "initial.amplitudes"),
    ("spectral energy measure", "initial.distribution.cutof"),
])
def test_unknown_key_in_a_nested_mapping_exits_2_naming_it(tmp_path, capsys, case, key):
    # keys are checked per coupling type, distribution family and initial
    # kind: a key another kind reads would otherwise be ignored
    lam = np.linspace(-3.0, 3.0, 61)
    np.savetxt(tmp_path / "dist.txt", np.column_stack([lam, np.exp(-lam ** 2)]))
    np.savetxt(tmp_path / "f.txt", np.column_stack([lam] + [lam * 0] * 6 + [lam, lam * 0]))
    (tmp_path / "c.txt").write_text(f"-5 {INV} 0 {INV} 0\n5 {INV} 0 {INV} 0\n")
    path = qubit_config(tmp_path, method="mc", n_steps=6)
    cfg = yaml.safe_load(path.read_text())
    unit = [[0, 0], [0, 1]]
    if case == "top level":
        cfg["methd"] = "quad"
    elif case == "linear coupling":
        cfg["system"]["couplings"][0]["fit_degree"] = 3
    elif case == "polynomial coupling":
        cfg["system"]["couplings"][0] = {"type": "polynomial", "matrices": [unit], "matrix": unit}
    elif case == "tabulated coupling":
        cfg["system"]["couplings"][0] = {"type": "tabulated", "file": "f.txt", "matrix": unit}
    elif case == "named distribution":
        cfg["system"]["distributions"][0]["cutof"] = [-1, 1]
    elif case == "tabulated distribution":
        cfg["system"]["distributions"][0] = {"family": "tabulated", "file": "dist.txt",
                                             "width": 1.0}
    elif case == "tabulated initial state":
        cfg["initial"] = {"kind": "tabulated", "file": "c.txt", "amplitudes": [1, 0]}
    else:
        cfg["initial"] = {**SPECTRAL, "distribution": {**SPECTRAL["distribution"],
                                                       "cutof": [-1, 1]}}
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert capsys.readouterr().out.startswith(f"FAIL {key}: unknown key")
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: unknown key")
    assert not (tmp_path / "out").exists()


def test_output_written_atomically(tmp_path):
    # no temp droppings left next to the outputs
    path = qubit_config(tmp_path, n_steps=6)
    run(str(path))
    leftovers = [f for f in os.listdir(tmp_path / "out") if f.endswith(".tmp")]
    assert leftovers == []


def test_tabulated_distribution_from_file(tmp_path):
    # two-column text (lambda, density); run through the chain route
    lam = np.linspace(-3.0, 3.0, 601)
    np.savetxt(tmp_path / "dist.txt", np.column_stack([lam, np.exp(-lam ** 2)]))
    path = qubit_config(tmp_path, dist={"family": "tabulated", "file": "dist.txt"},
                        depths=48, n_steps=8)
    result = run(str(path))
    assert result.exit_code == 0
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    recorded = man["config"]["system"]["distributions"][0]["file"]
    assert (tmp_path / "out" / recorded).resolve() == (tmp_path / "dist.txt").resolve()


@pytest.mark.parametrize("fault", ["no file key", "no such file"])
@pytest.mark.parametrize("table, key", [
    ("distribution", "system.distributions[0].file"),
    ("coupling", "system.couplings[0].file"),
    ("initial", "initial.file"),
])
def test_data_file_errors_exit_2_naming_the_key(tmp_path, capsys, table, key, fault):
    path = qubit_config(tmp_path, n_steps=6)
    cfg = yaml.safe_load(path.read_text())
    block = {} if fault == "no file key" else {"file": "absent.txt"}
    if table == "distribution":
        cfg["system"]["distributions"][0] = {"family": "tabulated", **block}
    elif table == "coupling":
        cfg["system"]["couplings"][0] = {"type": "tabulated", **block}
    else:
        cfg["initial"] = {"kind": "tabulated", **block}
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert key in capsys.readouterr().out
    assert main(["--config", str(path)]) == 2
    assert key in capsys.readouterr().err


NAN = float("nan")


@pytest.mark.parametrize("case, key", [
    ("nan-density", "system.distributions[0]"),
    ("inf-abscissa", "system.distributions[0]"),
    ("nan-cutoff", "system.distributions[0].cutoff"),
    ("nan-h0", "system.h0"),
    ("inf-t_max", "time.t_max"),
    ("token-in-initial-file", "initial.file"),
    ("zero-row-in-initial-file", "initial.file"),
    ("antiparallel-rows-in-initial-file", "initial.file"),
    ("linear-without-matrix", "system.couplings[0].matrix"),
    ("negative-fit_degree", "system.couplings[0].fit_degree"),
    ("fractional-fit_degree", "system.couplings[0].fit_degree"),
    ("string-fit_degree", "system.couplings[0].fit_degree"),
    ("bool-fit_degree", "system.couplings[0].fit_degree"),
])
def test_malformed_numbers_exit_2_naming_the_key(tmp_path, capsys, case, key):
    # a number that is not finite, or not a number at all, is a config error
    # under --validate and a run alike, never a numeric failure or a traceback
    lam = np.linspace(-3.0, 3.0, 61)
    table = np.column_stack([lam, np.exp(-lam ** 2)])
    if case == "nan-density":
        table[30, 1] = NAN
    else:       # still increasing
        table[-1, 0] = np.inf
    np.savetxt(tmp_path / "dist.txt", table)
    # a row of zeros has no direction to normalize to: not an all-NaN state
    row = "0 0 0 0 0" if case == "zero-row-in-initial-file" else "0 0.6 zero 0.8 0"
    (tmp_path / "c.txt").write_text(f"-5 {INV} 0 {INV} 0\n{row}\n5 0.6 0 0.8 0\n")
    if case == "antiparallel-rows-in-initial-file":     # interpolates through zero at 0
        (tmp_path / "c.txt").write_text("-5 1 0 0 0\n5 -1 0 0 0\n")
    path = qubit_config(tmp_path, n_steps=6, depths=16)
    cfg = yaml.safe_load(path.read_text())
    if case in ("nan-density", "inf-abscissa"):
        cfg["system"]["distributions"][0] = {"family": "tabulated", "file": "dist.txt"}
    elif case == "nan-cutoff":
        cfg["system"]["distributions"][0]["cutoff"] = [NAN, 5.0]
    elif case == "nan-h0":
        cfg["system"]["h0"][1][1] = NAN
    elif case == "inf-t_max":
        cfg["time"]["t_max"] = np.inf
    elif case.endswith("initial-file"):
        cfg["system"]["distributions"][0]["cutoff"] = [-5.0, 5.0]
        cfg["initial"] = {"kind": "tabulated", "file": "c.txt"}
    elif case.endswith("fit_degree"):       # a table of lambda * diag(0, 1)
        np.savetxt(tmp_path / "f.txt", np.column_stack([lam] + [lam * 0] * 6 + [lam, lam * 0]))
        degree = {"negative": -1, "fractional": 2.7, "string": "x", "bool": True}
        cfg["system"]["couplings"][0] = {"type": "tabulated", "file": "f.txt",
                                         "fit_degree": degree[case.split("-")[0]]}
    else:
        del cfg["system"]["couplings"][0]["matrix"]
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), "--validate"]) == 2
    assert key in capsys.readouterr().out
    assert main(["--config", str(path)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analytic_route_rejects_cut_distribution(tmp_path):
    path = qubit_config(tmp_path, method="analytic",
                        dist={"family": "cauchy", "width": 1.0, "cutoff": [-30, 30]})
    assert main(["--config", str(path)]) == 2


def test_compare_skips_analytic_for_cut_distribution(tmp_path):
    path = qubit_config(tmp_path, method="compare", samples=1000, n_steps=8,
                        dist={"family": "cauchy", "width": 1.0,
                              "cutoff": [-30.0, 30.0]},
                        depths=256)
    cfg = yaml.safe_load(path.read_text())
    cfg["numeric"]["quad_order"] = 128     # phases span +-120 rad at t_max
    path.write_text(yaml.safe_dump(cfg))
    result = run(str(path))
    assert result.exit_code == 0
    pairs = [r["pair"] for r in result.manifest["result"]["compare"]]
    assert "chain_vs_quad" in pairs and "chain_vs_analytic" not in pairs


def abs_coupling_config(tmp_path, method, **kw):
    """Qubit with coupling |lambda| diag(0, 1), tabulated, on uniform disorder."""
    lam = np.linspace(-1.0, 1.0, 201)
    cols = [lam] + [np.abs(lam) * (a == b == 1) if part == 0 else np.zeros_like(lam)
                    for a in range(2) for b in range(2) for part in range(2)]
    np.savetxt(tmp_path / "abs.txt", np.column_stack(cols))
    path = qubit_config(tmp_path, method=method,
                        dist={"family": "uniform", "width": 1.0}, **kw)
    cfg = yaml.safe_load(path.read_text())
    cfg["system"]["couplings"] = [{"type": "tabulated", "file": "abs.txt", "fit_degree": 8}]
    path.write_text(yaml.safe_dump(cfg))
    return path, PolynomialCoupling.fit(lam, np.abs(lam)[:, None, None] * np.diag([0.0, 1.0]), 8)


def test_tabulated_coupling_compare_agrees(tmp_path):
    # every route uses the fitted polynomial, so chain and quad solve the same
    # Hamiltonian even though |lambda| is not a polynomial
    path, _ = abs_coupling_config(tmp_path, "compare", depths=64, samples=1000, n_steps=20)
    result = run(str(path))
    assert result.exit_code == 0
    pairs = {row["pair"]: row for row in result.manifest["result"]["compare"]}
    assert pairs["chain_vs_quad"]["max_abs_error"] <= 1e-8


def test_manifest_records_tabulated_fit_residual(tmp_path):
    path, coupling = abs_coupling_config(tmp_path, "chain", depths=32, n_steps=6)
    assert run(str(path)).exit_code == 0
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    assert man["result"]["tabulated_fit_residual"] == {0: coupling.fit_residual}
    assert coupling.fit_residual > 1e-3         # |lambda| is no polynomial
    run(str(qubit_config(tmp_path, n_steps=6)))
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    assert "tabulated_fit_residual" not in man["result"]


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # perfbench/tracing.py rebinds these names in the enslat modules by name;
    # a rename must not silently stop it from tracing a layer
    tracing = _load_tracing()
    modules = {"cli": enslat.cli, "dynamics": enslat.dynamics, "oracle": enslat.oracle}
    missing = [f"{mod}.{name}" for mod, name, *_ in tracing._SPANS
               if not hasattr(modules[mod], name)]
    assert missing == []
    assert hasattr(enslat.oracle, "_evolve_batch")


def test_traced_spans_fire(tmp_path, monkeypatch):
    # perfbench/tracing.py opens a span only while the pipeline calls a layer
    # through the module global it rebinds: a route table that held the
    # functions themselves would stop the spans with no name missing
    tracing = _load_tracing()
    modules = {"cli": enslat.cli, "dynamics": enslat.dynamics, "oracle": enslat.oracle}
    for mod, name, *_ in tracing._SPANS:
        # rebinding a name to itself records it, so the tracer is undone after the test
        monkeypatch.setattr(modules[mod], name, getattr(modules[mod], name))
    monkeypatch.setattr(enslat.oracle, "_evolve_batch", enslat.oracle._evolve_batch)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    path = qubit_config(tmp_path, method="compare", depths="auto", samples=300, n_steps=8)
    assert enslat.cli.run(str(path)).exit_code == 0
    spans = {span[0] for span in tracer.spans}
    assert {"cli.run", "dynamics.auto_depth", "oracle.quad", "oracle.mc", "oracle.analytic",
            "cli.output"} <= spans
    assert tracer.counts["dynamics.matvecs"] > 0


def test_no_unused_imports():
    # no linter runs on this code: fail on any module-level import its module
    # never reads, except the names perfbench/tracing.py rebinds
    traced = {(mod, name) for mod, name, *_ in _load_tracing()._SPANS}
    unused = []
    for path in sorted(Path(enslat.cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read and (path.stem, name) not in traced]
    assert unused == []


def test_public_names_have_a_reader():
    # beside the unused-import lint: a public module-level function or class is
    # read elsewhere in the package, rebound by perfbench/tracing.py or named
    # in the README; anything else is a second way to do what a route does once
    src = Path(enslat.cli.__file__).parent
    traced = {name for _, name, *_ in _load_tracing()._SPANS}
    readme = (src.parents[1] / "README.md").read_text()
    documented = {word for span in re.findall(r"`([^`\n]+)`", readme)
                  for word in re.findall(r"\w+", span)}
    defs, reads = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and not own.startswith("_"):
                defs.append((path.stem, own))
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append((path.stem, own, read))
    unread = [f"{mod}.{name}" for mod, name in defs
              if name not in traced and name not in documented
              and not any(name in read for m, own, read in reads if (m, own) != (mod, name))]
    assert unread == []


def test_all_names_resolve():
    # beside the unused-import lint: every name a module exports must exist,
    # so a deleted function cannot leave a stale __all__ entry
    missing = []
    for path in sorted(Path(enslat.cli.__file__).parent.glob("*.py")):
        if path.stem == "__main__":     # importing it runs the CLI
            continue
        module = importlib.import_module(f"enslat.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_tracer_reads_propagate_result():
    # the benchmark's tracer counts the lattice states propagate returns; a
    # change of the return type must not break a traced run
    tracing = _load_tracing()
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    d = 32
    op = build_general(spec, [recurrence_analytic(spec.distributions[0], d + 1)], [d])
    psi0 = localized_initial(np.array([INV, INV]), LatticeBasis(2, (d,)))
    plan = PropagationPlan.linspace(2.0, 9)
    held = {}
    for keep in (False, True):
        tracer = tracing.Tracer()
        out = propagate(op, psi0, plan, keep_states=keep)
        assert tracer._on_propagate((op, psi0, plan), out) is out
        held[keep] = tracer.counts["dynamics.states_held_bytes"]
    assert held[False] == 0
    assert held[True] == plan.times.size * psi0.amplitudes.nbytes


def test_compare_mc_row_reports_excess(tmp_path):
    # the 4-SEM band is applied to every entry at every time; the row says how
    # many entries that was and how far, in SEM units, the worst one strayed
    n_steps = 12
    path = qubit_config(tmp_path, method="compare", samples=500, n_steps=n_steps)
    result = run(str(path))
    assert result.exit_code == 0
    row = {r["pair"]: r for r in result.manifest["result"]["compare"]}["chain_vs_mc_4sem"]
    man = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
    assert man["result"]["compare"] == result.manifest["result"]["compare"]
    assert row["entries_tested"] == n_steps * 2 * 2

    out = tmp_path / "out"
    chain = np.loadtxt(out / "trajectory_chain.csv", delimiter=",", skiprows=1)
    mc = np.loadtxt(out / "trajectory_mc.csv", delimiter=",", skiprows=1)
    dev = np.abs((chain[:, 1:7:2] - mc[:, 1:7:2]) + 1j * (chain[:, 2:7:2] - mc[:, 2:7:2]))
    sem = mc[:, 7:]
    noisy = sem > 0
    assert noisy.any() and not noisy.all()      # the populations are constant: SEM 0
    assert row["worst_excess_sem"] == np.max((dev[noisy] - 1e-10) / sem[noisy])
    assert 0.0 < row["worst_excess_sem"] <= 4.0
    assert (out / "compare_errors.csv").read_text().splitlines()[0] == \
        "pair,max_abs_error,tolerance,pass"
