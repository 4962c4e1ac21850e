"""One benchmark step in a fresh process; see run.py.

    python3 child.py MODE CONFIG RESULT_JSON T_SPAWN [OUT_DIR SEED TRACE]

MODE is ``setup`` (import and parse only), ``run`` (one ``enslat.cli.run``)
or ``reference`` (the order-384 quadrature reference of the dimer, written
to OUT_DIR as a trajectory CSV).  T_SPAWN is the parent's ``time.monotonic()``
just before it started this process; CLOCK_MONOTONIC is shared by all
processes, so the set-up time counts interpreter start-up too.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    mode, config, result_path, t_spawn = argv[:4]
    import yaml
    import enslat.cli as cli

    with open(config) as fh:
        doc = yaml.safe_load(fh)
    base = os.path.dirname(os.path.abspath(config))
    spec = cli.parse_spec(doc, base)
    initial = cli.parse_initial(doc, spec, base)
    result = {"setup_s": time.monotonic() - float(t_spawn),
              "enslat": os.path.abspath(cli.__file__)}

    if mode == "reference":
        import numpy as np
        from enslat.oracle import OracleConfig, quad_average
        times = np.linspace(0.0, float(doc["time"]["t_max"]), int(doc["time"]["n_steps"]))
        ref = quad_average(spec, initial[1], times, OracleConfig(quad_order=384))
        with open(argv[4], "w") as fh:
            fh.write(cli.trajectory_csv(ref))
    elif mode == "run":
        out_dir, seed, trace = argv[4], int(argv[5]), argv[6] == "1"
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        res = cli.run(config, out_dir=out_dir, seed=seed)
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = res.exit_code
        result["outputs"] = res.outputs
        result["compare"] = res.manifest["result"].get("compare", [])
        if tracer is not None:
            depths = res.manifest["result"].get("accepted_depths", [0])
            result["trace"] = tracer.report(max(depths))
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = ru.ru_utime + ru.ru_stime
    result["peak_rss_mb"] = ru.ru_maxrss * 1024 / 1e6       # ru_maxrss is in KiB
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
