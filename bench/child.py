"""One benchmark process: import glperiod, run one CLI command, report.

Usage (started by run.py, one fresh process per run):

    python3 bench/child.py RESULT_JSON SPAWN_TIME TRACE RESIDUALS [CLI ARGS...]

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process; ``setup_s`` is the time from then until ``glperiod.cli`` is
imported. Without CLI ARGS the process only measures set-up. With TRACE = 1
the tracer wraps the layers before the command runs. The result file holds
the set-up and command wall times, the exit code, the iteration count of
every periodic solve the command made (with RESIDUALS = 1 also its equation
residual, computed after the timed call) and, when traced, the per-layer
metrics.
"""

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    result_path, spawn_time = sys.argv[1], float(sys.argv[2])
    trace, residuals = sys.argv[3] == "1", sys.argv[4] == "1"
    cli_args = sys.argv[5:]
    sys.path.insert(0, str(ROOT / "src"))
    import glperiod
    import glperiod.cli as cli
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_time
    result = {"setup_s": setup_s}
    if not cli_args:
        Path(result_path).write_text(json.dumps(result))
        return 0

    sys.path.insert(0, str(ROOT / "bench"))
    import tracer as tracing
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        result["trace_missing"] = tracer.missing

    # Result probe, on in every run: one wrapper call per periodic solve.
    solves = []
    solve = glperiod.periodic_solver.solve_periodic

    def probed_solve(g, op, *args, **kwargs):
        u, report = solve(g, op, *args, **kwargs)
        solves.append((report.iterations, (u, g, op) if residuals else None))
        return u, report

    tracing.rebind(solve, probed_solve)

    started = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 70
    wall_s = time.perf_counter() - started
    result.update(wall_s=wall_s, exit_code=code)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall_s)
    # Outside the timed region: the solver-independent certificate of each
    # solve, for commands that do not write it themselves.
    residual = glperiod.periodic_solver.equation_residual
    result["solves"] = [{"iterations": it,
                         "equation_residual": float(residual(*fields)) if fields else None}
                        for it, fields in solves]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
