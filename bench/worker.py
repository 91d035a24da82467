"""One benchmark process: set up a workload, run it once, check it.

    python3 bench/worker.py --workload NAME --seed N --mode setup|round|traced

`run.py` starts a fresh interpreter of this script for every set-up probe
and every round, so no module-level cache or per-generator memo of one
round can make the next one cheaper.  The process prints one JSON line:

* `ready_monotonic`: `time.monotonic()` when imports and configurations
  were ready; the parent subtracts its own clock reading at spawn time.
* for a round: `run_s` (wall time of the scenario calls), `peak_rss_mb`
  (peak resident memory at the end of the timed region), the verdict
  counts, and the independent checks made after the timed region.
* for a traced round: the per-layer metrics; the spans go to a file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _import_program():
    """Import hardycalc from this checkout's source tree, never from an
    installed copy."""
    sys.path.insert(0, SRC)
    import hardycalc
    import hardycalc.cli

    if not os.path.abspath(hardycalc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hardycalc imported from {hardycalc.__file__}, "
                          f"not from {SRC}")
    return hardycalc.cli


def _run_scenarios(cli, configs, tracer):
    """The timed region: one `cli.run` per scenario, stdout captured.
    Returns (run_s, reports by scenario, aborted scenarios, stdout)."""
    captured = io.StringIO()
    reports, aborted = {}, {}
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for name, config in configs:
            idx = tracer.open(f"cli.scenario.{name}") if tracer else None
            try:
                _, reports[name] = cli.run(config)
            except Exception:  # an aborted scenario fails all its checks
                aborted[name] = traceback.format_exc()
            finally:
                if tracer:
                    tracer.close(idx)
    run_s = time.perf_counter() - started
    return run_s, reports, aborted, captured.getvalue()


def _env_stamp():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads, "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round", "traced"),
                        required=True)
    args = parser.parse_args(argv)

    # set-up: interpreter (already done), imports, configurations
    from workloads import WORKLOADS

    cli = _import_program()
    configs = [(name, cli.ExperimentConfig(scenario=name, seed=args.seed,
                                           **extra))
               for name, extra, _ in WORKLOADS[args.workload]]
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    result = {"ready_monotonic": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    run_s, reports, aborted, stdout = _run_scenarios(cli, configs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:  # before the checks below add spans of their own
        result["layers"] = spans.layer_metrics(tracer, run_s)
        span_list = tracer.spans()

    import checks  # imports scipy, which the program does not use

    verdicts = checks.count_verdicts(args.workload, reports, aborted)
    disagreements = checks.independent(args.workload, args.seed, configs,
                                       reports)
    verdicts["failed"] += checks.failed_by_disagreement(
        reports, disagreements)
    result.update(run_s=run_s, peak_rss_mb=peak_rss_mb, **verdicts,
                  disagreements=disagreements, aborted=aborted,
                  env=_env_stamp())

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}")
    with open(f"{stem}_{args.mode}.log", "w") as fh:
        fh.write(stdout)
    if tracer:
        with open(f"{stem}_spans.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "run_s": run_s, "spans": span_list}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
