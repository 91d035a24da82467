"""hardycalc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload dense_checks|observability|fft_grid
                         [--seed 7] [--seconds 20] [--trace 0|1]

Every set-up probe and every round is a fresh interpreter (`worker.py`),
started one at a time, with BLAS and OpenMP pinned to one thread.  A run
first makes a warm-up probe (discarded) and SETUP_PROBES timed set-up
probes, then rounds until `--seconds` have passed (at least one round).

With `--trace 0` the metrics are the end-to-end ones: medians over the
run's processes of `run_s`, `setup_s` and `peak_rss_mb`.  With `--trace 1`
the run makes one untraced and one traced round and the metrics are the
per-layer ones; spans and metrics are written to `bench/out/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# The whole run must end within 180 s; no new round starts past this.
DEADLINE_S = 170.0

# One BLAS/OpenMP thread: the machine is small and shared, and a pinned
# thread count keeps the kernels' summation order fixed.  A fixed hash seed
# keeps every dict and set order, and so every traced count, repeatable.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def _spawn(workload, seed, mode, deadline):
    """Run one worker; returns its result with `setup_s` filled in."""
    env = {**os.environ, **PINNED_ENV}
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline -
                                                 time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process of {workload} passed the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process of {workload} exited with "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - started
    return result


def _check_checkout():
    init = os.path.join(ROOT, "src", "hardycalc", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no hardycalc source tree at {init}")


def run(workload, seed, seconds, trace):
    _check_checkout()
    deadline = time.monotonic() + DEADLINE_S
    _spawn(workload, seed, "setup", deadline)  # warm-up, discarded
    setups = [_spawn(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds = []
    began = time.monotonic()
    while not rounds or (not trace and time.monotonic() - began < seconds):
        rounds.append(_spawn(workload, seed, "round", deadline))
    if trace:
        rounds.append(_spawn(workload, seed, "traced", deadline))
    setups += [r["setup_s"] for r in rounds]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(not r["disagreements"] and not r["miscounted"]
                  for r in rounds)
    for r in rounds:
        for d in r["disagreements"]:
            print(f"disagreement: {d}", file=sys.stderr)
        for name, tb in r["aborted"].items():
            print(f"aborted {name}:\n{tb}", file=sys.stderr)

    if trace:
        untraced, traced = rounds
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        from spans import metric_names

        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_names()}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload}_seed{seed}_layers.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "untraced_run_s": untraced["run_s"],
                       "traced_run_s": traced["run_s"],
                       "env": traced["env"], "metrics": metrics}, fh,
                      indent=1)
    else:
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    env = rounds[-1]["env"]
    print(f"workload={workload} seed={seed} rounds={len(rounds)} "
          f"setup_probes={len(setups)} numpy={env['numpy']} "
          f"blas={env['blas']} nproc={env['nproc']} "
          f"threads={env['threads']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
