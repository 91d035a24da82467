"""Command line driver: parses flags, the config file and HARDYCALC_SEED,
validates the configuration, dispatches through the scenario registry of
`scenarios`, prints one verdict line per report, and writes the JSON/CSV
artifacts.  The checks themselves live in `verifier`.

Exit codes: 0 all pass, 1 check failure, 2 malformed configuration (a
value of the wrong JSON type, a grid too short for the wraparound or
decay-horizon guard, a shift, point mass or mode offset between grid
points), 3 unknown scenario.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import sys
from dataclasses import dataclass

from .hardy import WraparoundError
from .numkernel import ConvergenceError, linalg_build
from .scenarios import SCENARIOS, UnknownScenarioError, run_scenario
from .semigroup import StabilityError
from .symbols import parse

__all__ = ["ConfigError", "ExperimentConfig", "list_scenarios", "main", "run"]


class ConfigError(ValueError):
    """Malformed configuration (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "all"
    seed: int = 7
    modes: int = 64
    grid_n: int = 4096
    grid_dt: float = 2.0 ** -8
    out: str | None = None
    write_json: bool = False
    write_csv: bool = False
    symbols: tuple = ()


# the exact decoded JSON types of each config value besides symbols, so
# that true is no integer; json.load makes no subclass instances
_INTEGER, _FLAG = ((int,), "an integer"), ((bool,), "true or false")
_CONFIG_TYPES = {"scenario": ((str,), "a string"), "seed": _INTEGER,
                 "modes": _INTEGER, "grid_n": _INTEGER,
                 "grid_dt": ((int, float), "a number"),
                 "out": ((str, type(None)), "a string or null"),
                 "json": _FLAG, "csv": _FLAG}


def _validate(config):
    if config.modes < 1:
        raise ConfigError("modes must be >= 1")
    n = config.grid_n
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigError("grid_n must be a power of two, >= 8")
    if not (math.isfinite(config.grid_dt) and config.grid_dt > 0):
        raise ConfigError("grid_dt must be positive and finite")
    for text in config.symbols:
        try:
            parse(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad symbol {text!r}: {exc}") from exc


# the thread-count variables of OpenMP and the BLAS builds numpy may load
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                     "NUMEXPR_NUM_THREADS")


def _environment():
    """The Python version, the numpy and BLAS builds and the thread
    variables (None when unset) that a run's numbers came from."""
    return {"python": platform.python_version(), **linalg_build(),
            "threads": {k: os.environ.get(k) for k in _THREAD_VARIABLES}}


def list_scenarios():
    """Registry names, one per line, in stable registration order."""
    return "\n".join(SCENARIOS)


def run(config):
    """Execute the configured scenario(s); returns (exit_code, reports)."""
    _validate(config)
    names = list(SCENARIOS) if config.scenario == "all" else [config.scenario]
    reports = []
    for nm in names:
        reports.extend(run_scenario(nm, config))
    reports.sort(key=lambda r: r.name)
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: measured={r.bound_measured:.6g} "
              f"claimed={r.bound_claimed:.6g} tol={r.tolerance:g}")
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports)} checks, {failed} failed")
    if config.write_json or config.write_csv:
        outdir = config.out or "."
        os.makedirs(outdir, exist_ok=True)
        stem = os.path.join(outdir, f"reports_{config.scenario}")
        if config.write_json:
            doc = {"scenario": config.scenario, "seed": config.seed,
                   "env": _environment(),
                   "reports": [r.to_json_dict() for r in reports]}
            with open(stem + ".json", "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        if config.write_csv:
            with open(stem + ".csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["name", "claimed", "measured", "pass"])
                for r in reports:
                    writer.writerow(r.csv_row())
    return (0 if failed == 0 else 1), reports


def _config_from_args(args):
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = sorted(set(doc) - set(_CONFIG_TYPES) - {"symbols"})
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for key, (kinds, what) in _CONFIG_TYPES.items():
            if key in doc and type(doc[key]) not in kinds:
                raise ConfigError(f"{key} must be {what}")
    defaults = ExperimentConfig()
    env_seed = os.environ.get("HARDYCALC_SEED")
    if env_seed is not None:
        try:
            defaults = dataclasses.replace(defaults, seed=int(env_seed))
        except ValueError as exc:
            raise ConfigError("HARDYCALC_SEED must be an integer") from exc

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        return doc.get(key, getattr(defaults, key))

    symbols = doc.get("symbols", defaults.symbols)
    if not isinstance(symbols, (list, tuple)) or not all(
            isinstance(s, str) for s in symbols):
        raise ConfigError("symbols must be a list of strings")
    try:
        return ExperimentConfig(
            scenario=str(pick(args.scenario, "scenario")),
            seed=int(pick(args.seed, "seed")),
            modes=int(pick(args.modes, "modes")),
            grid_n=int(pick(args.grid_n, "grid_n")),
            grid_dt=float(pick(args.grid_dt, "grid_dt")),
            out=pick(args.out, "out"),
            write_json=args.json or doc.get("json", defaults.write_json),
            write_csv=args.csv or doc.get("csv", defaults.write_csv),
            symbols=tuple(symbols),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hardycalc",
        description="numerical verification scenarios for the half-plane "
                    "functional calculus")
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "list"))
    parser.add_argument("--scenario", default=None)
    parser.add_argument("--config", default=None, metavar="PATH")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--modes", type=int, default=None)
    parser.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    parser.add_argument("--grid-dt", type=float, default=None, dest="grid_dt")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--csv", action="store_true")
    parser.add_argument("--list", action="store_true", dest="list_flag",
                        help="list scenario names and exit")
    args = parser.parse_args(argv)
    if args.command == "list" or args.list_flag:
        print(list_scenarios())
        return 0
    try:
        config = _config_from_args(args)
        code, _ = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WraparoundError as exc:
        print(f"config error: horizon grid_n*grid_dt = "
              f"{config.grid_n * config.grid_dt:g} with grid_dt = "
              f"{config.grid_dt:g} does not carry the check: {exc}",
              file=sys.stderr)
        return 2
    except UnknownScenarioError as exc:
        print(f"{exc}; see 'hardycalc list'", file=sys.stderr)
        return 3
    except (ArithmeticError, ConvergenceError, StabilityError) as exc:
        print(f"check aborted: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
