"""Command line driver: scenarios, config precedence, exit codes, artifacts."""

import ast
import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardycalc import cli, hardy, scenarios, verifier
from hardycalc.cli import ConfigError, ExperimentConfig, list_scenarios, main, run

EXPECTED_ORDER = [
    "example26",
    "toeplitz_properties",
    "calculus_axioms",
    "resolvent_identity",
    "t0_bounds",
    "eq21",
    "thm33",
    "von_neumann",
    "thm34",
    "analytic_lemma",
    "eq26",
    "square_function",
    "extensions",
]


def _strip_runtime(doc):
    for rep in doc["reports"]:
        rep.pop("runtime_ms", None)
    return doc


class TestListing:
    def test_registry_order(self):
        assert list_scenarios().split("\n") == EXPECTED_ORDER

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n") == EXPECTED_ORDER

    def test_list_flag(self, capsys):
        assert main(["run", "--list"]) == 0
        assert "example26" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_scenario_is_3(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 3
        assert "unknown scenario" in capsys.readouterr().err

    def test_non_json_config_is_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26", "bogus_key": 1}))
        assert main(["run", "--config", str(p)]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_symbol_text_is_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "symbols": ["1/(2-s"]}))
        assert main(["run", "--config", str(p)]) == 2
        assert "1/(2-s" in capsys.readouterr().err

    def test_pole_group_symbol_is_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26",
                                 "symbols": ["1/((1-s)(3-s))"]}))
        assert main(["run", "--config", str(p)]) == 2
        assert "1/((1-s)(3-s))" in capsys.readouterr().err

    def test_deeply_nested_symbol_is_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26", "symbols": [
            "(" * 2000 + "1/(2-s)" + ")" * 2000]}))
        assert main(["run", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, None, "1/(2-s)"])
    def test_symbols_not_a_list_is_2(self, value, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26", "symbols": value}))
        assert main(["run", "--config", str(p)]) == 2
        assert "config error: symbols" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["json", "csv"])
    def test_flag_not_a_bool_is_2(self, key, tmp_path, capsys):
        # bool("false") is True, so the string turned writing on
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26", "out": str(tmp_path),
                                 key: "false"}))
        assert main(["run", "--config", str(p)]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not list(tmp_path.glob("reports_*"))

    @pytest.mark.parametrize("key,value", [
        ("out", 5), ("modes", 1.5), ("seed", True), ("seed", "7"),
        ("grid_n", 4096.0), ("grid_dt", "0.25"), ("grid_dt", False),
        ("scenario", 3), ("scenario", None)])
    def test_value_of_wrong_type_is_2(self, key, value, tmp_path, capsys):
        # out = 5 was a TypeError traceback; modes = 1.5 ran as 1 and
        # seed = true as seed 1
        doc = {"scenario": "example26", "json": True, "out": str(tmp_path)}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(doc, **{key: value})))
        assert main(["run", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {key} must be")
        assert captured.out == ""
        assert not list(tmp_path.glob("reports_*"))

    def test_null_out_and_integer_grid_dt_are_accepted(self, tmp_path,
                                                        monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "run",
                            lambda config: (configs.append(config), (0, []))[1])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"out": None, "grid_dt": 1}))
        assert main(["run", "--config", str(p)]) == 0
        assert configs[0].out is None and configs[0].grid_dt == 1.0

    def test_infinite_grid_dt_is_2(self, capsys):
        # inf > 0, so a bare positivity test let it through to a traceback
        assert main(["run", "--scenario", "toeplitz_properties",
                     "--grid-n", "64", "--grid-dt", "inf"]) == 2
        assert "config error: grid_dt" in capsys.readouterr().err

    def test_short_horizon_is_one_config_line_and_2(self, capsys):
        # a 0.064 horizon leaves the battery's kernel modes far above 1e-6
        # at its end; the grid is configuration, so this is not a traceback
        assert main(["run", "--scenario", "toeplitz_properties",
                     "--grid-n", "64", "--grid-dt", "0.001"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: horizon grid_n*grid_dt"
                                   " = 0.064 ")
        assert "a kernel mode of 1/(1-s) is still e^-0.064" in lines[0]
        assert "between grid points" not in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("grid_dt", [2.0 ** -8, 2.0 ** -6, 2.0 ** -4])
    def test_delay_past_a_signal_passes_the_guard(self, grid_dt, tmp_path,
                                                  capsys):
        # exp(12*s) shifts gauss(t-2) to roundoff: that output is judged
        # against its input's peak, not its own, and exp(24*s) past the
        # horizon of 16 must not wrap around the doubled window
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "grid_dt": grid_dt,
                                 "symbols": ["exp(12*s)"]}))
        assert main(["run", "--config", str(p)]) == 0
        assert "4 checks, 0 failed" in capsys.readouterr().out

    @pytest.mark.parametrize("delay,code", [(4, 2), (2, 0)])
    def test_grid_too_short_for_a_delayed_mode(self, delay, code, tmp_path,
                                               capsys):
        # after exp(4*s), the mode of 1/(1-s) has decayed only to e^-12 by
        # the horizon of 16: its wrapped tail is a floor above the 1e-6
        # gates, so the grid is a config error; after exp(2*s), e^-14 is not
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "symbols": [f"exp({delay}*s)", "1/(1-s)"]}))
        assert main(["run", "--config", str(p)]) == code
        captured = capsys.readouterr()
        if code:
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("config error: horizon grid_n*grid_dt"
                                       " = 16 ")
            assert "(exp(4*s))*(1/(1-s))" in lines[0]
            assert captured.out == ""
        else:
            assert "4 checks, 0 failed" in captured.out

    def _off_grid_line(self, symbol, tmp_path, capsys):
        """The one stderr line of a toeplitz_properties run on `symbol`,
        which must exit 2 with nothing on stdout."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "symbols": [symbol]}))
        assert main(["run", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        return line

    def test_offset_off_the_grid_is_named_and_2(self, tmp_path, capsys):
        # 0.3 is 76.8 steps of 2^-8, where the multiplier is a band-limited
        # shift, not a sample shift: the grid is refused before any FFT
        line = self._off_grid_line("exp(0.3*s)", tmp_path, capsys)
        assert line.startswith("config error: horizon grid_n*grid_dt = 16 ")
        assert line.endswith("exp(0.3*s) has an offset of 0.3 = 76.8 steps "
                             "of 0.00390625, between grid points")

    def test_mode_offset_off_the_grid_is_named_and_2(self, tmp_path, capsys):
        # the delayed mode used to pass the wraparound guard and FAIL
        # toeplitz_shift_commutation at 1.7e-6 on the band-limited ringing
        line = self._off_grid_line("(1/(1-s))*exp(0.3*s)", tmp_path, capsys)
        assert line.endswith("(1/(1-s))*(exp(0.3*s)) has an offset of 0.3 = "
                             "76.8 steps of 0.00390625, between grid points")

    def test_short_horizon_for_a_delayed_mode_is_still_named(self, tmp_path,
                                                             capsys):
        # an offset off the grid in the battery does not hide the decay
        # guard of exp(4*s) before 1/(1-s), which is judged first
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "symbols": ["exp(4*s)", "1/(1-s)",
                                             "exp(0.3*s)"]}))
        assert main(["run", "--config", str(p)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: horizon grid_n*grid_dt"
                                   " = 16 ")
        assert "a kernel mode of (exp(4*s))*(1/(1-s)) is still e^-12" \
            in lines[0]
        assert "between grid points" not in lines[0]

    def test_short_horizon_for_the_refinement_battery_is_named(
            self, tmp_path, capsys):
        # the battery 0.5 has no kernel mode, but the step-halving
        # refinement check runs a fixed battery of its own, whose mode
        # 1/(1-s) a horizon of 12.8 does not carry: the line says whose
        # symbol it is
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "symbols": ["0.5"], "grid_n": 1024,
                                 "grid_dt": 0.0125}))
        assert main(["run", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: horizon grid_n*grid_dt = 12.8 with grid_dt = "
            "0.0125 does not carry the check: the step-halving refinement "
            "check's own battery 1/(1-s), 1/(3-s), 0.4/(2-s) + 0.5 needs a "
            "longer horizon: a kernel mode of 1/(1-s) is still e^-12.8 of "
            "its peak at the horizon, above 1e-6"]

    def test_short_grid_for_resolvent_identity_is_one_config_line_and_2(
            self, capsys):
        # a horizon of 4 ends before the generators' decay horizon of 16;
        # gA_toeplitz's guard used to end in a ValueError traceback
        assert main(["run", "--scenario", "resolvent_identity",
                     "--grid-n", "16", "--grid-dt", "0.25"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: horizon grid_n*grid_dt = 4 ")
        assert "shorter than the decay horizon" in lines[0]
        assert captured.out == ""

    def test_grid_dt_not_dividing_half_is_one_config_line_and_2(
            self, tmp_path, capsys):
        # the shift check's tau = 0.5 is not a whole number of 0.3 steps;
        # this used to be a ValueError traceback from hardy.shift
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "grid_dt": 0.3,
                                 "symbols": ["1/(1-s)", "0.7"]}))
        assert main(["run", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "config error: horizon grid_n*grid_dt = 1228.8 with grid_dt = "
            "0.3 does not carry the check: the shift check shifts by 0.5 = "
            "1.66667 steps of 0.3, between grid points"]
        assert captured.out == ""

    def test_grid_dt_not_dividing_half_default_battery_is_2(self, capsys):
        # the 0.5 shift is named before the battery's Delay(0.5), and
        # before any FFT runs
        assert main(["run", "--grid-dt", "0.3"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith("the shift check shifts by 0.5 = 1.66667 "
                                 "steps of 0.3, between grid points")
        assert captured.out == ""

    def test_grid_dt_not_dividing_half_runs_other_scenarios(self, capsys):
        # only the Toeplitz check shifts by 0.5
        assert main(["run", "--scenario", "thm33", "--grid-dt", "0.3"]) == 0
        assert "21 checks, 0 failed" in capsys.readouterr().out

    def test_missing_config_file_is_2(self, capsys):
        assert main(["run", "--config", "/no/such/file.json"]) == 2
        capsys.readouterr()

    def test_bad_env_seed_is_2(self, monkeypatch, capsys):
        monkeypatch.setenv("HARDYCALC_SEED", "seven")
        assert main(["run", "--scenario", "example26"]) == 2
        capsys.readouterr()

    def test_passing_scenario_is_0(self, capsys):
        assert main(["run", "--scenario", "example26"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "[PASS]" in out


class TestArtifacts:
    def test_json_and_csv_written(self, tmp_path, capsys):
        code = main(["run", "--scenario", "example26", "--seed", "7",
                     "--json", "--csv", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads((tmp_path / "reports_example26.json").read_text())
        assert set(doc) == {"scenario", "seed", "env", "reports"}
        assert doc["scenario"] == "example26"
        assert doc["seed"] == 7
        names = [r["name"] for r in doc["reports"]]
        assert names == sorted(names)
        for rep in doc["reports"]:
            assert {"name", "bound_claimed", "bound_measured", "witness",
                    "tolerance", "pass", "runtime_ms",
                    "details"} <= set(rep)
        with open(tmp_path / "reports_example26.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "claimed", "measured", "pass"]
        assert len(rows) == len(doc["reports"]) + 1

    def test_json_stamps_the_environment(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        for name in ("MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                     "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert main(["run", "--scenario", "eq26", "--json",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        env = json.loads((tmp_path / "reports_eq26.json").read_text())["env"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": None,
                        "VECLIB_MAXIMUM_THREADS": None,
                        "NUMEXPR_NUM_THREADS": None}}
        assert env["blas"]["name"] and env["blas"]["version"]

    def test_run_deterministic(self, tmp_path, capsys):
        docs = []
        for k in range(2):
            out = tmp_path / f"run{k}"
            main(["run", "--scenario", "toeplitz_properties", "--seed", "7",
                  "--json", "--out", str(out)])
            capsys.readouterr()
            docs.append(_strip_runtime(json.loads(
                (out / "reports_toeplitz_properties.json").read_text())))
        assert docs[0] == docs[1]


class TestSeedPrecedence:
    def _seed_of(self, tmp_path, capsys, argv):
        code = main(argv + ["--json", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads((tmp_path / "reports_example26.json").read_text())
        return doc["seed"]

    def test_default_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HARDYCALC_SEED", raising=False)
        assert self._seed_of(tmp_path, capsys,
                             ["run", "--scenario", "example26"]) == 7

    def test_no_flags_give_the_dataclass_defaults(self, monkeypatch):
        monkeypatch.delenv("HARDYCALC_SEED", raising=False)
        configs = []
        monkeypatch.setattr(cli, "run",
                            lambda config: (configs.append(config), (0, []))[1])
        assert main([]) == 0
        assert configs == [ExperimentConfig()]

    def test_env_overrides_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARDYCALC_SEED", "11")
        assert self._seed_of(tmp_path, capsys,
                             ["run", "--scenario", "example26"]) == 11

    def test_config_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARDYCALC_SEED", "11")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26", "seed": 13}))
        assert self._seed_of(tmp_path, capsys,
                             ["run", "--config", str(p)]) == 13

    def test_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARDYCALC_SEED", "11")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "example26", "seed": 13}))
        assert self._seed_of(tmp_path, capsys,
                             ["run", "--config", str(p),
                              "--seed", "17"]) == 17


class TestCustomBattery:
    def test_two_symbol_battery(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "toeplitz_properties",
                                 "symbols": ["1/(1-s)", "0.7"],
                                 "json": True, "out": str(tmp_path)}))
        assert main(["run", "--config", str(p)]) == 0
        capsys.readouterr()
        doc = json.loads(
            (tmp_path / "reports_toeplitz_properties.json").read_text())
        mult = next(r for r in doc["reports"]
                    if r["name"] == "toeplitz_multiplicativity")
        assert mult["details"]["pairs"] == 3

    def test_zero_symbol_sweep_is_0(self, tmp_path, capsys):
        # the zero symbol is in H-infinity; a division by its bound used to
        # abort the sweep with "float division by zero"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"symbols": ["0.7", "0*(1/(1-s))"]}))
        assert main(["run", "--scenario", "all", "--config", str(p)]) == 0
        captured = capsys.readouterr()
        assert "147 checks, 0 failed" in captured.out
        assert captured.err == ""

    def test_refinement_on_fine_grid(self, capsys):
        # at dt = 2^-10 a base grid of grid_n/8 samples would already sit on
        # the truncation floor, and the residual ratio would read 0.86
        cfg = ExperimentConfig(scenario="toeplitz_properties", seed=7,
                               grid_n=16384, grid_dt=2.0 ** -10,
                               symbols=("1/(1-s)",))
        code, reports = run(cfg)
        capsys.readouterr()
        refine = next(r for r in reports if r.name == "toeplitz_refinement")
        assert refine.passed
        assert refine.bound_measured <= 0.25
        assert code == 0


class TestToeplitzBuildOnce:
    def test_each_multiplier_and_spectrum_built_once(self, monkeypatch,
                                                     capsys):
        builds = []
        # (window length, rows) of every numpy FFT call
        calls = {"fft": [], "ifft": []}
        build = hardy.discrete_multiplier

        def counting_build(krep, grid, out=None):
            builds.append((krep, grid))
            return build(krep, grid, out=out)

        def counting(name):
            transform = getattr(np.fft, name)

            def counted(a, *args, **kwargs):
                n = a.shape[kwargs.get("axis", -1)]
                calls[name].append((n, a.size // n))
                return transform(a, *args, **kwargs)
            return counted

        def transforms(name):
            out = {}
            for n, rows in calls[name]:
                out[n] = out.get(n, 0) + rows
            return out

        monkeypatch.setattr(hardy, "discrete_multiplier", counting_build)
        for name in calls:
            monkeypatch.setattr(np.fft, name, counting(name))
        code, reports = run(ExperimentConfig(scenario="toeplitz_properties",
                                             seed=7))
        capsys.readouterr()
        assert code == 0
        assert len(reports) == 4 and all(r.passed for r in reports)
        # main grid: 6 battery symbols and 20 products (the product of the
        # first two symbols is the third); each of the two refinement grids:
        # 3 symbols and 2 products
        assert len(builds) == 6 + 20 + 2 * (3 + 2)
        assert len(set(builds)) == len(builds)
        # every kernel is real on the grid, so the four real signals travel
        # two to a row and the complex one alone: 3 rows.  Forward DFTs,
        # keyed by doubled-window length.  Main grid (4096 samples): 3 rows,
        # 9 shifted rows, 18 output rows; each refinement grid (512 and 1024
        # samples): 3 rows and the outputs of 2 second factors
        assert transforms("fft") == {8192: 3 + 9 + 18, 1024: 9, 2048: 9}
        # inverse DFTs.  Main grid: 18 output rows M_{g_j} f, one per
        # product residual (21 pairs, 3 rows), 18 output rows and 54
        # shifted applications for the shift check.  Refinement grids: 6
        # output rows and 6 residual rows each.
        assert transforms("ifft") == {8192: 18 + 21 * 3 + 18 + 54,
                                      1024: 12, 2048: 12}
        assert sum(transforms("ifft").values()) == 177
        # every numpy call transforms one row, so numpy maps no multi-row
        # scratch: one call per transform counted above
        assert {name: [rows for _, rows in calls[name]] for name in calls} \
            == {"fft": [1] * 48, "ifft": [1] * 177}

    def test_each_kernel_built_once(self, monkeypatch, capsys):
        # `toeplitz_residuals` builds the kernels of the battery and its pair
        # products, 6 + 21 on the main grid and 3 + 2 on each refinement
        # grid, and every multiplier is built from one of them
        callers = []
        build = hardy.kernel

        def counting(g):
            callers.append(sys._getframe(1).f_code.co_name)
            return build(g)

        monkeypatch.setattr(hardy, "kernel", counting)
        code, _ = run(ExperimentConfig(scenario="toeplitz_properties",
                                       seed=7))
        capsys.readouterr()
        assert code == 0
        assert len(callers) == 6 + 21 + 2 * (3 + 2) == 37
        assert "discrete_multiplier" not in callers


class TestRunApi:
    def test_run_returns_reports(self, capsys):
        cfg = ExperimentConfig(scenario="example26", seed=7)
        code, reports = run(cfg)
        capsys.readouterr()
        assert code == 0
        assert reports and all(r.passed for r in reports)

    def test_run_unknown_scenario_raises(self, capsys):
        cfg = ExperimentConfig(scenario="nope", seed=7)
        with pytest.raises(cli.UnknownScenarioError):
            run(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cli._validate(ExperimentConfig(scenario="example26", seed=7,
                                           grid_n=100))


# (module, name) of every package import cli.py may make: the registry, the
# parser its validation needs, and the exceptions main maps to exit codes
CLI_IMPORTS = sorted([
    ("hardy", "WraparoundError"),
    ("numkernel", "ConvergenceError"),
    ("numkernel", "linalg_build"),
    ("scenarios", "SCENARIOS"),
    ("scenarios", "UnknownScenarioError"),
    ("scenarios", "run_scenario"),
    ("semigroup", "StabilityError"),
    ("symbols", "parse"),
])


class TestRegistry:
    @pytest.mark.parametrize("name", list(scenarios.SCENARIOS))
    def test_dispatch_runs_the_named_check(self, name, monkeypatch, capsys):
        # the table names its check and looks it up at call time, so a
        # rebinding of the verifier attribute (the benchmark's tracer) runs
        check_name = scenarios.SCENARIOS[name].check
        check, calls = getattr(verifier, check_name), []

        def counting(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(verifier, check_name, counting)
        code, reports = run(ExperimentConfig(scenario=name, seed=7))
        capsys.readouterr()
        assert code == 0 and reports
        assert calls

    def test_cli_holds_no_checks_and_imports_only_the_registry(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                  for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert "finish_report" not in called
        package, outside = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                package += [(node.module, a.name) for a in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([a.name for a in node.names]
                           if isinstance(node, ast.Import) else [node.module])
                outside += [m for m in modules if m.partition(".")[0]
                            not in sys.stdlib_module_names]
        assert sorted(package) == CLI_IMPORTS
        assert outside == []

    def test_import_starts_no_thread(self):
        # the Toeplitz check starts its second thread per walk, with the
        # `threading` module that numpy already imports: importing the
        # command starts none and loads no concurrent.futures (whose
        # logging import would cost set-up time)
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, threading; import hardycalc.cli; "
                "assert threading.active_count() == 1, threading.enumerate(); "
                "assert 'concurrent.futures' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], capture_output=True,
                       timeout=60, check=True,
                       env=dict(os.environ, PYTHONPATH=src))
