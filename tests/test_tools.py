"""Smoke tests of the scripts under tools/, and the report stability that
`report_diff.py` relies on."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hardycalc import cli, hardy, verifier

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_lyapunov_scale_prints_one_json_line():
    out = subprocess.run(
        [sys.executable, str(TOOLS / "lyapunov_scale.py"), "--repeats", "1",
         "4"], capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"n", "solve_s", "peak_mib", "relative_residual",
                        "backward_error", "doubling_s", "doubling_peak_mib",
                        "doubling_rel_diff"}
    assert row["n"] == 4
    assert row["relative_residual"] <= 1e-10
    assert row["backward_error"] <= 1e-10
    assert row["doubling_rel_diff"] <= 1e-10


def _report(name, measured, passed=True, witness="w", runtime=1.0):
    return {"name": name, "bound_claimed": 1.0, "bound_measured": measured,
            "witness": witness, "tolerance": 1e-6, "pass": passed,
            "runtime_ms": runtime, "details": {"per_state": [measured, 2.0]}}


def _report_diff(tmp_path, old, new, envs=({}, {})):
    paths = []
    for label, reports, env in (("old", old, envs[0]), ("new", new, envs[1])):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"scenario": "all", "seed": 7, "env": env,
                                    "reports": reports}))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(TOOLS / "report_diff.py"), *paths],
        capture_output=True, text=True, timeout=60)


def test_report_diff_lists_moved_fields_and_ignores_runtime(tmp_path):
    out = _report_diff(tmp_path, [_report("a", 0.5), _report("b", 0.25)],
                       [_report("a", 0.5, runtime=9.0),
                        _report("b", 0.2500001)])
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "b bound_measured: 0.25 -> 0.2500001  rel +4e-07",
        "b details.per_state[0]: 0.25 -> 0.2500001  rel +4e-07"]


def test_report_diff_reads_the_reports_only(tmp_path):
    # two machines' artifacts differ in their env stamp, not in a report
    envs = ({"numpy": "2.4.6", "threads": {"OMP_NUM_THREADS": None}},
            {"numpy": "2.5.0", "threads": {"OMP_NUM_THREADS": "1"}})
    out = _report_diff(tmp_path, [_report("a", 0.5)], [_report("a", 0.5)],
                       envs)
    assert out.returncode == 0 and out.stdout == ""


@pytest.mark.parametrize("new", [
    [_report("a", 0.5, passed=False), _report("b", 0.25)],
    [_report("a", 0.5, witness="v"), _report("b", 0.25)],
    [_report("a", 0.5)]])
def test_report_diff_fails_on_verdict_witness_or_names(tmp_path, new):
    out = _report_diff(tmp_path, [_report("a", 0.5), _report("b", 0.25)], new)
    assert out.returncode == 1
    assert out.stdout


@pytest.mark.parametrize("content", [None, "{\"seed\": 7}", "not json"],
                         ids=["missing", "no reports", "not json"])
def test_report_diff_unreadable_input_is_2(tmp_path, content):
    # 1 means a verdict or witness moved; a bad input must not read as that
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"reports": [_report("a", 0.5)]}))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    out = subprocess.run(
        [sys.executable, str(TOOLS / "report_diff.py"), str(good), str(bad)],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    [line] = out.stderr.splitlines()
    assert line.startswith("report_diff: ") and str(bad) in line


def test_witnesses_survive_rounding(tmp_path, monkeypatch, capsys):
    # a relative change of 1e-15 in every convolution g(A) is rounding:
    # no witness may move with it, so report_diff exits 0
    def sweep():
        reports = []
        for name in ("calculus_axioms", "resolvent_identity"):
            reports += cli.run(cli.ExperimentConfig(scenario=name, seed=7))[1]
        capsys.readouterr()
        return [r.to_json_dict() for r in reports]

    old = sweep()
    convolve = verifier.gA_convolution
    monkeypatch.setattr(verifier, "gA_convolution", lambda gen, symbols: [
        dataclasses.replace(out, matrix=(1.0 + 1e-15) * out.matrix)
        for out in convolve(gen, symbols)])
    new = sweep()
    assert [r["witness"] for r in new] == [r["witness"] for r in old]
    out = _report_diff(tmp_path, old, new)
    assert out.returncode == 0, out.stdout


def test_toeplitz_witnesses_survive_rounding(tmp_path, monkeypatch, capsys):
    # a relative change of 1e-15 in every Toeplitz output M_g f is rounding:
    # no witness may move with it, so report_diff exits 0
    def sweep():
        reports = cli.run(cli.ExperimentConfig(scenario="toeplitz_properties",
                                               seed=7))[1]
        capsys.readouterr()
        return [r.to_json_dict() for r in reports]

    old = sweep()
    apply = hardy._apply_multiplier

    def scaled(spectra, m, out=None):
        outs = apply(spectra, m, out=out)
        outs *= 1.0 + 1e-15
        return outs

    monkeypatch.setattr(hardy, "_apply_multiplier", scaled)
    new = sweep()
    assert [r["bound_measured"] for r in new] != \
        [r["bound_measured"] for r in old]
    out = _report_diff(tmp_path, old, new)
    assert out.returncode == 0, out.stdout
