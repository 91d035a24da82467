"""Shared fixtures.

The acceptance tests append one summary line per criterion; the terminal
summary hook replays them after the run so the pass/fail ledger is visible
in plain pytest output without -s.
"""

import json

import numpy as np
import pytest

pytest_plugins = ["pytester"]

ACCEPTANCE_LINES = []


@pytest.fixture
def criterion_line():
    """Record '[PASS/FAIL] criterion N: text' and assert on failure."""

    def _record(ok, num, text):
        tag = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"[{tag}] criterion {num}: {text}")
        assert ok, f"criterion {num}: {text}"

    return _record


@pytest.fixture(scope="session")
def all_runs(tmp_path_factory):
    """Two complete 'run --scenario all --seed 7' invocations with artifacts.

    Returns [(exit_code, out_dir, parsed_json), ...].  Session scoped: the
    runs cost about half a minute each and several criteria read them back.
    """
    from hardycalc import cli

    runs = []
    for k in (1, 2):
        out = tmp_path_factory.mktemp(f"all_run_{k}")
        code = cli.main(["run", "--scenario", "all", "--seed", "7",
                         "--json", "--csv", "--out", str(out)])
        payload = json.loads((out / "reports_all.json").read_text())
        runs.append((code, out, payload))
    return runs


def damped_string(M, a=1.0):
    """The damped wave equation u_tt + 2a u_t = u_xx on (0, 1) in modal
    energy coordinates: blockdiag([[0, n pi], [-n pi, -2a]]) for n = 1..M.
    Dissipative and non-normal, of dimension 2M, with frequencies up to
    M pi, so it is both stiff and oscillating."""
    from hardycalc.semigroup import Generator

    A = np.zeros((2 * M, 2 * M))
    for n in range(1, M + 1):
        A[2 * n - 2:2 * n, 2 * n - 2:2 * n] = [[0.0, n * np.pi],
                                                [-n * np.pi, -2.0 * a]]
    return Generator.dense(A)


def spiked(transpose=False):
    """-3I + 50 e_0 e_1^T on C^12, or its transpose: stable with spectral
    radius 3 but norm about 50.  The transpose swaps the sides A^H X and
    X A of the Gramian's start series, so a start step sized by a norm of
    one side only shows on one of the pair."""
    from hardycalc.semigroup import Generator

    A = -3.0 * np.eye(12)
    A[0, 1] = 50.0
    return Generator.dense(A.T if transpose else A)


def reports_by_name(payload):
    return {r["name"]: r for r in payload["reports"]}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
