"""The scenario registry: one table row per scenario, naming its labelled
inputs, its symbol battery and the `verifier` check that it runs.

`run_scenario` looks each check up by name on the `verifier` module when
the scenario runs, never at import, so a rebinding of the module attribute
(a tracing or counting wrapper) is what runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import verifier
from .hardy import GridSpec
from .semigroup import example26, random_dissipative, random_stable
from .symbols import Constant, Delay, add, atom, multiply, parse

__all__ = ["SCENARIOS", "Scenario", "UnknownScenarioError", "run_scenario"]


class UnknownScenarioError(ValueError):
    """Scenario name not in the registry (exit code 3)."""


def _battery(cfg):
    """Default six-symbol battery; overridden by config symbol strings."""
    if cfg.symbols:
        return tuple(parse(s) for s in cfg.symbols)
    return (atom(1.0, 1.0),
            atom(1.0, 3.0),
            multiply(atom(1.0, 1.0), atom(1.0, 3.0)),
            Delay(0.5),
            Constant(0.7),
            add(atom(0.4, 2.0), Constant(0.5)))


_CALCULUS_BATTERY = (atom(1.0, 1.0), atom(1.0, 2.0),
                     multiply(atom(1.0, 1.0), atom(1.0, 3.0)),
                     Delay(0.3), Constant(0.7))


def _grid(cfg):
    return GridSpec(cfg.grid_n, cfg.grid_dt)


def _once(*args):
    return [(None, args)]


def _model(n):
    return f"example26_{n}", (example26(n)[0],)


def _seeded(kind, n, seed):
    sampler = random_stable if kind == "stable" else random_dissipative
    return f"{kind}{n}_seed{seed}", (sampler(n, seed),)


def _model32(cfg):
    return _once(example26(32)[0])


def _thm33_inputs(cfg):
    yield "example26_16", example26(16)
    eye = np.eye(8, dtype=complex)
    for k in range(1, 21):
        label, (gen,) = _seeded("stable", 8, cfg.seed + k)
        yield label, (gen, eye)


def _von_neumann_inputs(cfg):
    for k in range(100):
        n, seed = (4, 8, 12, 16)[k % 4], cfg.seed + k
        yield f"n{n:02d}_seed{seed}", (random_dissipative(n, seed),)


@dataclass(frozen=True)
class Scenario:
    """One registry row.  `inputs(cfg)` gives (label, args) pairs; the
    verifier check named `check` runs as check(*args, battery(cfg)), or
    check(*args) without a battery, and a labelled report is renamed
    `<report name>[<label>]`."""

    name: str
    check: str
    inputs: Callable
    battery: Callable | None = None


SCENARIOS = {s.name: s for s in (
    Scenario("example26", "check_example26",
             lambda cfg: _once(*example26(cfg.modes))),
    Scenario("toeplitz_properties", "check_toeplitz",
             lambda cfg: _once(_grid(cfg)), _battery),
    Scenario("calculus_axioms", "check_calculus_pairs",
             lambda cfg: [_model(16)] + [_seeded("stable", 8, cfg.seed + k)
                                         for k in (1, 2, 3)],
             lambda cfg: _CALCULUS_BATTERY),
    Scenario("resolvent_identity", "check_resolvent_identity",
             lambda cfg: _once(((seed, random_stable(8, seed)) for seed
                                in range(cfg.seed + 1, cfg.seed + 11)),
                               _grid(cfg))),
    Scenario("t0_bounds", "check_T0",
             lambda cfg: [_model(16), _seeded("stable", 8, cfg.seed + 1),
                          _seeded("dissipative", 8, cfg.seed + 2)],
             _battery),
    Scenario("eq21", "check_eq21",
             lambda cfg: [_model(16), _seeded("stable", 8, cfg.seed + 1),
                          _seeded("dissipative", 12, cfg.seed + 2)],
             _battery),
    Scenario("thm33", "check_thm33", _thm33_inputs, _battery),
    Scenario("von_neumann", "check_cor33a", _von_neumann_inputs, _battery),
    Scenario("thm34", "check_thm34", _model32, _battery),
    Scenario("analytic_lemma", "check_analytic_lemma", _model32),
    Scenario("eq26", "check_eq26", _model32),
    Scenario("square_function", "check_square_function", _model32),
    Scenario("extensions", "check_extensions",
             lambda cfg: _once(*example26(16))),
)}


def run_scenario(name, cfg):
    """The reports of one registered scenario, in the order its check makes
    them; raises UnknownScenarioError for a name not in SCENARIOS."""
    if name not in SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario {name!r}")
    entry = SCENARIOS[name]
    check = getattr(verifier, entry.check)
    battery = () if entry.battery is None else (entry.battery(cfg),)
    reports = []
    for label, args in entry.inputs(cfg):
        out = check(*args, *battery)
        for rep in (out if isinstance(out, list) else [out]):
            if label is not None:
                rep = dataclasses.replace(rep, name=f"{rep.name}[{label}]")
            reports.append(rep)
    return reports
