"""Acceptance gate: twelve criteria, one test and one summary line each.

Criteria 1, 2, and 10's analytic pieces are computed directly; the rest
read back the JSON artifacts of two full seeded runs (session fixture), so
the same numbers the command line reports are the numbers being judged.
"""

import json
import math

import numpy as np

from conftest import reports_by_name
from hardycalc.admissibility import observability_gramian, sqrt_t_bound_scan
from hardycalc.numkernel import operator_norm
from hardycalc.semigroup import evaluate_T, example26


def test_criterion_01_gramian_constants(criterion_line):
    gen, C = example26(64)
    rep = observability_gramian(gen, C)
    ok = (abs(rep.m_admissible - 0.5) <= 1e-10
          and abs(rep.m_exact - 0.5) <= 1e-10
          and rep.quadrature_rel_error <= 1e-4)
    criterion_line(
        ok, 1,
        f"observability constants of the 64-mode reference model are "
        f"m_admissible={rep.m_admissible:.12g}, m_exact={rep.m_exact:.12g} "
        f"(target 0.5 within 1e-10), quadrature cross-check "
        f"{rep.quadrature_rel_error:.3g} <= 1e-4")


def test_criterion_02_sharpness(criterion_line):
    gen, C = example26(64)
    worst_eq = 0.0
    min_floor = math.inf
    for n in (1, 2, 4, 8):
        t = 1.0 / (n * n)
        Tt = evaluate_T(gen, t)
        phi = np.zeros(64, dtype=complex)
        phi[n - 1] = 1.0
        val = float(np.linalg.norm(C @ (Tt @ phi)))
        worst_eq = max(worst_eq, abs(val - n * math.exp(-1.0)))
        min_floor = min(min_floor, math.sqrt(t) * operator_norm(C @ Tt))
    _, [scan] = sqrt_t_bound_scan(gen, [C], np.concatenate(
        [np.geomspace(1e-6, 10.0, 200), [1.0, 0.25, 1.0 / 16, 1.0 / 64]]))
    measured = float(np.max(scan))
    ok = (worst_eq <= 1e-9
          and min_floor >= math.exp(-1.0) - 1e-9
          and measured <= math.sqrt(0.5))
    criterion_line(
        ok, 2,
        f"peak-time values match n/e within {worst_eq:.3g} (<= 1e-9), "
        f"sqrt(t)||C T(t)|| >= 1/e at every peak "
        f"(min {min_floor:.10g}), global sup {measured:.10g} <= sqrt(1/2)")


def test_criterion_03_resolvent_identity(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    per_seed = reps["resolvent_identity_convolution"]["details"]["per_seed"]
    conv_worst = max(v[0] for v in per_seed.values())
    toep_worst = max(v[1] for v in per_seed.values())
    ok = (len(per_seed) == 10
          and conv_worst <= 1e-7 and toep_worst <= 1e-3)
    criterion_line(
        ok, 3,
        f"g(A) vs (2I-A)^(-1) over 10 seeded 8x8 generators: convolution "
        f"route off by {conv_worst:.3g} (<= 1e-7), sampled-kernel route by "
        f"{toep_worst:.3g} (<= 1e-3)")


def test_criterion_04_toeplitz_properties(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    mult = reps["toeplitz_multiplicativity"]
    shift = reps["toeplitz_shift_commutation"]
    norm = reps["toeplitz_norm_bound"]
    refine = reps["toeplitz_refinement"]
    ok = (mult["bound_measured"] <= 1e-6
          and mult["details"]["pairs"] == 21
          and mult["details"]["signals"] == 5
          and shift["bound_measured"] <= 1e-6
          and norm["bound_measured"] <= 1.0 + 1e-6
          and refine["bound_measured"] <= 0.25)
    criterion_line(
        ok, 4,
        f"convolution-operator laws over 6 symbols x 5 signals: "
        f"multiplicativity {mult['bound_measured']:.3g} and shift "
        f"commutation {shift['bound_measured']:.3g} (<= 1e-6), norm ratio "
        f"{norm['bound_measured']:.8g} (<= 1+1e-6), step-halving residual "
        f"ratio {refine['bound_measured']:.3g} (<= 0.25)")


def test_criterion_05_calculus_axioms(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    names = [n for n in reps if n.startswith("calculus_axioms[")]
    worst = max(reps[n]["bound_measured"] for n in names)
    ok = (len(names) == 4 and worst <= 1e-9
          and all(reps[n]["pass"] for n in names))
    criterion_line(
        ok, 5,
        f"calculus identities (unit, atom, products) on the 16-mode model "
        f"and 3 seeded dense generators: worst residual {worst:.3g} "
        f"(<= 1e-9 across {len(names)} generators)")


def test_criterion_06_von_neumann(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    names = [n for n in reps if n.startswith("cor33a[")]
    worst = max(reps[n]["bound_measured"] for n in names)
    gram_worst = max(reps[n]["details"]["gramian_identity_residual"]
                     for n in names)
    ok = len(names) == 100 and worst <= 1.0 + 1e-6 and gram_worst <= 1e-8
    criterion_line(
        ok, 6,
        f"contractivity on {len(names)} dissipative generators (N <= 16): "
        f"worst folded slack {worst:.8g} (<= 1+1e-6), worst identity-"
        f"Gramian residual {gram_worst:.3g} (<= 1e-8)")


def test_criterion_07_observability_bound(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    names = [n for n in reps if n.startswith("thm33[stable8_")]
    worst = max(reps[n]["bound_measured"] for n in names)
    ok = len(names) == 20 and worst <= 1.0 + 1e-6
    criterion_line(
        ok, 7,
        f"||g(A)|| against sqrt(m_adm/m_exact)||g|| with C = I on "
        f"{len(names)} seeded stable generators: worst ratio {worst:.8g} "
        f"(<= 1+1e-6)")


def test_criterion_08_resolvent_smoothing(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    names = [n for n in reps if n.startswith("eq21[")]
    worst = max(reps[n]["bound_measured"] for n in names)
    ok = len(names) == 3 and worst <= 1.0 + 1e-6
    criterion_line(
        ok, 8,
        f"sqrt(Re s)||g(A)(sI-A)^(-1)|| <= ||g|| over the 15-point "
        f"half-plane grid, 3 generator families: worst ratio {worst:.8g} "
        f"(<= 1+1e-6)")


def test_criterion_09_sqrt_t_bounds(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    names = [n for n in reps if n.startswith("T0[")]
    worst = max(reps[n]["bound_measured"] for n in names)
    ok = len(names) == 3 and worst <= 1.0 + 1e-4
    criterion_line(
        ok, 9,
        f"sqrt(t)||g(A)T(t)|| and lambda_max(Q_g) bounds on 3 generator "
        f"families: worst slack {worst:.8g} (<= 1+1e-4)")


def test_criterion_10_diagonal_model_checks(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    thm34 = reps["thm34"]
    ana = reps["analytic_lemma"]
    eq26 = reps["eq26"]
    square = reps["square_function"]
    ok = (thm34["pass"] and eq26["pass"]
          and ana["bound_measured"] <= math.exp(-1.0) + 1e-9
          and square["bound_measured"] <= 1e-6)
    criterion_line(
        ok, 10,
        f"32-mode model: splitting bound holds, sup t||A T(t)|| = "
        f"{ana['bound_measured']:.12g} (<= 1/e + 1e-9), halved-time "
        f"observability holds, square-function identity off by "
        f"{square['bound_measured']:.3g} (<= 1e-6)")


def test_criterion_11_extensions(criterion_line, all_runs):
    reps = reports_by_name(all_runs[0][2])
    ext = reps["extensions_agree"]
    ok = ext["bound_measured"] <= 1e-6 and ext["pass"]
    criterion_line(
        ok, 11,
        f"Lebesgue-set and resolvent-scaling extensions agree with C "
        f"within {ext['bound_measured']:.3g} (<= 1e-6) on the 16-mode "
        f"model")


def test_criterion_12_determinism(criterion_line, all_runs):
    def canon(payload):
        doc = json.loads(json.dumps(payload))
        for rep in doc["reports"]:
            rep.pop("runtime_ms", None)
        return doc

    (code1, out1, doc1), (code2, out2, doc2) = all_runs
    csv1 = (out1 / "reports_all.csv").read_text()
    csv2 = (out2 / "reports_all.csv").read_text()
    ok = (code1 == 0 and code2 == 0
          and canon(doc1) == canon(doc2) and csv1 == csv2)
    criterion_line(
        ok, 12,
        f"two complete seed-7 runs exit 0 with identical artifacts "
        f"({len(doc1['reports'])} reports, timing fields excluded)")
