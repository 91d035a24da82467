"""The benchmark's workloads: which scenarios each one runs, with which
configuration, and how many checks each scenario reports.

Every workload calls the public `hardycalc.cli.run` once per scenario.  The
seed goes to the program as the `seed` field of the configuration, exactly
as `hardycalc run --seed` would pass it; everything else is fixed here.
"""

from __future__ import annotations

# (scenario, extra configuration fields, checks it reports)
WORKLOADS = {
    # 100 seeded dissipative generators (n = 4, 8, 12, 16) plus three eq21
    # generators: many small dense eigenproblems, solves and Lyapunov
    # solves, and no quadrature, FFT or semigroup_bounds.
    "dense_checks": (
        ("von_neumann", {}, 100),
        ("eq21", {}, 3),
    ),
    # Theorem 3.3 on 20 seeded 8x8 stable generators plus the 16-mode
    # model, and the calculus axioms: semigroup_bounds, the Simpson-halving
    # convolution route and the dense Gramian cross-check.
    "observability": (
        ("thm33", {}, 21),
        ("calculus_axioms", {}, 4),
    ),
    # Scalar signals on a long grid and diagonal generators: the Toeplitz
    # FFT and its discrete multiplier.  The grid is refined through the
    # horizon (65536 samples of 2^-8), not through dt.
    "fft_grid": (
        ("toeplitz_properties", {"grid_n": 65536, "grid_dt": 2.0 ** -8}, 4),
        ("example26", {"modes": 256}, 5),
        ("thm34", {}, 1),
        ("analytic_lemma", {}, 1),
        ("eq26", {}, 1),
        ("square_function", {}, 1),
        ("extensions", {}, 1),
    ),
}

DEFAULT_SEED = 7


def checks_per_round(workload):
    return sum(expected for _, _, expected in WORKLOADS[workload])
