"""hardycalc: a numerical laboratory for the H-infinity-minus functional
calculus of exponentially stable matrix semigroups.

The package constructs g(A) for bounded-analytic symbols g on the open left
half-plane by three independent routes (the closed form in resolvents,
kernel convolution, and a discrete Toeplitz/FFT realization), computes admissibility
and exact-observability constants from observability Gramians, and
machine-checks a battery of operator inequalities at desk scale.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    admissibility,
    calculus,
    hardy,
    numkernel,
    report,
    semigroup,
    symbols,
    verifier,
)

__all__ = [
    "admissibility",
    "calculus",
    "hardy",
    "numkernel",
    "report",
    "semigroup",
    "symbols",
    "verifier",
]
