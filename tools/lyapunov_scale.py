"""Time and peak memory of one dense Lyapunov solve against its size, next
to the doubling Gramian that cross-checks it.

    python3 tools/lyapunov_scale.py [--src DIR] [--repeats 3] N [N ...]

For each N it draws `random_stable(N, 8)` and times `solve_lyapunov(A, I)`
(the sign iteration) and the Gramian of C = I by exact doubling
(`semigroup.gramian`), each best of --repeats, then repeats each once under
`tracemalloc` for its peak allocation, and reports the sign solve's
normwise backward error ||A^H Q + Q A + R||_F / (2 ||A||_F ||Q||_F + ||R||_F),
which `solve_lyapunov` gates at 1e-10, and
||Q_doubling - Q_sign||_2 / ||Q_sign||_2, the ratio that
`observability_gramian`'s cross-check gates.  --src chooses the hardycalc
source tree, so two checkouts can be compared; the tree must have the
public `semigroup.gramian`.  BLAS runs on one thread.  Prints one JSON
object per N.
"""

import argparse
import json
import os
import sys
import time
import tracemalloc


def _best_and_peak(run, repeats):
    """(result, best wall time of `repeats` calls, tracemalloc peak MiB)."""
    times = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - started)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, min(times), peak / 2 ** 20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sizes", nargs="+", type=int)
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads BLAS, just below
    sys.path.insert(0, args.src)
    import numpy as np
    from hardycalc import semigroup
    from hardycalc.numkernel import operator_norm, solve_lyapunov

    for n in args.sizes:
        gen = semigroup.random_stable(n, 8)
        A, R = gen.matrix, np.eye(n, dtype=complex)
        Q, solve_s, peak = _best_and_peak(lambda: solve_lyapunov(A, R),
                                          args.repeats)
        Qd, doubling_s, doubling_peak = _best_and_peak(
            lambda: semigroup.gramian(gen, R), args.repeats)
        residual = np.linalg.norm(A.conj().T @ Q + Q @ A + R)
        backward_error = residual / (2.0 * np.linalg.norm(A)
                                     * np.linalg.norm(Q) + np.linalg.norm(R))
        print(json.dumps({
            "n": n, "solve_s": solve_s, "peak_mib": peak,
            "relative_residual": float(residual / np.sqrt(n)),
            "backward_error": float(backward_error), "doubling_s": doubling_s,
            "doubling_peak_mib": doubling_peak,
            "doubling_rel_diff": operator_norm(Qd - Q) / operator_norm(Q)}),
            flush=True)


if __name__ == "__main__":
    main()
