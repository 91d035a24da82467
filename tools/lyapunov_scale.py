"""Time and peak memory of one dense Lyapunov solve against its size.

    python3 tools/lyapunov_scale.py [--src DIR] [--repeats 3] N [N ...]

For each N it draws the matrix of `random_stable(N, 8)` and times
`solve_lyapunov(A, I)` (best of --repeats), then repeats the solve once
under `tracemalloc` for its peak allocation.  --src chooses the hardycalc
source tree, so two checkouts can be compared.  BLAS runs on one thread.
Prints one JSON object per N.
"""

import argparse
import json
import os
import sys
import time
import tracemalloc


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
    from hardycalc.numkernel import solve_lyapunov
    from hardycalc.semigroup import random_stable

    for n in args.sizes:
        A = random_stable(n, 8).matrix
        R = np.eye(n, dtype=complex)
        times = []
        for _ in range(max(1, args.repeats)):
            started = time.perf_counter()
            Q = solve_lyapunov(A, R)
            times.append(time.perf_counter() - started)
        tracemalloc.start()
        try:
            solve_lyapunov(A, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        residual = np.linalg.norm(A.conj().T @ Q + Q @ A + R) / np.sqrt(n)
        print(json.dumps({"n": n, "solve_s": min(times),
                          "peak_mib": peak / 2 ** 20,
                          "relative_residual": float(residual)}), flush=True)


if __name__ == "__main__":
    main()
