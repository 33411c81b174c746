"""The benchmark's set-up step: pin native thread pools to one thread, import
tokensched from the checkout's `src/` and solve one tiny LP so HiGHS is loaded
and warm.

Run as a script, it prints the seconds the step took, so the benchmark can
time set-up in fresh processes:  python3 bench/setup_probe.py
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def setup() -> float:
    """Import tokensched and solve a first tiny flow LP; return the seconds taken.

    Raises ImportError when the checkout has no `src/tokensched`, so the
    benchmark refuses to run against any other copy of the package.
    """
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "tokensched", "__init__.py")):
        raise ImportError(f"no tokensched package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tokensched
    from tokensched import approx, generators

    if os.path.dirname(os.path.dirname(os.path.abspath(tokensched.__file__))) != SRC:
        raise ImportError(f"tokensched was imported from {tokensched.__file__}, not {SRC}")
    g = generators.path_graph(3)
    approx.solve_flow_lp(approx.build_flow_lp(g, (0, 2), 2))
    return time.perf_counter() - t0


if __name__ == "__main__":
    pin_threads()
    print(repr(setup()))
