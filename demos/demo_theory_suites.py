"""Run the theory property suites the library is built on.

Four deterministic suites check the facts the solvers rely on — the
clique-number formula for the simplex maximum, rounding monotonicity,
tightness at loading 1 with a strict gap below it, and the absence of
fractional local maxima above loading 1.  The ``dks verify`` subcommand
wraps the same suites; this script calls them directly with small,
quick parameters.
"""

import sys
import time

from dks.verify import run_suites


def main() -> int:
    """Print each suite's summary; exit status 1 if any suite failed."""
    names = ["motzkin", "rounding", "tightness", "landscape"]
    print("running the property suites (max_n=4, seed=0, quick settings)\n")
    passed = True
    for name in names:
        t0 = time.perf_counter()
        (result,) = run_suites([name], max_n=4, seed=0)
        elapsed = time.perf_counter() - t0
        print(f"{result.summary()}   [{elapsed:.1f}s]")
        passed = passed and result.passed
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
