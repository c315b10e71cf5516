#!/usr/bin/env python3
"""Scan codimension-one subspaces of se(3) for bracket closure.

Every hyperplane is the kernel of a covector lam; it is a subalgebra exactly
when lam ^ dlam = 0, with dlam(a, b) = -lam([a, b]).  For se(3) that is 19
quadrics in lam, and the residual of a covector is their largest absolute
value.  The scan walks a deterministic integer grid plus seeded random unit
directions and prints the smallest residual (a closed hyperplane would show
up as a residual near zero), next to the floor of 2/5 that the exact
certificate proves for every unit covector.  The grid reaches that floor; a
block of directions whose four diagonal quadrics all lie above the smallest
residual so far is ruled out without computing its residuals, so
"covectors per s" counts covectors ruled out or scanned.

Usage: python scripts/hyperplane_scan.py [--samples N] [--seed S]
"""

import argparse
import os
import time

# no matrix here has more than six columns, so BLAS threads would only spin;
# this must run before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from se3sym.optimal import hyperplane_certificate, hyperplane_scan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    start = time.perf_counter()
    scan = hyperplane_scan(args.samples, args.seed)
    elapsed = time.perf_counter() - start
    floor = hyperplane_certificate().residual_floor
    print(f"grid covectors       {scan.grid_points}")
    print(f"random covectors     {scan.random_samples}")
    print(f"min closure residual {scan.min_residual:.6f}")
    print(f"residual floor       {float(floor):.6f}")
    print(f"closed hyperplane    {'FOUND' if scan.found else 'none'}")
    print(f"elapsed              {elapsed:.2f}s")
    print(f"covectors per s      {(scan.grid_points + scan.random_samples) / elapsed:.0f}")
    if scan.found is not None:
        for generator in scan.found.generators:
            print(" ", generator)


if __name__ == "__main__":
    main()
