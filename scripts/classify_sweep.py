#!/usr/bin/env python3
"""Sweep random elements through the seven-case normalization.

Draws and classifies the Gaussian elements as the one-dim claim does
(claims.gaussian_sweep on default_rng(seed)); with --seed S --count 2000
these are exactly the elements of the claim's random sweep for seed S.
Reports how often each case tag occurs, how often the published recipes
suffice on their own, the worst residuals of the verified words (replayed
in batch) and the worst disagreement with the pitch v.w / |w|^2 of the
screw canonical form, all over whole arrays.

Usage: python scripts/classify_sweep.py [--count N] [--seed S]
"""

import argparse
import os
import time
from collections import Counter

# no matrix here has more than six columns, so BLAS threads would only spin;
# this must run before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from se3sym.claims import gaussian_sweep
from se3sym.optimal import ZERO_TOL


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a.b, summed in coordinate order as optimal.pitch_of sums."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    start = time.perf_counter()
    coords, batch = gaussian_sweep(np.random.default_rng(args.seed), args.count)
    mapped = batch.scale[:, None] * batch.replay(coords)
    worst_word = float(np.abs(mapped - batch.representatives).max())
    # the screw canonical form's pitch, taken of the element at unit scale
    unit = coords / np.abs(coords).max(axis=1)[:, None]
    v, w = unit[:, :3], unit[:, 3:]
    wsq = _dot3(w, w)
    screw = (np.sqrt(wsq) > ZERO_TOL) & (batch.b != 0)
    gaps = np.abs(1.0 / batch.b[screw] - _dot3(v, w)[screw] / wsq[screw])
    worst_pitch_gap = float(gaps.max()) if gaps.size else 0.0
    elapsed = time.perf_counter() - start

    print(f"elements                 {args.count}")
    for tag, count in sorted(Counter(batch.case_tags.tolist()).items()):
        print(f"case {tag}               {count}")
    print(f"geometric fallbacks      {int(batch.fallback.sum())}")
    print(f"max disallowed coord     {batch.disallowed.max():.3e}")
    print(f"max word residual        {worst_word:.3e}")
    print(f"max pitch disagreement   {worst_pitch_gap:.3e}")
    print(f"batch elapsed            {elapsed:.3f}s")


if __name__ == "__main__":
    main()
