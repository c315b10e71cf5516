#!/usr/bin/env python3
"""Sweep random elements through the seven-case normalization.

Classifies all elements in one batch and reports how often each case tag
occurs, how often the published recipes suffice on their own, the worst
residuals of the verified words (replayed in batch) and the worst
disagreement with the pitch of the screw canonical form.

Usage: python scripts/classify_sweep.py [--count N] [--seed S]
"""

import argparse
import time
from collections import Counter

import numpy as np

from se3sym.algebra import AlgebraElement
from se3sym.optimal import canonicalize_screw, classify_1d_many


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    start = time.perf_counter()
    coords = np.random.default_rng(args.seed).standard_normal((args.count, 6))
    batch = classify_1d_many(coords)
    mapped = batch.scale[:, None] * batch.replay(coords)
    worst_word = float(np.abs(mapped - batch.representatives).max())
    elapsed = time.perf_counter() - start
    worst_pitch_gap = 0.0
    for x, b in zip(coords, batch.b):
        form = canonicalize_screw(AlgebraElement.numeric(x))
        if form.kind == "screw" and b:
            worst_pitch_gap = max(worst_pitch_gap, abs(1.0 / b - form.pitch))

    print(f"elements                 {args.count}")
    for tag, count in sorted(Counter(batch.case_tags.tolist()).items()):
        print(f"case {tag}               {count}")
    print(f"geometric fallbacks      {int(batch.fallback.sum())}")
    print(f"max disallowed coord     {batch.disallowed().max():.3e}")
    print(f"max word residual        {worst_word:.3e}")
    print(f"max pitch disagreement   {worst_pitch_gap:.3e}")
    print(f"batch elapsed            {elapsed:.3f}s")


if __name__ == "__main__":
    main()
