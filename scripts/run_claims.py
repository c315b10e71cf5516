#!/usr/bin/env python3
"""Run the full claims recomputation and write the JSON report.

Usage: python scripts/run_claims.py [--samples N] [--seed S] [--out FILE]
"""

import argparse
import os
import sys
from pathlib import Path

# no matrix here has more than six columns, so BLAS threads would only spin;
# this must run before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from se3sym.claims import claims_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=Path("claims_report.json"))
    args = parser.parse_args()

    report = claims_report(samples=args.samples, seed=args.seed)
    args.out.write_text(report.to_json())

    width = max(len(c.claim_id) for c in report.claims)
    for claim in report.claims:
        print(f"{claim.claim_id:<{width}}  {claim.status}")
    discrepancies = [c.claim_id for c in report.claims if c.status == "discrepancy"]
    print(f"\n{len(report.claims)} claims, {len(discrepancies)} discrepancies -> {args.out}")
    return 1 if discrepancies else 0


if __name__ == "__main__":
    sys.exit(main())
