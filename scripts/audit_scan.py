#!/usr/bin/env python3
"""Scan mechanisms for profitable misreports across curve shapes.

For each (mechanism, curve kind, audit dimension) cell, audits a batch of
random instances under frozen coin draws and reports how many instances
admit a profitable lie, plus the worst gain seen. Linear curves keep the
extraction auctions honest; hard caps and steep piecewise kinks open
ask-shading and capacity-underreport opportunities because the per-unit
offer (R(k) - P)/k can shrink as the buy grows.

Usage:
    python scripts/audit_scan.py --instances 200 [--qmax 5]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from procure.simulation import audit_truthfulness, generate


def scan_cell(mechanism, curve, dims, instances, qmin, qmax):
    dirty = 0
    worst = 0.0
    tested = 0
    for seed in range(instances):
        rng = random.Random(f"scan-{mechanism}-{curve}-{seed}")
        inst = generate(
            "uniform-random",
            {
                "n": rng.randint(2, 6),
                "seed": rng.randrange(2**31),
                "qmin": qmin,
                "qmax": qmax,
                "vmax": 0.9,
                "curve": curve,
            },
        )
        report = audit_truthfulness(inst, mechanism, dims=dims, seed=seed)
        tested += report.deviations_tested
        if not report.clean:
            dirty += 1
            worst = max(worst, max(v.gain for v in report.violations))
    return dirty, worst, tested


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--qmax", type=int, default=5)
    args = parser.parse_args()

    print(f"{'mechanism':8} {'curve':8} {'dims':22} {'dirty':>6} {'worst gain':>12} {'deviations':>11}")
    for curve in ("linear", "capped", "pwl"):
        dirty, worst, tested = scan_cell("pepa", curve, ("valuation",), args.instances, 1, 1)
        print(f"{'pepa':8} {curve:8} {'valuation':22} {dirty:>6} {worst:>12.6f} {tested:>11}")
    for curve in ("linear", "capped", "pwl"):
        dirty, worst, tested = scan_cell(
            "pepac", curve, ("valuation", "capacity"), args.instances, 2, args.qmax
        )
        print(f"{'pepac':8} {curve:8} {'valuation,capacity':22} {dirty:>6} {worst:>12.6f} {tested:>11}")

    demo = generate("kth-price-demo")
    report = audit_truthfulness(demo, "kth-price", dims=("capacity",), demand_cap=200)
    print(f"\nkth-price on the demand-capped demo: {len(report.violations)} profitable underreports")
    for v in report.violations:
        print(f"  seller {v.bidder}: q {v.true_bid.q} -> {v.deviating_bid.q}, gain {v.gain:.1f}")


if __name__ == "__main__":
    main()
