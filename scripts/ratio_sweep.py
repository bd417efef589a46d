#!/usr/bin/env python3
"""Sweep the worked instance families and tabulate profit ratios.

Produces one CSV row per (family, mechanism, benchmark) cell: the exact
expectation over all coin splits next to a seeded Monte Carlo estimate, so
the table doubles as a consistency check. Feed the CSV to any plotter.

Usage:
    python scripts/ratio_sweep.py --trials 20000 --seed 1 [--out sweep.csv]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from procure.benchmarks import exact_pepa_ratio
from procure.model import linear_curve, make_instance
from procure.cli import RATIO_CSV_HEADER, ratio_csv_row
from procure.simulation import estimate_ratio, exact_ratio, generate


def exact_row(instance, family, params, mechanism="pepa", benchmark="f2"):
    return ratio_csv_row(exact_ratio(instance, mechanism, benchmark), family, params, mechanism, benchmark)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = [RATIO_CSV_HEADER]

    tight = generate("tightness", {"l": 10.0, "eps": 1.0, "n": 4})
    rows.append(exact_row(tight, "tightness", "l=10,eps=1,n=4"))
    rows.append(
        ratio_csv_row(
            estimate_ratio(tight, "pepa", "f2", args.trials, args.seed),
            "tightness",
            "l=10,eps=1,n=4",
            "pepa",
            "f2",
        )
    )

    # k sellers of equal margin: the exact share has a closed form,
    # printed alongside the exact expectation for comparison
    for k in (2, 3, 4, 6, 10):
        inst = make_instance([5.0] * k, curve=linear_curve(10.0))
        rows.append(exact_row(inst, "equal-margin", f"k={k}"))
        print(f"# equal-margin k={k}: closed form {exact_pepa_ratio(k):.6f}", file=sys.stderr)

    # starvation against the unconstrained optimum as the lone low bid
    # approaches the margin
    for frac in (0.9, 0.99, 0.999):
        inst = generate("lowball", {"r": 10.0, "L": 10.0 * frac})
        rows.append(exact_row(inst, "lowball", f"r=10,L={10.0 * frac}", benchmark="f"))

    text = "\n".join(rows)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)


if __name__ == "__main__":
    main()
