"""Check ``procure.simulation.sample_stdev`` against ``statistics.stdev``
bit for bit, with the standard library only, for interpreters that have no
pytest or hypothesis installed.

    python3 scripts/check_sample_stdev.py --lists 3000 --seed 1

Each list holds 2 to 300 values drawn from a pool of 1 to 8 floats whose
magnitudes range from about 1e-300 to 1e300, so values repeat. Prints the
interpreter version and the number of mismatches, and exits 1 if there is
any. Needs Python 3.11 or later, whose ``stdev`` rounds once; on 3.10 it
exits 2.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from procure.simulation import sample_stdev  # noqa: E402


def random_list(rng: random.Random) -> list[float]:
    pool = [rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-300, 299) for _ in range(rng.randint(1, 8))]
    return [rng.choice(pool) for _ in range(rng.randint(2, 300))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lists", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        print("needs Python 3.11 or later: statistics.stdev rounds twice before 3.11", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.lists):
        xs = random_list(rng)
        want, got = statistics.stdev(xs), sample_stdev(Counter(xs))
        if want.hex() != got.hex():
            mismatches += 1
            print(f"mismatch: stdev {want.hex()} sample_stdev {got.hex()} on {len(xs)} values", file=sys.stderr)
    print(f"python {sys.version.split()[0]}: {args.lists} lists, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
