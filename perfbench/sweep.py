"""Size sweep at the ROADMAP baseline points, run after the traced loop.

Each point calls ``simulation`` directly (the CLI refuses ``--exact`` above
n = 16), once untraced for its wall time and once traced for its per-layer
split, and states the result against the ROADMAP's single-run figure.
"""

from __future__ import annotations

import random
from time import perf_counter

import speed
from workloads import AUDIT_N, MC_TRIALS, composition, random_instance

# A sweep figure counts as reproducing the ROADMAP's single run if it lies
# within this factor of it either way: those figures were single runs on a
# shared machine, not medians.
REPRODUCED_FACTOR = 1.3

# workload -> [(label, ROADMAP seconds, n for exact and MC or m for the audit)]
POINTS = {
    "exact-unit": [("exact n=12", 0.045, 12), ("exact n=16", 0.86, 16), ("exact n=18", 3.5, 18)],
    "mc-capacitated": [("mc n=50 10k trials", 0.36, 50)],
    "audit-capacitated": [("audit n=6 m=9850", 1.24, 9_850)],
}


def _point(workload: str, size: int, rng: random.Random, simulation):
    """The instance dict and a zero-argument call for one sweep point."""
    if workload == "exact-unit":
        inst, _ = random_instance(rng, "pwl", [1] * size, min_two=True)
        return inst, lambda i: simulation.exhaustive_expected_profit(i, "pepa")
    if workload == "mc-capacitated":
        inst, _ = random_instance(rng, "pwl", [1] * size, min_two=True)
        seed = rng.randrange(2**31)
        return inst, lambda i: simulation.estimate_ratio(i, "pepa", "f2", MC_TRIALS, seed)
    caps = composition(rng, size, AUDIT_N, size // (2 * AUDIT_N))
    inst, _ = random_instance(rng, "pwl", caps, min_two=False)
    seed = rng.randrange(2**31)
    return inst, lambda i: simulation.audit_truthfulness(i, "pepac", dims=("valuation", "capacity"), seed=seed)


def run_sweep(workload: str, seed: int, tracer, summarize) -> list[dict]:
    """Run the workload's sweep points; ``summarize(spans, counts)`` gives the traced split."""
    from procure import model, simulation

    rng = random.Random(f"sweep:{workload}:{seed}")
    rows = []
    for label, roadmap_s, size in POINTS[workload]:
        inst_dict, call = _point(workload, size, rng, simulation)
        before = speed.probe()
        start = perf_counter()
        call(model.instance_from_json_dict(inst_dict))
        wall_s = perf_counter() - start
        scale = speed.scale(before + speed.probe())
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.install()
        try:
            tracer.call("sweep." + label.replace(" ", "_"), lambda: call(model.instance_from_json_dict(inst_dict)))
        finally:
            tracer.uninstall()
        n = len(inst_dict["bids"])
        m = sum(b["q"] for b in inst_dict["bids"])
        ratio = wall_s / roadmap_s
        rows.append({
            "point": label,
            "n": n,
            "m": m,
            "k": len(inst_dict["curve"]["points"]),
            "wall_s": wall_s,
            "wall_s_scaled": wall_s * scale,
            "roadmap_s": roadmap_s,
            "vs_roadmap": ratio,
            "reproduced": 1 / REPRODUCED_FACTOR <= ratio <= REPRODUCED_FACTOR,
            "traced": summarize(tracer.spans[first:], dict(tracer.counts), scale=scale),
        })
    return rows
