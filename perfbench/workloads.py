"""Seeded inputs, CLI calls and output checks for the three workloads.

Everything here is stdlib only and independent of the ``procure`` package:
instances are written as plain instance-file dicts, and the values the
checks compare against (single-price optima, the equal-margin closed form)
come from the small oracles below, not from the program under test.

Each workload is a fixed *round*: an ordered list of CLI calls whose sizes
(bidders n, total supply m, curve breakpoints k) are fixed by the workload
and whose prices and curve slopes are drawn from the seed. Keeping the sizes
fixed makes the cost of a round nearly independent of the seed, so runs
with different seeds are comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

MC_TRIALS = 10_000
AUDIT_N = 6
QUARTER = 0.25
REL_TOL = 1e-9
SENTINEL_FACTOR = 100.0  # sentinel sellers ask 100 r, so no offer under R(u) = r u reaches them

# The kth-price demo of the README: four capacitated sellers under a capped
# market, on which a Kth-price auction rewards a capacity underreport.
KTH_PRICE_DEMO = {
    "bids": [{"v": 6.0, "q": 100}, {"v": 8.0, "q": 100}, {"v": 10.0, "q": 200}, {"v": 12.0, "q": 100}],
    "curve": {"kind": "capped", "r": 15.0, "D": 200},
}
KTH_PRICE_DEMO_CAP = 200


@dataclass
class Op:
    """One CLI call of a round: its instance, arguments and expectations."""

    label: str
    kind: str  # exact-em | exact-random | mc | audit-linear | audit-pwl | audit-kth
    instance: dict
    args: list[str]
    expect: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.instance["bids"])

    @property
    def m(self) -> int:
        return sum(b["q"] for b in self.instance["bids"])

    @property
    def k(self) -> int:
        """Curve breakpoints: 1 for linear, 2 for capped, len(points) for pwl."""
        curve = self.instance["curve"]
        return {"linear": 1, "capped": 2}.get(curve["kind"]) or len(curve["points"])

    def argv(self, path: str) -> list[str]:
        return [self.args[0], "--instance", path, *self.args[1:]]

    def sizes(self) -> dict:
        return {"n": self.n, "m": self.m, "k": self.k}


# --- independent oracles -------------------------------------------------------


def revenue_table(curve: dict, m: int) -> list[float]:
    """R(0..m) for an instance-file curve dict."""
    kind = curve["kind"]
    if kind == "linear":
        return [curve["r"] * u for u in range(m + 1)]
    if kind == "capped":
        return [curve["r"] * min(u, curve["D"]) for u in range(m + 1)]
    points = [(0, 0.0)] + [(int(q), float(rev)) for q, rev in curve["points"]]
    table = [0.0]
    seg = 1
    for u in range(1, m + 1):
        while seg < len(points) - 1 and u > points[seg][0]:
            seg += 1
        (q0, r0), (q1, r1) = points[seg - 1], points[seg]
        table.append(r0 + (r1 - r0) / (q1 - q0) * (u - q0))
    return table


def single_price_optimum(instance: dict, min_two: bool = False) -> float:
    """max over unit counts u of R(u) - u * (valuation of the u-th cheapest unit).

    Without ``min_two`` the no-trade option 0 is a candidate; with it, only
    counts beyond the cheapest seller's capacity are (the f2 benchmark).
    """
    pairs = sorted(((b["v"], i), b["q"]) for i, b in enumerate(instance["bids"]))
    rtable = revenue_table(instance["curve"], sum(q for _, q in pairs))
    lo = pairs[0][1] if min_two else 0
    best = -math.inf if min_two else 0.0
    u = 0
    for (v, _), q in pairs:
        for _ in range(q):
            u += 1
            if u > lo:
                best = max(best, rtable[u] - u * v)
    return best


def equal_margin_share(k: int) -> float:
    """Expected share of f2 the split auction earns when f2 buys from k equal-margin sellers."""
    return 0.5 - math.comb(k - 1, k // 2) * 2.0 ** (-k)


# --- generators -----------------------------------------------------------------


def composition(rng: random.Random, total: int, parts: int, floor: int) -> list[int]:
    """``parts`` integers >= ``floor`` summing to ``total``, in random proportions."""
    spare = total - parts * floor
    cuts = sorted(rng.sample(range(1, spare + parts), parts - 1))
    bounds = [0, *cuts, spare + parts]
    return [floor + bounds[i + 1] - bounds[i] - 1 for i in range(parts)]


PWL_SLOPES = (1.0, 0.7, 0.45, 0.3)  # marginal revenue per segment, as shares of r


def _curve(rng: random.Random, kind: str, r: float, m: int) -> dict:
    """A curve over supply m whose shape is fixed by the kind; only its scale r is random.

    Fixed shapes keep the cost of a call (how far the extraction scans walk)
    from varying with the seed.
    """
    if kind == "linear":
        return {"kind": "linear", "r": r}
    if kind == "capped":
        return {"kind": "capped", "r": r, "D": m // 2}
    points = []
    q_prev, rev = 0, 0.0
    for s, share in enumerate(PWL_SLOPES, start=1):
        q = m * s // len(PWL_SLOPES)
        rev += share * r * (q - q_prev)
        points.append([q, rev])
        q_prev = q
    return {"kind": "pwl", "points": points}


def _bids(valuations, capacities) -> list[dict]:
    return [{"v": v, "q": q} for v, q in zip(valuations, capacities)]


def _equal_margin(rng: random.Random, n: int) -> tuple[dict, int]:
    """k equal-margin sellers under a linear curve plus n - k priced-out sentinels."""
    r = rng.uniform(5.0, 15.0)
    v = rng.uniform(0.2, 0.8) * r
    k = rng.randint(n - 3, n)
    vals = [v] * k + [SENTINEL_FACTOR * r] * (n - k)
    rng.shuffle(vals)
    return {"bids": _bids(vals, [1] * n), "curve": {"kind": "linear", "r": r}}, k


def random_instance(rng: random.Random, kind: str, caps: list[int], min_two: bool) -> tuple[dict, float]:
    """Random valuations under a curve of the given kind, redrawn until its benchmark is positive."""
    m = sum(caps)
    for _ in range(100):
        r = rng.uniform(5.0, 15.0)
        inst = {"bids": _bids([rng.uniform(0.0, 0.9 * r) for _ in caps], caps), "curve": _curve(rng, kind, r, m)}
        bench = single_price_optimum(inst, min_two=min_two)
        if bench > 0.05 * r:
            return inst, bench
    raise RuntimeError(f"could not draw a {kind} instance with a positive benchmark")


EXACT_ARGS = ["--mechanism", "pepa", "--benchmark", "f2", "--exact"]
# (n, equal-margin instances, random curve kinds) per size class.
EXACT_ROUND = (
    (12, 1, ("linear", "capped")),
    (14, 2, ("linear", "capped", "pwl")),
    (16, 2, ("linear", "capped", "pwl")),
)


def exact_unit_round(seed: int) -> list[Op]:
    rng = random.Random(f"exact-unit:{seed}")
    ops = []
    for n, em_count, kinds in EXACT_ROUND:
        for i in range(em_count):
            inst, k = _equal_margin(rng, n)
            f2 = k * (inst["curve"]["r"] - min(b["v"] for b in inst["bids"]))
            ops.append(Op(f"em-n{n}-{i}", "exact-em", inst, ["ratio", *EXACT_ARGS], {"f2": f2, "k": k}))
        for kind in kinds:
            inst, f2 = random_instance(rng, kind, [1] * n, min_two=True)
            ops.append(Op(f"{kind}-n{n}", "exact-random", inst, ["ratio", *EXACT_ARGS], {"f2": f2}))
    return ops


# (n, m, curve kind) per call; m in the low hundreds keeps one 10k-trial call under a second.
MC_ROUND = (
    (30, 100, "capped"),
    (32, 120, "pwl"),
    (34, 140, "capped"),
    (36, 160, "pwl"),
    (38, 180, "capped"),
    (40, 200, "pwl"),
    (42, 220, "capped"),
)


def mc_capacitated_round(seed: int) -> list[Op]:
    rng = random.Random(f"mc-capacitated:{seed}")
    ops = []
    for i, (n, m, kind) in enumerate(MC_ROUND):
        inst, f = random_instance(rng, kind, composition(rng, m, n, 1), min_two=False)
        args = ["ratio", "--mechanism", "pepac", "--benchmark", "f", "--trials", str(MC_TRIALS),
                "--seed", str(rng.randrange(2**31))]
        ops.append(Op(f"{kind}-n{n}-m{m}", "mc", inst, args, {"f": f}))
    return ops


AUDIT_ARGS = ["--mechanism", "pepac", "--dims", "valuation,capacity"]
# (m, curve kind) per call, n = AUDIT_N; the last is the m ~ 9,850 pwl point of the ROADMAP baseline.
AUDIT_ROUND = (
    (1_000, "linear"),
    (1_500, "pwl"),
    (2_500, "linear"),
    (3_500, "pwl"),
    (4_500, "linear"),
    (6_000, "pwl"),
    (7_500, "linear"),
    (9_850, "pwl"),
)


def audit_capacitated_round(seed: int) -> list[Op]:
    rng = random.Random(f"audit-capacitated:{seed}")
    ops = [
        Op("kth-price-demo", "audit-kth", KTH_PRICE_DEMO,
           ["audit", "--mechanism", "kth-price", "--demand-cap", str(KTH_PRICE_DEMO_CAP), "--dims", "capacity"]),
    ]
    for m, kind in AUDIT_ROUND:
        caps = composition(rng, m, AUDIT_N, m // (2 * AUDIT_N))
        inst, _ = random_instance(rng, kind, caps, min_two=False)
        args = ["audit", *AUDIT_ARGS, "--seed", str(rng.randrange(2**31))]
        ops.append(Op(f"{kind}-m{m}", f"audit-{kind}", inst, args))
    return ops


WORKLOADS = {
    "exact-unit": exact_unit_round,
    "mc-capacitated": mc_capacitated_round,
    "audit-capacitated": audit_capacitated_round,
}


# --- output checks ---------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _capacity_probes(q: int) -> int:
    return len({p for p in (q // 2, round(0.9 * q), q - 1) if 1 <= p < q})


def _audit_deviation_range(instance: dict, dims: str) -> tuple[int, int]:
    """Bounds on ``deviations_tested``: the capacity probes are exact; each
    winning bidder adds up to two valuation probes around its payment."""
    lo = 0
    bids = instance["bids"]
    for i, b in enumerate(bids):
        if "valuation" in dims:
            v = b["v"]
            probes = {0.0, 0.5 * v, 0.9 * v, 1.1 * v, 2.0 * v}
            for j, other in enumerate(bids):
                if j != i:
                    probes.update((other["v"] + 1e-6, max(0.0, other["v"] - 1e-6)))
            probes.discard(v)
            lo += len(probes)
        if "capacity" in dims:
            lo += _capacity_probes(b["q"])
    return lo, lo + (2 * len(bids) if "valuation" in dims else 0)


def check_output(op: Op, code: int | None, out: str) -> str | None:
    """None if a call's exit code and JSON report are right, else why not."""
    want_code = 1 if op.kind == "audit-kth" else None if op.kind == "audit-pwl" else 0
    if code is None:
        return "call raised"
    if want_code is not None and code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if op.kind in ("exact-em", "exact-random"):
        if report.get("method") != "exhaustive":
            return f"method {report.get('method')!r}, expected 'exhaustive'"
        f2, mean = op.expect["f2"], report["mean_profit"]
        if not _close(report["benchmark"], f2):
            return f"f2 {report['benchmark']!r}, oracle {f2!r}"
        if op.kind == "exact-em":
            want = equal_margin_share(op.expect["k"]) * f2
            if not _close(mean, want):
                return f"expected profit {mean!r}, closed form {want!r}"
        elif mean < QUARTER * f2 - REL_TOL * f2:
            return f"ratio {mean / f2!r} below the quarter bound"
        return None
    if op.kind == "mc":
        f, mean = op.expect["f"], report["mean_profit"]
        if report.get("method") != "monte-carlo" or report.get("trials") != MC_TRIALS:
            return "not a 10k-trial Monte Carlo report"
        if not _close(report["benchmark"], f):
            return f"f {report['benchmark']!r}, oracle {f!r}"
        if not 0.0 <= mean <= f * (1 + REL_TOL):
            return f"mean profit {mean!r} outside [0, f={f!r}]"
        return None
    lo, hi = _audit_deviation_range(op.instance, op.args[op.args.index("--dims") + 1])
    if not lo <= report["deviations_tested"] <= hi:
        return f"{report['deviations_tested']} deviations tested, expected {lo}..{hi}"
    violations = report["violations"]
    if op.kind == "audit-linear" and violations:
        return f"{len(violations)} violations on a linear curve, expected a clean audit"
    if op.kind == "audit-kth" and not any(v["dim"] == "capacity" and v["gain"] > 0 for v in violations):
        return "kth-price demo did not report its capacity underreport"
    if op.kind == "audit-pwl" and code != (1 if violations else 0):
        return f"exit code {code} with {len(violations)} violations"
    return None
