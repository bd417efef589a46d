#!/usr/bin/env python3
"""Benchmark of the procure CLI: closed-loop calls to ``procure.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-unit --seed 1 --seconds 25 --trace 0

One process, one client, no threads: the next call starts when the previous
one returns. The loop runs whole rounds (see ``workloads.py``), so every run
measures the same mix of calls, until the calls have taken ``--seconds``.
Times are reported at the nominal machine speed defined in ``speed.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds for the same time, reports the per-layer metrics
of the traced rounds and the tracing overhead, then runs the size sweep.
The last line of standard output is the result object; the line before it
is a full report, also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

START = perf_counter()

import speed  # noqa: E402  (this directory is on sys.path when run as a script)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # the second round re-runs every call, so each output is compared byte for byte
MAX_WALL_FACTOR = 1.5  # on a very slow machine, stop after this many times --seconds of wall time
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb", "ok_frac")
PER_LAYER = (
    "cli.calls", "cli.self_ms",
    "model.load_ms", "model.instance_builds", "model.validate_curve_ms", "model.validate_curve_units",
    "model.table_ms", "model.table_entries", "model.make_outcome_ms", "model.builds_per_deviation",
    "benchmarks.optimal_single_price_ms", "benchmarks.optimal_single_price_min2_ms",
    "benchmarks.scan_calls", "benchmarks.scan_units",
    "extraction.calls", "extraction.ms", "extraction.units_scanned",
    "mechanisms.run_pepac_calls", "mechanisms.run_pepac_ms", "mechanisms.run_kth_price_ms",
    "mechanisms.engine_builds", "mechanisms.engine_build_ms", "mechanisms.engine_masks", "mechanisms.engine_mask_us",
    "simulation.exact_ms", "simulation.estimate_ratio_ms", "simulation.audit_ms", "simulation.audit_deviations",
    "simulation.audit_ms_per_deviation", "simulation.self_ms",
    "trace.overhead_frac",
)
# Work counters that must repeat exactly for a seed; reported per round.
WORK_COUNTERS = {
    "calls": "cli.main.calls",
    "instance_builds": "model.Instance.calls",
    "table_entries": "model.table_entries",
    "validate_curve_units": "model.validate_curve_units",
    "engine_masks": "mechanisms.engine_masks",
    "trials": "simulation.trials",
    "deviations": "simulation.audit_deviations",
    "scan_units": "benchmarks.scan_units",
    "extraction_units_scanned": "extraction.units_scanned",
}


def _import_program():
    """Import ``procure`` from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "procure" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import procure.cli

    if Path(procure.cli.__file__).resolve().parent.parent != src.resolve():
        return None
    return procure.cli


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (pos - lo)


def tail(values) -> dict:
    """The highest ladder percentile with at least ten samples beyond it (p50 if none has)."""
    n = len(values)
    p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_BEYOND), TAIL_LADDER[-1])
    return {"percentile": p, "value": quantile(values, p), "samples": n, "beyond": int(n * (100.0 - p) / 100.0)}


class Client:
    """Calls ``cli.main`` in process and checks each output.

    The first output of each call is checked against the workload's
    expectations; every later output of the same call must match it byte
    for byte.
    """

    def __init__(self, cli, ops, paths, check):
        self.cli = cli
        self.ops = ops
        self.argvs = [op.argv(str(p)) for op, p in zip(ops, paths)]
        self.check = check
        self.first_out: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def call(self, i: int, tracer=None) -> float:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(self.argvs[i])
                else:
                    code = tracer.call("cli.main", self.cli.main, self.argvs[i],
                                       attrs={"op": self.ops[i].label, **self.ops[i].sizes()})
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a call that raises is a failed operation, not a crash of the benchmark
            code = None
            err.write(repr(exc))
        elapsed = perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        if i in self.first_out:
            problem = None if text == self.first_out[i] else "output differs from an earlier identical call"
        else:
            problem = self.check(self.ops[i], code, text)
            if problem is None:
                self.first_out[i] = text
        if problem is not None:
            self.failures.append({"op": self.ops[i].label, "problem": problem, "stderr": err.getvalue()[-500:]})
        return elapsed

    def round(self, tracer=None) -> tuple[list[float], list[float]]:
        """One call of each op in order.

        Returns the calls' wall times and the same times scaled by the speed
        probes taken around each call: one before every call and one after
        the last, of which the two before and the two after a call count.
        """
        times, probes = [], []
        for i in range(len(self.ops)):
            probes.extend(speed.probe(1))
            if tracer is not None:
                tracer.req = i
            times.append(self.call(i, tracer))
        probes.extend(speed.probe(1))
        return times, [t * speed.scale(probes[max(0, i - 1):i + 3]) for i, t in enumerate(times)]


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports ``procure.cli`` and exits."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import procure.cli"], cwd=ROOT, env=env, check=True, timeout=120)
    return perf_counter() - start


def setup(cli, name: str, seed: int) -> tuple[Client, dict]:
    """Set up ``SETUP_REPEATS`` times and report the median repeat.

    One repeat stands for one start of the benchmark: a fresh interpreter
    importing the program, then generating the round, writing its instance
    files, loading each through the program, and one warm-up call.
    """
    from procure.model import load_instance

    inputs = WORK / "inputs" / name
    inputs.mkdir(parents=True, exist_ok=True)
    reps, texts = [], []
    probes = [speed.probe()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        fresh_import_s()
        ops = workloads.WORKLOADS[name](seed)
        paths = []
        for i, op in enumerate(ops):
            path = inputs / f"op{i:02d}.json"
            path.write_text(json.dumps(op.instance) + "\n")
            load_instance(path)
            paths.append(path)
        client = Client(cli, ops, paths, workloads.check_output)
        client.call(0)
        reps.append(perf_counter() - start)
        probes.append(speed.probe())
        texts.append([op.instance for op in ops])
    if any(t != texts[0] for t in texts):
        raise RuntimeError("the same seed generated different inputs")
    scaled = [t * speed.scale(probes[i] + probes[i + 1]) for i, t in enumerate(reps)]
    return client, {"repeats_s": reps, "repeats_scaled_s": scaled, "setup_s": statistics.median(scaled)}


def summarize(spans, counts: dict, rounds: int = 1, scale: float = 1.0) -> dict:
    """Per-layer metrics of traced spans: times per round multiplied by ``scale``, counts as given."""
    incl = defaultdict(float)
    self_s = defaultdict(float)
    masks_s = 0.0
    for s in spans:
        incl[s.name] += s.duration
        self_s[s.name.split(".", 1)[0]] += s.self_s
        masks_s += s.agg_s
    self_s["mechanisms"] += masks_s

    def ms(name):
        return 1000.0 * scale * incl[name] / rounds

    audit_builds = 0
    for s in spans:
        if s.name == "model.Instance":
            p = s.parent
            while p is not None and p.name != "simulation.audit_truthfulness":
                p = p.parent
            audit_builds += p is not None
    masks = counts.get("mechanisms.engine_masks", 0)
    deviations = counts.get("simulation.audit_deviations", 0)
    all_deviations = deviations * rounds
    cli_s = incl["cli.main"] or sum(s.duration for s in spans if s.parent is None)
    return {
        "cli.calls": counts.get("cli.main.calls", 0),
        "cli.self_ms": 1000.0 * scale * self_s["cli"] / rounds,
        "model.load_ms": ms("model.load_instance"),
        "model.instance_builds": counts.get("model.Instance.calls", 0),
        "model.validate_curve_ms": ms("model.validate_curve"),
        "model.validate_curve_units": counts.get("model.validate_curve_units", 0),
        "model.table_ms": ms("model.RevenueCurve.table"),
        "model.table_entries": counts.get("model.table_entries", 0),
        "model.make_outcome_ms": ms("model.make_outcome"),
        "model.builds_per_deviation": audit_builds / all_deviations if all_deviations else 0.0,
        "benchmarks.optimal_single_price_ms": ms("benchmarks.optimal_single_price"),
        "benchmarks.optimal_single_price_min2_ms": ms("benchmarks.optimal_single_price_min2"),
        "benchmarks.scan_calls": counts.get("benchmarks.scan_calls", 0),
        "benchmarks.scan_units": counts.get("benchmarks.scan_units", 0),
        "extraction.calls": counts.get("extraction.calls", 0),
        "extraction.ms": ms("extraction.run_extraction"),
        "extraction.units_scanned": counts.get("extraction.units_scanned", 0),
        "mechanisms.run_pepac_calls": counts.get("mechanisms.run_pepac.calls", 0),
        "mechanisms.run_pepac_ms": ms("mechanisms.run_pepac"),
        "mechanisms.run_kth_price_ms": ms("mechanisms.run_kth_price"),
        "mechanisms.engine_builds": counts.get("mechanisms.partition_profit_engine.calls", 0),
        "mechanisms.engine_build_ms": ms("mechanisms.partition_profit_engine"),
        "mechanisms.engine_masks": masks,
        "mechanisms.engine_mask_us": 1e6 * scale * masks_s / (masks * rounds) if masks else 0.0,
        "simulation.exact_ms": ms("simulation.exhaustive_expected_profit"),
        "simulation.estimate_ratio_ms": ms("simulation.estimate_ratio"),
        "simulation.audit_ms": ms("simulation.audit_truthfulness"),
        "simulation.audit_deviations": deviations,
        "simulation.audit_ms_per_deviation": (
            1000.0 * scale * incl["simulation.audit_truthfulness"] / all_deviations if all_deviations else 0.0
        ),
        "simulation.self_ms": 1000.0 * scale * self_s["simulation"] / rounds,
        "shares": {layer: t / cli_s for layer, t in sorted(self_s.items())} if cli_s else {},
    }


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
         "ok_frac": "frac", "trace.overhead_frac": "frac", "mechanisms.engine_mask_us": "us",
         "simulation.audit_ms_per_deviation": "ms", "model.builds_per_deviation": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms/round" if name.endswith("_ms") or name == "extraction.ms" else "count/round"


def run_rounds(client: Client, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until their scaled time reaches ``seconds``, at least ``MIN_ROUNDS`` of each kind.

    Counting scaled time makes the number of rounds, and so the sample count
    behind each percentile, independent of the machine's drift. With a
    tracer, untraced and traced rounds alternate.
    """
    kinds = (False, True) if tracer is not None else (False,)
    rounds = []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS * len(kinds) or (
        sum(sum(r["scaled"]) for r in rounds) < seconds and perf_counter() - start < MAX_WALL_FACTOR * seconds
    ):
        for traced in kinds:
            if traced:
                tracer.counts.clear()
                tracer.install()
            try:
                times, scaled = client.round(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append({"traced": traced, "times": times, "scaled": scaled,
                           "counts": dict(tracer.counts) if traced else None})
    return rounds


def _scale(rnd: dict) -> float:
    return sum(rnd["scaled"]) / sum(rnd["times"])


def _scaled(rounds) -> list[float]:
    return [t for r in rounds for t in r["scaled"]]


def per_op_rows(client: Client, rounds) -> list[dict]:
    return [
        {"op": op.label, **op.sizes(), "calls": len(rounds),
         "p50_ms": 1000.0 * statistics.median(r["scaled"][i] for r in rounds),
         "p50_ms_unscaled": 1000.0 * statistics.median(r["times"][i] for r in rounds)}
        for i, op in enumerate(client.ops)
    ]


def untraced_metrics(client: Client, rounds) -> tuple[dict, dict]:
    calls = _scaled(rounds)
    raw = [t for r in rounds for t in r["times"]]
    window = sum(calls)
    t = tail(calls)
    loop = {
        "rounds": len(rounds), "calls": len(calls), "window_s": window,
        "window_s_unscaled": sum(raw),
        "scales": [_scale(r) for r in rounds],
        "p50_ms": {"value": 1000.0 * statistics.median(calls), "samples": len(calls),
                   "unscaled": 1000.0 * statistics.median(raw)},
        "tail_ms": {**t, "value": 1000.0 * t["value"], "unscaled": 1000.0 * quantile(raw, t["percentile"])},
        "per_op": per_op_rows(client, rounds),
    }
    metrics = {
        "ops_per_s": len(calls) / window,
        "op_p50_ms": loop["p50_ms"]["value"],
        "op_tail_ms": loop["tail_ms"]["value"],
    }
    return metrics, loop


def traced_metrics(client: Client, rounds, tracer) -> tuple[dict, dict, list]:
    """Per-layer metrics of the traced rounds; every one must repeat the first one's counters."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    scale = statistics.median(_scale(r) for r in traced)
    metrics = summarize(tracer.spans, traced[0]["counts"], len(traced), scale)
    p50_plain, p50_traced = statistics.median(_scaled(plain)), statistics.median(_scaled(traced))
    metrics["trace.overhead_frac"] = p50_traced / p50_plain - 1.0
    mismatch = [i for i, r in enumerate(traced) if r["counts"] != traced[0]["counts"]]
    loop = {
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "p50_ms_untraced": {"value": 1000.0 * p50_plain, "samples": len(plain) * len(client.ops)},
        "p50_ms_traced": {"value": 1000.0 * p50_traced, "samples": len(traced) * len(client.ops)},
        "layer_time_scale": scale,
        "work_per_round": {k: traced[0]["counts"].get(v, 0) for k, v in WORK_COUNTERS.items()},
        "rounds_with_other_counters": mismatch,
        "per_op": per_op_rows(client, traced),
        "per_op_layers": per_op_layers(client, tracer.spans, len(traced), scale),
    }
    return metrics, loop, mismatch


def per_op_layers(client: Client, spans, rounds: int, scale: float) -> list[dict]:
    """Self time per layer for each call of the round, in scaled ms per call."""
    by_req = defaultdict(list)
    for s in spans:
        by_req[s.req].append(s)
    rows = []
    for i, op in enumerate(client.ops):
        layers = defaultdict(float)
        for s in by_req[i]:
            layers[s.name.split(".", 1)[0]] += s.self_s
            layers["mechanisms"] += s.agg_s
        rows.append({"op": op.label, **op.sizes(),
                     "self_ms": {k: 1000.0 * scale * v / rounds for k, v in sorted(layers.items())}})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cli = _import_program()
    if cli is None:
        print(f"no procure package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = perf_counter() - START
    client, setup_info = setup(cli, args.workload, args.seed)
    client.attempted = 0
    client.failures.clear()

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    report = {"stamp": stamp, "setup": {"in_process_import_s": import_s, **setup_info}}
    counters_ok = True
    if args.trace:
        from sweep import run_sweep
        from tracer import Tracer

        tracer = Tracer()
        rounds = run_rounds(client, args.seconds, tracer)
        metrics, report["loop"], mismatch = traced_metrics(client, rounds, tracer)
        counters_ok = not mismatch
        report["shares"] = metrics.pop("shares")
        report["untraced_functions"] = sorted(tracer.missing)
        report["sweep"] = run_sweep(args.workload, args.seed, tracer, summarize)
    else:
        metrics, report["loop"] = untraced_metrics(client, run_rounds(client, args.seconds))
        metrics["setup_s"] = setup_info["setup_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = 1.0 - len(client.failures) / client.attempted
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not client.failures and counters_ok,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }
    report["failures"] = client.failures[:20]
    report["result"] = result

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.dump(results / f"{stem}-spans.jsonl")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
