"""Command-line front end.

Subcommands: run, benchmark, ratio, audit, generate, validate.

Exit codes: 0 clean, 1 audit violations found, 2 input error (a declared
supply too large for an exact expectation's state in memory included), 3
unknown mechanism, 4 benchmark invalid. Randomized commands take --seed,
falling back to the PROCURE_SEED environment variable; if neither is set a
seed is chosen and announced on stderr so every reported number stays
replayable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys

from . import benchmarks, simulation
from .mechanisms import UnknownMechanismError, resolve_mechanism
from .model import Instance, InstanceFormatError, dumps_instance, load_instance
from .simulation import BenchmarkNotPositiveError

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_UNKNOWN_MECHANISM = 3
EXIT_BAD_BENCHMARK = 4


def _parse_generator_spec(spec: str) -> tuple[str, dict]:
    family, _, raw = spec.partition(":")
    params = {}
    if raw:
        for item in raw.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise InstanceFormatError(f"bad generator parameter {item!r}; expected key=value")
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return family, params


def _obtain_instance(args) -> tuple[Instance, str, str]:
    """Returns (instance, family-label, params-label) for report rows."""
    if bool(args.instance) == bool(args.generate):
        raise InstanceFormatError("provide exactly one of --instance or --generate")
    if args.instance:
        return load_instance(args.instance), "file", args.instance
    family, params = _parse_generator_spec(args.generate)
    try:
        instance = simulation.generate(family, params)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return instance, family, args.generate.partition(":")[2]


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROCURE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InstanceFormatError(f"PROCURE_SEED must be an integer, got {env!r}") from exc
    seed = secrets.randbelow(2**31)
    print(f"seed auto-chosen: {seed}", file=sys.stderr)
    return seed


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2))


def cmd_run(args) -> int:
    instance, _, _ = _obtain_instance(args)
    mech = resolve_mechanism(args.mechanism, demand_cap=args.demand_cap)
    seed = _resolve_seed(args) if mech.randomized else None
    run = mech.run(instance, seed)
    utilities = [simulation.seller_utility(run, i, bid.valuation) for i, bid in enumerate(instance.bids)]
    _emit_json(
        args,
        {
            "mechanism": args.mechanism,
            "seed": seed,
            "run": run.to_json_dict(),
            "seller_utilities": utilities,
        },
    )
    return EXIT_OK


def cmd_benchmark(args) -> int:
    instance, _, _ = _obtain_instance(args)
    f = benchmarks.optimal_single_price(instance)
    t = benchmarks.optimal_multi_price(instance)
    try:
        f2 = benchmarks.optimal_single_price_min2(instance).to_json_dict()
        f2_note = None
    except benchmarks.BenchmarkUndefinedError as exc:
        f2 = None
        f2_note = str(exc)
    if args.format == "csv":
        f2_profit = "" if f2 is None else repr(f2["profit"])
        _emit(args, "f,t,f2,opp\n" + ",".join([repr(f.profit), repr(t.profit), f2_profit, repr(f.price)]))
        return EXIT_OK
    _emit_json(
        args,
        {"f": f.to_json_dict(), "t": t.to_json_dict(), "f2": f2, "f2_note": f2_note, "opp": f.price},
    )
    return EXIT_OK


def cmd_ratio(args) -> int:
    instance, family, params = _obtain_instance(args)
    if args.exact:
        report = simulation.exact_ratio(instance, args.mechanism, args.benchmark, demand_cap=args.demand_cap)
        seed = None
        method = "exhaustive"
    else:
        seed = _resolve_seed(args)
        report = simulation.estimate_ratio(
            instance, args.mechanism, args.benchmark, args.trials, seed, demand_cap=args.demand_cap
        )
        method = "monte-carlo"
    if args.format == "csv":
        _emit(
            args,
            simulation.RATIO_CSV_HEADER
            + "\n"
            + simulation.ratio_csv_row(report, family, params, args.mechanism, args.benchmark),
        )
        return EXIT_OK
    payload = report.to_json_dict()
    payload.update({"method": method, "seed": seed, "mechanism": args.mechanism, "benchmark_name": args.benchmark})
    _emit_json(args, payload)
    return EXIT_OK


def cmd_audit(args) -> int:
    instance, _, _ = _obtain_instance(args)
    dims = tuple(d.strip() for d in args.dims.split(",") if d.strip())
    mech = resolve_mechanism(args.mechanism, demand_cap=args.demand_cap)
    seed = _resolve_seed(args) if mech.randomized else 0
    report = simulation.audit_truthfulness(
        instance, args.mechanism, dims=dims, seed=seed, demand_cap=args.demand_cap
    )
    payload = report.to_json_dict()
    payload["seed"] = seed
    payload["dims"] = list(dims)
    _emit_json(args, payload)
    return EXIT_OK if report.clean else EXIT_VIOLATIONS


def cmd_generate(args) -> int:
    instance, _, _ = _obtain_instance(args)
    _emit(args, dumps_instance(instance))
    return EXIT_OK


def cmd_validate(args) -> int:
    if not args.instance:
        raise InstanceFormatError("validate needs --instance PATH")
    instance = load_instance(args.instance)
    _emit_json(
        args,
        {
            "valid": True,
            "bidders": instance.n,
            "total_supply": instance.total_supply,
            "unit_capacity": instance.is_unit_capacity,
            "curve_kind": instance.curve.kind,
        },
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="procure", description="Prior-free procurement auction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mechanism=False, trials=False, dims=False):
        p.add_argument("--instance", help="path to an instance JSON file")
        p.add_argument("--generate", help="inline generator spec, e.g. tightness:l=10,eps=1,n=4")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: PROCURE_SEED, else auto)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if mechanism:
            p.add_argument("--mechanism", required=True, help="pepa | pepac | kth-price | bid-independent:<f>")
            p.add_argument("--demand-cap", type=int, default=None, dest="demand_cap")
        if trials:
            p.add_argument("--trials", type=int, default=10000)
            p.add_argument("--benchmark", choices=("f", "t", "f2"), default="f2")
            p.add_argument("--exact", action="store_true", help="exact expectation over all coin splits")
        if dims:
            p.add_argument("--dims", default="valuation", help="comma list of audit dimensions: valuation,capacity")

    p_run = sub.add_parser("run", help="run one mechanism and print the outcome")
    add_common(p_run, mechanism=True)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("benchmark", help="print the omniscient benchmarks")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_ratio = sub.add_parser("ratio", help="estimate expected profit / benchmark")
    add_common(p_ratio, mechanism=True, trials=True)
    p_ratio.set_defaults(func=cmd_ratio)

    p_audit = sub.add_parser("audit", help="search for profitable misreports")
    add_common(p_audit, mechanism=True, dims=True)
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("generate", help="emit a generated instance as JSON")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="check an instance file against the model invariants")
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every call, which
    is safe because ``parse_args`` does not change it. A fresh parser per
    call leaves cyclic garbage that a process calling :func:`main` in a
    loop holds until the next full collection."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownMechanismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_MECHANISM
    except BenchmarkNotPositiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_BENCHMARK
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print(
            "error: out of memory: an exact expectation's state grows with the declared supply",
            file=sys.stderr,
        )
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
