"""Command-line front end.

Subcommands: run, benchmark, ratio, audit, generate, validate.

Exit codes: 0 clean, 1 audit violations found, 2 input error (a file that
cannot be read or written, an option the subcommand does not read with the
others given, and a declared supply too large for an exact expectation's
state in memory included), 3 unknown mechanism, 4 the ratio's benchmark
undefined or not positive, 141 (128 + SIGPIPE) standard output closed
before the report was written. Commands that draw coins take --seed,
falling back to the PROCURE_SEED environment variable; if neither is set a
seed is chosen and announced on stderr so every reported number stays
replayable. A command that draws none (a deterministic mechanism, or
``ratio --exact``) reports a null seed and refuses --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys

from . import benchmarks, simulation
from .mechanisms import UnknownMechanismError, resolve_mechanism
from .model import Instance, InstanceFormatError, dumps_instance, load_instance

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_UNKNOWN_MECHANISM = 3
EXIT_BAD_BENCHMARK = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


def _parse_generator_spec(spec: str) -> tuple[str, dict]:
    family, _, raw = spec.partition(":")
    params = {}
    if raw:
        for item in raw.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise InstanceFormatError(f"bad generator parameter {item!r}; expected key=value")
            if key in params:
                raise InstanceFormatError(f"generator parameter {key!r} given twice")
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
    return simulation.generate(family, params), family, args.generate.partition(":")[2]


def _seed(args, mech, exact: bool = False) -> int | None:
    """The seed of a command that runs ``mech``: --seed, else PROCURE_SEED,
    else one chosen and announced on stderr. A deterministic mechanism, or
    an exact expectation over every draw, reads none: it refuses --seed by
    name and returns None. ``secrets`` is imported only where a seed is
    chosen, since it loads OpenSSL through ``hmac``."""
    if exact or not mech.randomized:
        if args.seed is not None:
            reader = "ratio --exact averages over every coin draw" if exact else f"{mech.name} draws no coins"
            raise InstanceFormatError(f"{reader} and reads no --seed")
        return None
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROCURE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InstanceFormatError(f"PROCURE_SEED must be an integer, got {env!r}") from exc
    import secrets  # not imported at the top: it would load OpenSSL, about 3.5 MB, at every start

    seed = secrets.randbelow(2**31)
    print(f"seed auto-chosen: {seed}", file=sys.stderr)
    return seed


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fields(report) -> dict:
    """A report dataclass as JSON: its own fields in order, not copied deeper."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def _emit_json(args, report=None, /, **fields) -> None:
    """Write ``report``'s fields, then ``fields``, as JSON. Every dataclass
    in them, nested ones included, is written as its own fields."""
    head = {} if report is None else _fields(report)
    _emit(args, json.dumps({**head, **fields}, indent=2, default=_fields))


def cmd_run(args) -> int:
    instance, _, _ = _obtain_instance(args)
    mech = resolve_mechanism(args.mechanism, demand_cap=args.demand_cap)
    seed = _seed(args, mech)
    run = mech.run(instance, seed)
    utilities = [simulation.seller_utility(run.outcome, i, bid.valuation) for i, bid in enumerate(instance.bids)]
    _emit_json(args, mechanism=args.mechanism, seed=seed, run=run, seller_utilities=utilities)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    instance, _, _ = _obtain_instance(args)
    f = benchmarks.optimal_single_price(instance)
    t = benchmarks.optimal_multi_price(instance)
    try:
        f2 = benchmarks.optimal_single_price_min2(instance)
        f2_note = None
    except benchmarks.BenchmarkUndefinedError as exc:
        f2 = None
        f2_note = str(exc)
    if args.format == "csv":
        f2_profit = "" if f2 is None else repr(f2.profit)
        _emit(args, "f,t,f2,opp\n" + ",".join([repr(f.profit), repr(t.profit), f2_profit, repr(f.price)]))
        return EXIT_OK
    _emit_json(args, f=f, t=t, f2=f2, f2_note=f2_note, opp=f.price)
    return EXIT_OK


RATIO_CSV_HEADER = "family,params,mechanism,benchmark,trials,mean,stderr,ratio"


def ratio_csv_row(report: simulation.RatioReport, family: str, params: str, mechanism: str, benchmark_name: str) -> str:
    """One ratio report as a CSV row under :data:`RATIO_CSV_HEADER`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(
        [
            family,
            params,
            mechanism,
            benchmark_name,
            report.trials,
            repr(report.mean_profit),
            repr(report.std_error),
            repr(report.ratio_estimate),
        ]
    )
    return buf.getvalue()


def cmd_ratio(args) -> int:
    if args.exact and args.trials is not None:
        raise InstanceFormatError("ratio --exact reads no --trials")
    instance, family, params = _obtain_instance(args)
    mech = resolve_mechanism(args.mechanism, demand_cap=args.demand_cap)
    seed = _seed(args, mech, args.exact)
    if args.exact:
        report = simulation.exact_ratio(instance, args.mechanism, args.benchmark, demand_cap=args.demand_cap)
        method = "exhaustive"
    else:
        trials = 10000 if args.trials is None else args.trials
        report = simulation.estimate_ratio(instance, args.mechanism, args.benchmark, trials, seed, args.demand_cap)
        method = "monte-carlo"
    if args.format == "csv":
        _emit(args, RATIO_CSV_HEADER + "\n" + ratio_csv_row(report, family, params, args.mechanism, args.benchmark))
        return EXIT_OK
    _emit_json(args, report, method=method, seed=seed, mechanism=args.mechanism, benchmark_name=args.benchmark)
    return EXIT_OK


def cmd_audit(args) -> int:
    instance, _, _ = _obtain_instance(args)
    dims = tuple(d.strip() for d in args.dims.split(",") if d.strip())
    mech = resolve_mechanism(args.mechanism, demand_cap=args.demand_cap)
    seed = _seed(args, mech)
    report = simulation.audit_truthfulness(
        instance, args.mechanism, dims=dims, seed=seed, demand_cap=args.demand_cap
    )
    _emit_json(args, report, seed=seed, dims=dims)
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
        valid=True,
        bidders=instance.n,
        total_supply=instance.total_supply,
        unit_capacity=instance.is_unit_capacity,
        curve_kind=instance.curve.kind,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="procure", description="Prior-free procurement auction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, generate=True, mechanism=False, trials=False, dims=False):
        p.add_argument("--instance", help="path to an instance JSON file")
        if generate:
            p.add_argument("--generate", help="inline generator spec, e.g. tightness:l=10,eps=1,n=4")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if mechanism:
            p.add_argument("--seed", type=int, default=None, help="RNG seed (default: PROCURE_SEED, else auto)")
            p.add_argument("--mechanism", required=True, help="pepa | pepac | kth-price | bid-independent:<f>")
            p.add_argument("--demand-cap", type=int, default=None, dest="demand_cap")
        if trials:
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (default: 10000)")
            p.add_argument("--benchmark", choices=("f", "t", "f2"), default="f2")
            p.add_argument("--exact", action="store_true", help="exact expectation over all coin splits")
        if dims:
            p.add_argument("--dims", default="valuation", help="comma list of audit dimensions: valuation,capacity")

    p_run = sub.add_parser("run", help="run one mechanism and print the outcome")
    add_common(p_run, mechanism=True)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("benchmark", help="print the omniscient benchmarks")
    add_common(p_bench)
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
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
    add_common(p_val, generate=False)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python flushes stdout at exit; point it at devnull so that the
        # flush cannot raise BrokenPipeError a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UnknownMechanismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_MECHANISM
    except benchmarks.BenchmarkUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_BENCHMARK
    except (ValueError, OSError) as exc:
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
