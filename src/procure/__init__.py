"""Prior-free multi-unit procurement auctions: mechanisms, benchmarks, and audits."""

from .benchmarks import (
    BenchmarkResult,
    BenchmarkUndefinedError,
    exact_pepa_ratio,
    harmonic,
    optimal_multi_price,
    optimal_single_price,
    optimal_single_price_min2,
)
from .extraction import ExtractionResult
from .mechanisms import (
    Mechanism,
    MechanismRun,
    PartitionDraw,
    UndefinedPriceError,
    UnknownMechanismError,
    resolve_mechanism,
    run_bid_independent,
    run_kth_price,
    run_pepa,
    run_pepac,
)
from .model import (
    EPS,
    AuctionOutcome,
    Bid,
    CurveValidation,
    Instance,
    InstanceFormatError,
    RevenueCurve,
    capped_curve,
    dumps_instance,
    linear_curve,
    load_instance,
    loads_instance,
    make_instance,
    make_outcome,
    pwl_curve,
    validate_curve,
)
from .simulation import (
    AuditReport,
    AuditViolation,
    BenchmarkNotPositiveError,
    RatioReport,
    ReportedBid,
    audit_allocation_monotonicity,
    audit_truthfulness,
    benchmark_value,
    estimate_ratio,
    exhaustive_expected_profit,
    generate,
)

__version__ = "0.1.0"
