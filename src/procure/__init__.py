"""Prior-free multi-unit procurement auctions: mechanisms, benchmarks, and audits."""
