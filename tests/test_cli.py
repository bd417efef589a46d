import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import procure
from procure import simulation
from procure.cli import _fields, build_parser, main
from procure.mechanisms import partition_masks, partition_profit_engine
from procure.model import dumps_instance, loads_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_tightness(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["run"]["outcome"]["profit"] in (0.0, 10.0)
    assert payload["run"]["partition"]["seed"] == 7
    assert len(payload["run"]["partition"]["flips"]) == 4
    assert payload["seed"] == 7


def test_run_missing_instance_file(capsys):
    code, _, err = run_cli(capsys, "run", "--instance", "does-not-exist.json", "--mechanism", "pepa", "--seed", "1")
    assert code == 2
    assert err


def test_run_unknown_mechanism(capsys):
    code, _, err = run_cli(
        capsys, "run", "--generate", "example1:r=10,eps=1,n=4", "--mechanism", "vcg", "--seed", "1"
    )
    assert code == 3
    assert "unknown mechanism" in err


def test_run_kth_price_demo_lists_utilities(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--generate", "kth-price-demo", "--mechanism", "kth-price", "--demand-cap", "200"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["run"]["outcome"]["allocation"] == [100, 100, 0, 0]
    assert payload["seller_utilities"] == [400.0, 200.0, 0.0, 0.0]
    assert payload["run"]["outcome"]["profit"] == 1000.0


# a posted-price run with two losers: a seller who sells nothing has utility
# 0.0, not (0.0 - v) * 0 = -0.0
GOLDEN_RUN_LOSERS = """{
  "mechanism": "bid-independent:posted=0.3",
  "seed": null,
  "run": {
    "outcome": {
      "allocation": [
        1,
        0,
        0
      ],
      "payment_per_unit": [
        0.3,
        0.0,
        0.0
      ],
      "profit": 0.7
    },
    "partition": null,
    "f_prime": null,
    "f_double_prime": null,
    "chosen_side": null
  },
  "seller_utilities": [
    0.18208129632893894,
    0.0,
    0.0
  ]
}
"""


def test_run_golden_output_with_losers(capsys):
    code, out, err = run_cli(
        capsys, "run", "--generate", "uniform-random:n=3,seed=1", "--mechanism", "bid-independent:posted=0.3"
    )
    assert (code, out, err) == (0, GOLDEN_RUN_LOSERS, "")


def test_run_kth_price_requires_cap(capsys):
    code, _, err = run_cli(capsys, "run", "--generate", "kth-price-demo", "--mechanism", "kth-price")
    assert code == 2
    assert "demand cap" in err


def test_benchmark_example1(capsys):
    code, out, _ = run_cli(capsys, "benchmark", "--generate", "example1:r=10,eps=1,n=4")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"]["profit"] == 9.0
    assert payload["t"]["profit"] == 10.0
    assert payload["f2"]["profit"] == 2.0
    assert payload["opp"] == 1.0


def test_benchmark_single_bid_reports_f2_undefined(capsys):
    code, out, _ = run_cli(capsys, "benchmark", "--generate", "uniform-random:n=1,seed=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["f2"] is None
    assert "2 bidders" in payload["f2_note"]


def test_ratio_exact_tightness(capsys):
    code, out, _ = run_cli(
        capsys,
        "ratio",
        "--generate",
        "tightness:l=10,eps=1,n=4",
        "--mechanism",
        "pepa",
        "--benchmark",
        "f2",
        "--exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio_estimate"] == 0.25
    assert payload["method"] == "exhaustive"


def test_ratio_monte_carlo_within_band(capsys):
    code, out, _ = run_cli(
        capsys,
        "ratio",
        "--generate",
        "tightness:l=10,eps=1,n=4",
        "--mechanism",
        "pepa",
        "--benchmark",
        "f2",
        "--trials",
        "20000",
        "--seed",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ratio_estimate"] - 0.25) < 0.02
    assert payload["method"] == "monte-carlo"
    assert payload["seed"] == 1


# the Monte Carlo report on a capacitated n=40, m=191 instance, pinned byte
# for byte against the per-unit engine's output
GOLDEN_MONTE_CARLO = """{
  "trials": 10000,
  "mean_profit": 4.684133626478188,
  "std_error": 0.012590009484027085,
  "benchmark": 12.291792057314083,
  "ratio_estimate": 0.3810781702649249,
  "ratio_lower_bound_3sigma": 0.3780053857371711,
  "instance_digest": "63f8b33030f6c096e9a4b64965a612ff2540e8ff82362e01d48349c504192aa5",
  "method": "monte-carlo",
  "seed": 1,
  "mechanism": "pepac",
  "benchmark_name": "f"
}
"""


def test_ratio_monte_carlo_golden_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "ratio",
        "--mechanism",
        "pepac",
        "--benchmark",
        "f",
        "--trials",
        "10000",
        "--seed",
        "1",
        "--generate",
        "uniform-random:n=40,seed=3,qmax=8,curve=pwl",
    )
    assert code == 0
    assert out == GOLDEN_MONTE_CARLO


# the pepac audit of a capacitated n=6, m=1,453 pwl instance, pinned byte for
# byte against the output of audits that rebuilt the revenue table per deviation
# the Monte Carlo report on an n=70 instance: two 64-bit words of coins per
# draw and 1,500 trials, more than one batch of the lane-packed coin stream
GOLDEN_MONTE_CARLO_TWO_WORDS = """{
  "trials": 1500,
  "mean_profit": 22.815564301485896,
  "std_error": 0.07124644290338433,
  "benchmark": 48.5629039021145,
  "ratio_estimate": 0.4698146623907405,
  "ratio_lower_bound_3sigma": 0.4654133743388361,
  "instance_digest": "7ffc05eec9171bd4f9906d6ffaefc889e5b4e60e7325ea6c50d91a43d1dd17ae",
  "method": "monte-carlo",
  "seed": 5,
  "mechanism": "pepac",
  "benchmark_name": "f"
}
"""


def test_ratio_monte_carlo_golden_output_with_two_mask_words(capsys):
    code, out, err = run_cli(
        capsys,
        "ratio",
        "--mechanism",
        "pepac",
        "--benchmark",
        "f",
        "--trials",
        "1500",
        "--seed",
        "5",
        "--generate",
        "uniform-random:n=70,seed=7,qmax=5,curve=pwl",
    )
    assert (code, out, err) == (0, GOLDEN_MONTE_CARLO_TWO_WORDS, "")


GOLDEN_AUDIT = """{
  "mechanism": "pepac",
  "deviations_tested": 110,
  "violations": [],
  "seed": 3,
  "dims": [
    "valuation",
    "capacity"
  ]
}
"""
GOLDEN_AUDIT_SPEC = "uniform-random:n=6,seed=4,qmin=100,qmax=400,curve=pwl"


def test_audit_golden_output(capsys):
    code, out, err = run_cli(
        capsys,
        "audit",
        "--mechanism",
        "pepac",
        "--dims",
        "valuation,capacity",
        "--seed",
        "3",
        "--generate",
        GOLDEN_AUDIT_SPEC,
    )
    assert (code, out, err) == (0, GOLDEN_AUDIT, "")


# m = 10,096 in six blocks of 1,573-1,770 units; the pwl curve's four
# breakpoints fall inside the blocks, and the audit finds violations.
GOLDEN_AT_SCALE_SPEC = "uniform-random:n=6,seed=12,qmin=1500,qmax=1800,curve=pwl"
GOLDEN_AUDIT_AT_SCALE = """{
  "mechanism": "pepac",
  "deviations_tested": 112,
  "violations": [
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.2740481394783314,
        "q": 1770
      },
      "deviating_bid": {
        "v": 0.31005906767629465,
        "q": 1770
      },
      "gain": 0.11937195148589552
    },
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.2740481394783314,
        "q": 1770
      },
      "deviating_bid": {
        "v": 0.37475349206336445,
        "q": 1770
      },
      "gain": 53.181351499607025
    },
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.2740481394783314,
        "q": 1770
      },
      "deviating_bid": {
        "v": 0.3747554920633644,
        "q": 1770
      },
      "gain": 53.22977833675986
    },
    {
      "bidder": 2,
      "dim": "capacity",
      "true_bid": {
        "v": 0.2740481394783314,
        "q": 1770
      },
      "deviating_bid": {
        "v": 0.2740481394783314,
        "q": 885
      },
      "gain": 60.07657745897328
    },
    {
      "bidder": 2,
      "dim": "capacity",
      "true_bid": {
        "v": 0.2740481394783314,
        "q": 1770
      },
      "deviating_bid": {
        "v": 0.2740481394783314,
        "q": 1593
      },
      "gain": 19.699576910132826
    },
    {
      "bidder": 2,
      "dim": "capacity",
      "true_bid": {
        "v": 0.2740481394783314,
        "q": 1770
      },
      "deviating_bid": {
        "v": 0.2740481394783314,
        "q": 1769
      },
      "gain": 0.11937195148589552
    }
  ],
  "seed": 3,
  "dims": [
    "valuation",
    "capacity"
  ]
}
"""
GOLDEN_RUN_AT_SCALE = """{
  "mechanism": "pepac",
  "seed": 3,
  "run": {
    "outcome": {
      "allocation": [
        1742,
        0,
        1770,
        0,
        0,
        0
      ],
      "payment_per_unit": [
        0.3100580676762947,
        0.0,
        0.3100580676762947,
        0.0,
        0.0,
        0.0
      ],
      "profit": 900.8962521943408
    },
    "partition": {
      "flips": [
        true,
        false,
        true,
        true,
        false,
        true
      ],
      "seed": 3
    },
    "f_prime": 1560.9949164338138,
    "f_double_prime": 900.8962521943408,
    "chosen_side": "b_prime"
  },
  "seller_utilities": [
    521.202262029207,
    0.0,
    63.73757291039501,
    0.0,
    0.0,
    0.0
  ]
}
"""


def test_audit_and_run_golden_output_at_workload_scale(capsys):
    audit = run_cli(
        capsys, "audit", "--mechanism", "pepac", "--dims", "valuation,capacity", "--seed", "3",
        "--generate", GOLDEN_AT_SCALE_SPEC,
    )
    assert audit == (1, GOLDEN_AUDIT_AT_SCALE, "")
    run = run_cli(capsys, "run", "--mechanism", "pepac", "--seed", "3", "--generate", GOLDEN_AT_SCALE_SPEC)
    assert run == (0, GOLDEN_RUN_AT_SCALE, "")


def test_allocation_monotonicity_golden_report():
    inst = simulation.generate("uniform-random", {"n": 6, "seed": 4, "qmin": 100, "qmax": 400, "curve": "pwl"})
    assert inst.total_supply == 1453
    report = simulation.audit_allocation_monotonicity(inst, "pepac", seed=3)
    # compared as JSON text, so a -0.0 against a 0.0 would show
    expected = {"mechanism": "pepac", "deviations_tested": 384, "violations": []}
    assert json.dumps(report, default=_fields) == json.dumps(expected)


# benchmark reports pinned byte for byte against the per-unit scans, profits
# and the units, k_winners and price each optimum picks among tied counts
TIES_INSTANCE = {
    "bids": [{"v": 2.0, "q": 3}, {"v": 1.0, "q": 2}, {"v": 2.0, "q": 2}, {"v": 2.0, "q": 1}],
    "curve": {"kind": "pwl", "points": [[4, 12.0], [8, 20.0]]},
}
GOLDEN_BENCHMARK = {
    "uniform-random:n=40,seed=3,qmax=8,curve=pwl": (
        """{
  "f": {
    "profit": 12.291792057314083,
    "k_winners": 6,
    "units": 33,
    "price": 0.16309962197106975
  },
  "t": {
    "profit": 19.57506538844168,
    "k_winners": 13,
    "units": 61,
    "price": null
  },
  "f2": {
    "profit": 12.291792057314083,
    "k_winners": 6,
    "units": 33,
    "price": 0.16309962197106975
  },
  "f2_note": null,
  "opp": 0.16309962197106975
}
""",
        "f,t,f2,opp\n12.291792057314083,19.57506538844168,12.291792057314083,0.16309962197106975\n",
    ),
    "example1:r=10,eps=1,n=4": (
        """{
  "f": {
    "profit": 9.0,
    "k_winners": 1,
    "units": 1,
    "price": 1.0
  },
  "t": {
    "profit": 10.0,
    "k_winners": 2,
    "units": 2,
    "price": null
  },
  "f2": {
    "profit": 2.0,
    "k_winners": 2,
    "units": 2,
    "price": 9.0
  },
  "f2_note": null,
  "opp": 1.0
}
""",
        "f,t,f2,opp\n9.0,10.0,2.0,1.0\n",
    ),
    # F ties over counts 2 and 4..8, F^(2) over 4..8 and T over 4..8
    "ties": (
        """{
  "f": {
    "profit": 4.0,
    "k_winners": 1,
    "units": 2,
    "price": 1.0
  },
  "t": {
    "profit": 6.0,
    "k_winners": 2,
    "units": 4,
    "price": null
  },
  "f2": {
    "profit": 4.0,
    "k_winners": 2,
    "units": 4,
    "price": 2.0
  },
  "f2_note": null,
  "opp": 1.0
}
""",
        "f,t,f2,opp\n4.0,6.0,4.0,1.0\n",
    ),
    # one bid: F^(2) is undefined, so f2 is null with a note, and CSV leaves it empty
    "uniform-random:n=1,seed=1": (
        """{
  "f": {
    "profit": 0.43079612517778776,
    "k_winners": 1,
    "units": 1,
    "price": 0.5692038748222122
  },
  "t": {
    "profit": 0.43079612517778776,
    "k_winners": 1,
    "units": 1,
    "price": null
  },
  "f2": null,
  "f2_note": "needs at least 2 bidders",
  "opp": 0.5692038748222122
}
""",
        "f,t,f2,opp\n0.43079612517778776,0.43079612517778776,,0.5692038748222122\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BENCHMARK))
def test_benchmark_golden_output(capsys, tmp_path, name):
    if name == "ties":
        path = tmp_path / "ties.json"
        path.write_text(json.dumps(TIES_INSTANCE))
        source = ("--instance", str(path))
    else:
        source = ("--generate", name)
    json_text, csv_text = GOLDEN_BENCHMARK[name]
    assert run_cli(capsys, "benchmark", *source) == (0, json_text, "")
    assert run_cli(capsys, "benchmark", *source, "--format", "csv") == (0, csv_text, "")


@pytest.mark.parametrize("price", ["inf", "nan", "1e400", "-1"])
def test_run_rejects_bad_posted_price(capsys, price):
    code, out, err = run_cli(
        capsys, "run", "--generate", "uniform-random:n=3,seed=1", "--mechanism", f"bid-independent:posted={price}"
    )
    assert (code, out) == (3, "")
    assert err == f"error: bad posted price in 'bid-independent:posted={price}': {price} is not a finite price >= 0\n"


def test_ratio_rejects_nonpositive_benchmark(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"bids": [{"v": 50.0, "q": 1}, {"v": 60.0, "q": 1}], "curve": {"kind": "linear", "r": 10.0}})
    )
    code, _, err = run_cli(
        capsys, "ratio", "--instance", str(bad), "--mechanism", "pepa", "--benchmark", "f2", "--seed", "1"
    )
    assert code == 4
    assert "f2" in err


def test_ratio_exact_large_instance(capsys):
    code, out, _ = run_cli(
        capsys,
        "ratio",
        "--generate",
        "uniform-random:n=40,seed=1,vmax=0.9",
        "--mechanism",
        "pepa",
        "--benchmark",
        "f2",
        "--exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exhaustive"
    assert payload["ratio_estimate"] >= 0.25


# exact reports generated before threshold counting kept its DP prefix rows
# and enumeration walked half the draws: a unit-capacity n=16 pwl instance,
# which counts thresholds, and a capacitated one with six sellers, which
# enumerates draws
GOLDEN_EXACT_COUNTING = """{
  "trials": 0,
  "mean_profit": 1.2411396984107308,
  "std_error": 0.0,
  "benchmark": 2.806560262343986,
  "ratio_estimate": 0.44222805940185106,
  "ratio_lower_bound_3sigma": 0.44222805940185106,
  "instance_digest": "",
  "method": "exhaustive",
  "seed": null,
  "mechanism": "pepa",
  "benchmark_name": "f2"
}
"""
GOLDEN_EXACT_ENUMERATION = """{
  "trials": 0,
  "mean_profit": 52.39405577400341,
  "std_error": 0.0,
  "benchmark": 90.89473946807365,
  "ratio_estimate": 0.5764256114338342,
  "ratio_lower_bound_3sigma": 0.5764256114338342,
  "instance_digest": "",
  "method": "exhaustive",
  "seed": null,
  "mechanism": "pepac",
  "benchmark_name": "f2"
}
"""


@pytest.mark.parametrize(
    "spec, mechanism, refused, expected",
    [
        ("uniform-random:n=16,seed=5,vmax=0.9,curve=pwl", "pepa", "_min_side_by_enumeration", GOLDEN_EXACT_COUNTING),
        (
            "uniform-random:n=6,seed=4,qmin=100,qmax=400,curve=pwl",
            "pepac",
            "_min_side_by_counting",
            GOLDEN_EXACT_ENUMERATION,
        ),
    ],
)
def test_ratio_exact_golden_output(capsys, monkeypatch, spec, mechanism, refused, expected):
    def refuse(instance):
        raise AssertionError("wrong method chosen")

    monkeypatch.setattr(simulation, refused, refuse)
    code, out, err = run_cli(
        capsys, "ratio", "--generate", spec, "--mechanism", mechanism, "--benchmark", "f2", "--exact"
    )
    assert (code, out, err) == (0, expected, "")


def test_ratio_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "ratio",
        "--generate",
        "tightness:l=10,eps=1,n=4",
        "--mechanism",
        "pepa",
        "--benchmark",
        "f2",
        "--exact",
        "--format",
        "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "family,params,mechanism,benchmark,trials,mean,stderr,ratio"
    assert row.split(",")[0] == "tightness"


def test_audit_kth_price_violations_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--generate",
        "kth-price-demo",
        "--mechanism",
        "kth-price",
        "--demand-cap",
        "200",
        "--dims",
        "capacity",
    )
    assert code == 1
    payload = json.loads(out)
    hits = [
        v
        for v in payload["violations"]
        if v["bidder"] == 1 and v["deviating_bid"] == {"v": 8.0, "q": 90}
    ]
    assert len(hits) == 1
    assert abs(hits[0]["gain"] - 160.0) <= 1e-9


def test_audit_pepa_clean(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--generate",
        "example1:r=10,eps=1,n=4",
        "--mechanism",
        "pepa",
        "--dims",
        "valuation",
        "--seed",
        "11",
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


# a unit-capacity pepa valuation audit on a capped curve that finds
# violations: bidder 2 gains by shading its ask down to win a slot
GOLDEN_AUDIT_PEPA_SPEC = "uniform-random:n=3,seed=37,vmax=0.9,curve=capped"
GOLDEN_AUDIT_PEPA = """{
  "mechanism": "pepa",
  "deviations_tested": 31,
  "violations": [
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.8842573956746976,
        "q": 1
      },
      "deviating_bid": {
        "v": 0.0,
        "q": 1
      },
      "gain": 0.11574260432530237
    },
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.8842573956746976,
        "q": 1
      },
      "deviating_bid": {
        "v": 0.3939667452684697,
        "q": 1
      },
      "gain": 0.11574260432530237
    },
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.8842573956746976,
        "q": 1
      },
      "deviating_bid": {
        "v": 0.39396874526846964,
        "q": 1
      },
      "gain": 0.11574260432530237
    },
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.8842573956746976,
        "q": 1
      },
      "deviating_bid": {
        "v": 0.4421286978373488,
        "q": 1
      },
      "gain": 0.11574260432530237
    },
    {
      "bidder": 2,
      "dim": "valuation",
      "true_bid": {
        "v": 0.8842573956746976,
        "q": 1
      },
      "deviating_bid": {
        "v": 0.7101990042577908,
        "q": 1
      },
      "gain": 0.11574260432530237
    }
  ],
  "seed": 37,
  "dims": [
    "valuation"
  ]
}
"""


def test_audit_pepa_golden_output_with_violations(capsys):
    code, out, err = run_cli(
        capsys,
        "audit",
        "--mechanism",
        "pepa",
        "--dims",
        "valuation",
        "--seed",
        "37",
        "--generate",
        GOLDEN_AUDIT_PEPA_SPEC,
    )
    assert (code, out, err) == (1, GOLDEN_AUDIT_PEPA, "")


def test_audit_precondition_errors(capsys):
    assert run_cli(
        capsys, "audit", "--mechanism", "pepa", "--dims", "valuation", "--seed", "1", "--generate", "kth-price-demo"
    ) == (2, "", "error: pepa requires unit capacities; use pepac\n")
    for mechanism in ("pepa", "pepac"):
        assert run_cli(
            capsys, "audit", "--mechanism", mechanism, "--dims", "valuation,capacity", "--seed", "1",
            "--generate", "example1:r=10,eps=1,n=4",
        ) == (2, "", "error: capacity audits need a capacitated instance\n")


def test_audit_pepac_capacity_clean_on_linear(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--generate",
        "uniform-random:n=5,seed=4,qmin=2,qmax=4,vmax=1.0,curve=linear",
        "--mechanism",
        "pepac",
        "--dims",
        "valuation,capacity",
        "--seed",
        "2",
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_generate_validate_run_round_trip(capsys, tmp_path):
    path = tmp_path / "inst.json"
    code, out, _ = run_cli(capsys, "generate", "--generate", "kth-price-demo", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    inst = loads_instance(text)
    assert dumps_instance(inst) + "\n" == text

    code, out, _ = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 0
    assert json.loads(out)["valid"] is True

    code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--mechanism", "pepac", "--seed", "3")
    assert code == 0


def test_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"bids": [{"v": -1.0, "q": 1}], "curve": {"kind": "linear", "r": 1.0}}))
    code, _, err = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 2
    assert "bids[0]" in err


@pytest.mark.parametrize(
    "curve, field",
    [
        ('{"kind": "pwl", "points": [[1, NaN], [2, 3]]}', "curve.points[0][1]"),
        ('{"kind": "pwl", "points": [[2.7, 10.0], [4, 12.0]]}', "curve.points[0][0]"),
        ('{"kind": "pwl", "points": [[true, 10.0]]}', "curve.points[0][0]"),
        ('{"kind": "pwl", "points": [["3", 10.0]]}', "curve.points[0][0]"),
        ('{"kind": "pwl", "points": [[1, 2], [2, "14"]]}', "curve.points[1][1]"),
        ('{"kind": "pwl", "points": [[1, true]]}', "curve.points[0][1]"),
        ('{"kind": "linear", "r": "3"}', "curve.r"),
        ('{"kind": "linear", "r": true}', "curve.r"),
        ('{"kind": "capped", "r": "3", "D": 2}', "curve.r"),
        ('{"kind": "capped", "r": true, "D": 2}', "curve.r"),
    ],
    ids=[
        "nan", "fractional-q", "bool-q", "string-q", "string-R", "bool-R",
        "string-r-linear", "bool-r-linear", "string-r-capped", "bool-r-capped",
    ],
)
def test_validate_rejects_nan_curve_point(capsys, tmp_path, curve, field):
    path = tmp_path / "bad_point.json"
    path.write_text('{"bids": [{"v": 1, "q": 1}, {"v": 2, "q": 1}], "curve": %s}' % curve)
    code, _, err = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 2
    assert field in err


def test_supply_too_large_to_tabulate_is_an_input_error(capsys, tmp_path, monkeypatch):
    from procure import model

    def out_of_memory(curve, max_q):
        raise MemoryError

    path = tmp_path / "huge.json"
    path.write_text('{"bids": [{"v": 1, "q": 100000000}, {"v": 2, "q": 1}], "curve": {"kind": "linear", "r": 3}}')
    monkeypatch.setattr(model, "validate_curve", out_of_memory)
    code, out, err = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "declared supply" in err and "Traceback" not in err


def test_a_supply_of_10_8_units_validates_and_runs_in_bounded_memory(tmp_path):
    """Nothing on these paths grows with the declared supply: in a fresh
    ``python -m procure`` process limited to 1 GiB of address space, a file
    declaring 10^8 units validates and runs pepac. (``benchmark`` is left
    out: T sums the asks unit by unit, by design.)"""
    path = tmp_path / "huge.json"
    path.write_text('{"bids": [{"v": 1, "q": 100000000}, {"v": 2, "q": 1}], "curve": {"kind": "linear", "r": 3}}')
    env = {**os.environ, "PYTHONPATH": str(Path(procure.__file__).resolve().parent.parent)}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    def procure_cli(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "procure", *argv],
            env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        return json.loads(done.stdout)

    assert procure_cli("validate", "--instance", str(path))["total_supply"] == 100_000_001
    run = procure_cli("run", "--instance", str(path), "--mechanism", "pepac", "--seed", "1")["run"]
    assert run["outcome"]["profit"] == min(run["f_prime"], run["f_double_prime"])


def test_ratio_rejects_infinite_curve_slope(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"bids": [{"v": 1, "q": 1}, {"v": 2, "q": 1}], "curve": {"kind": "linear", "r": Infinity}}')
    code, _, err = run_cli(
        capsys, "ratio", "--instance", str(path), "--mechanism", "pepa", "--benchmark", "f2", "--exact"
    )
    assert code == 2
    assert "curve.r" in err


def test_pepac_runs_when_money_is_large(capsys, tmp_path):
    # the extracted price's rounding, about 3e-8 here, is far above EPS
    path = tmp_path / "large.json"
    path.write_text(
        '{"bids": [{"v": 51800000.0, "q": 1}, {"v": 155400000.0, "q": 2}],'
        ' "curve": {"kind": "linear", "r": 258999999.99999997}}'
    )
    inst = loads_instance(path.read_text())
    engine = partition_profit_engine(inst)
    for seed in range(1, 6):
        code, out, err = run_cli(capsys, "run", "--instance", str(path), "--mechanism", "pepac", "--seed", str(seed))
        assert code == 0, err
        assert json.loads(out)["run"]["outcome"]["profit"] == engine(next(partition_masks(inst.n, (seed,)))), seed


def test_same_seed_byte_identical_output(capsys):
    argv = [
        "ratio",
        "--generate",
        "tightness:l=10,eps=1,n=4",
        "--mechanism",
        "pepa",
        "--benchmark",
        "f2",
        "--trials",
        "2000",
        "--seed",
        "5",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PROCURE_SEED", "77")
    code, out, err = run_cli(
        capsys, "run", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 77
    assert "auto-chosen" not in err


@pytest.mark.parametrize("argv", [("--benchmark", "f", "--exact"), ("--seed", "1", "--trials", "10")])
def test_ratio_of_profits_summing_past_the_largest_float(capsys, argv):
    code, out, err = run_cli(
        capsys, "ratio", "--generate", "uniform-random:n=3,seed=1,curve=pwl,r=1e308", "--mechanism", "pepac", *argv
    )
    assert (code, err) == (0, "")
    assert 4e307 < json.loads(out)["mean_profit"] < 6e307


def test_a_slope_given_as_an_int_reports_what_the_same_float_does(capsys):
    """r=1 and r=1.0 build equal instances, so the reports, the instance
    digest included, are the same bytes."""
    outs = [
        run_cli(capsys, "ratio", "--mechanism", "pepac", "--seed", "1", "--trials", "100", "--benchmark", "f",
                "--generate", f"uniform-random:n=4,seed=1,r={r}")
        for r in ("1", "1.0")
    ]
    assert outs[0][0] == 0 and outs[0] == outs[1]


def test_two_demand_caps_report_two_digests(capsys):
    reports = []
    for cap in ("100", "200"):
        code, out, err = run_cli(capsys, "ratio", "--generate", "kth-price-demo", "--mechanism", "kth-price",
                                 "--trials", "1", "--benchmark", "f", "--demand-cap", cap)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    assert [r["mean_profit"] for r in reports] == [700.0, 1000.0]
    assert reports[0]["instance_digest"] != reports[1]["instance_digest"]


@pytest.mark.parametrize("seed_from", ["flag", "env"])
def test_ratio_rejects_a_negative_seed_by_the_value_given(capsys, monkeypatch, seed_from):
    argv = ["ratio", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa", "--trials", "5"]
    if seed_from == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("PROCURE_SEED", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_auto_seed_is_announced(capsys, monkeypatch):
    monkeypatch.delenv("PROCURE_SEED", raising=False)
    code, out, err = run_cli(
        capsys, "run", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa"
    )
    assert code == 0
    assert "seed auto-chosen" in err
    assert json.loads(out)["seed"] is not None


def test_generator_spec_parsing_errors(capsys):
    code, _, err = run_cli(capsys, "benchmark", "--generate", "nonesuch:x=1")
    assert code == 2
    assert "unknown family" in err
    code, _, err = run_cli(capsys, "benchmark", "--generate", "example1:r")
    assert code == 2


def test_requires_exactly_one_instance_source(capsys):
    code, _, err = run_cli(capsys, "benchmark")
    assert code == 2
    code, _, err = run_cli(
        capsys, "benchmark", "--instance", "x.json", "--generate", "kth-price-demo"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa", "--seed", "1", "--format", "csv"),
        ("audit", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa", "--seed", "1", "--format", "csv"),
        ("generate", "--generate", "kth-price-demo", "--format", "csv"),
        ("validate", "--instance", "x.json", "--format", "json"),
        ("benchmark", "--generate", "example1:r=10,eps=1,n=4", "--seed", "1"),
        ("generate", "--generate", "kth-price-demo", "--seed", "1"),
        ("validate", "--instance", "x.json", "--seed", "1"),
        ("validate", "--instance", "x.json", "--generate", "tightness:l=10,eps=1,n=4"),
    ],
)
def test_a_command_rejects_options_it_does_not_read(capsys, argv):
    """``run --format csv`` would print JSON, and ``benchmark --seed`` would
    be ignored: argparse refuses both with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_closed_stdout_exits_141_without_a_traceback():
    """Exit 1 would read as "audit found violations". The read end of the
    pipe is closed before the child starts, so its first write fails
    whatever the pipe's buffer size."""
    env = {**os.environ, "PYTHONPATH": str(Path(procure.__file__).resolve().parent.parent)}
    argv = ["audit", "--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa", "--seed", "1"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "procure", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
    done = subprocess.run([sys.executable, "-m", "procure", *argv], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0


_LOADED_AFTER_EACH_CALL = """
import json, sys
before = set(sys.modules)
from procure import cli
rows = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    rows.append([code, sorted({"_hashlib", "hashlib", "hmac", "secrets"} & (set(sys.modules) - before))])
with open(sys.argv[2], "w") as fh:
    json.dump(rows, fh)
"""


def test_only_a_digest_or_a_chosen_seed_loads_openssl(tmp_path):
    """``hashlib``, and ``secrets`` through ``hmac``, load OpenSSL's
    ``_hashlib``: about 3.5 MB per process. Only a Monte Carlo report's
    digest and a seed chosen for the user need them. Modules loaded before
    ``procure.cli`` do not count, so a site hook that preloads OpenSSL
    cannot fail this."""
    inst, out, loaded = str(tmp_path / "inst.json"), str(tmp_path / "out"), tmp_path / "loaded.json"
    file_args = ["--instance", inst, "--out", out]
    calls = [
        ["generate", "--generate", "tightness:l=10,eps=1,n=4", "--out", inst],
        ["validate", "--instance", inst],
        ["benchmark", *file_args],
        ["run", *file_args, "--mechanism", "pepac", "--seed", "1"],
        ["ratio", *file_args, "--mechanism", "pepa", "--exact"],
        ["audit", *file_args, "--mechanism", "pepac", "--seed", "1"],
        ["ratio", *file_args, "--mechanism", "pepa", "--seed", "1", "--trials", "10"],
        ["run", *file_args, "--mechanism", "pepac"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "PROCURE_SEED"}
    env["PYTHONPATH"] = str(Path(procure.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH_CALL, json.dumps(calls), str(loaded)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(loaded.read_text())
    assert [code for code, _ in rows] == [0] * len(calls), done.stderr
    assert [modules for _, modules in rows[:6]] == [[]] * 6
    assert "hashlib" in rows[6][1] and "secrets" not in rows[6][1]
    assert "secrets" in rows[7][1]
    assert done.stderr.startswith("seed auto-chosen: "), done.stderr


LAYERS = ["model", "benchmarks", "extraction", "mechanisms", "simulation", "cli"]


@pytest.mark.parametrize("depth", range(len(LAYERS)), ids=LAYERS)
def test_each_module_loads_only_the_modules_below_it(depth):
    """Each module imports only downward, model → benchmarks → extraction →
    mechanisms → simulation → cli, and the package itself loads none of
    them: importing one loads it and the layers below, nothing above."""
    env = {**os.environ, "PYTHONPATH": str(Path(procure.__file__).resolve().parent.parent)}
    show = "import json, sys, procure.{}; print(json.dumps(sorted(m for m in sys.modules if m.startswith('procure'))))"
    done = subprocess.run(
        [sys.executable, "-c", show.format(LAYERS[depth])], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sorted(["procure", *(f"procure.{m}" for m in LAYERS[: depth + 1])])


@pytest.mark.parametrize("case", ["write", "read"])
def test_a_file_that_cannot_be_opened_exits_2_without_a_traceback(tmp_path, case):
    """A directory given as the report or the instance is an input error,
    not exit 1, which would read as "audit found violations"."""
    env = {**os.environ, "PYTHONPATH": str(Path(procure.__file__).resolve().parent.parent)}
    if case == "write":
        argv = ["audit", "--generate", "kth-price-demo", "--mechanism", "pepac", "--seed", "1", "--out", str(tmp_path)]
    else:
        argv = ["validate", "--instance", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "procure", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(tmp_path) in lines[0], done.stderr


TIGHT_PEPA = ("--generate", "tightness:l=10,eps=1,n=4", "--mechanism", "pepa")
KTH_DEMO = ("--generate", "kth-price-demo", "--mechanism", "kth-price", "--demand-cap", "200")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("ratio", *TIGHT_PEPA, "--exact", "--trials", "7", "--seed", "3"), "--trials"),
        (("ratio", *TIGHT_PEPA, "--exact", "--trials", "10000"), "--trials"),
        (("ratio", *TIGHT_PEPA, "--exact", "--seed", "3"), "--seed"),
        (("run", *TIGHT_PEPA, "--demand-cap", "3", "--seed", "1"), "--demand-cap"),
        (("ratio", *TIGHT_PEPA, "--demand-cap", "3", "--seed", "1"), "--demand-cap"),
        (("audit", *TIGHT_PEPA, "--demand-cap", "3", "--seed", "1"), "--demand-cap"),
        (("run", *KTH_DEMO, "--seed", "3"), "--seed"),
        (("audit", *KTH_DEMO, "--seed", "3"), "--seed"),
        (("ratio", *KTH_DEMO, "--seed", "3"), "--seed"),
        (("generate", "--generate", "tightness:l=10,l=20"), "'l'"),
        (("generate", "--generate", "tightness:l=10,eps=1,n=4,n=3"), "'n'"),
    ],
)
def test_an_option_the_command_would_ignore_exits_2(capsys, argv, option):
    """``ratio --exact`` reads neither the trial count nor the seed, only
    kth-price reads a demand cap, a deterministic mechanism reads no seed,
    and a generator key given twice would overwrite its first value: each
    is refused by name, not ignored."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and option in err, err


LOADER_BIDS = [{"v": 1.0, "q": 1}, {"v": 2.0, "q": 2}]
LOADER_LINEAR = {"kind": "linear", "r": 10.0}


@pytest.mark.parametrize(
    "source, message",
    [
        ([LOADER_BIDS, LOADER_LINEAR], "top level must be an object"),
        ({"curve": LOADER_LINEAR}, "missing required field 'bids'"),
        ({"bids": LOADER_BIDS}, "missing required field 'curve'"),
        ({"bids": [], "curve": LOADER_LINEAR}, "'bids' must be a non-empty array"),
        ({"bids": {"v": 1.0, "q": 1}, "curve": LOADER_LINEAR}, "'bids' must be a non-empty array"),
        ({"bids": LOADER_BIDS, "curve": {"r": 10.0}}, "'curve' must be an object with a 'kind' field"),
        ({"bids": LOADER_BIDS, "curve": {"kind": "linear"}}, "curve missing required field 'r'"),
        ({"bids": LOADER_BIDS, "curve": {"kind": "capped", "r": 10.0}}, "curve missing required field 'D'"),
        ({"bids": LOADER_BIDS, "curve": {"kind": "pwl"}}, "curve missing required field 'points'"),
        (
            {"bids": LOADER_BIDS, "curve": {"kind": "pwl", "points": {"1": 2.0}}},
            "curve.points must be an array of [q, R] pairs",
        ),
        (
            {"bids": LOADER_BIDS, "curve": {"kind": "pwl", "points": [[1, 2.0, 3.0]]}},
            "curve.points[0] must be a [q, R] pair, got [1, 2.0, 3.0]",
        ),
        (
            {"bids": LOADER_BIDS, "curve": {"kind": "pwl", "points": [1]}},
            "curve.points[0] must be a [q, R] pair, got 1",
        ),
        (
            {"bids": LOADER_BIDS, "curve": {"kind": "pwl", "points": []}},
            "curve.points must hold at least one breakpoint",
        ),
        (
            {"bids": LOADER_BIDS, "curve": {"kind": "pwl", "points": [[1, 1.0], [3, 9.0]]}},
            "revenue curve rejected: marginal revenue increases at k=1: R(2)-R(1)=4 > R(1)-R(0)=1",
        ),
        (
            {"bids": LOADER_BIDS, "curve": {"kind": "linear", "r": 1.7e308}},
            "revenue curve rejected: R(3) = inf at the total supply is not finite",
        ),
        (("run", *TIGHT_PEPA), "PROCURE_SEED must be an integer, got 'x1'"),
        (("validate",), "validate needs --instance PATH"),
        (("run", *KTH_DEMO[:4], "--demand-cap", "-1"), "demand cap must be >= 0, got -1"),
    ],
    ids=[
        "not-an-object", "no-bids", "no-curve", "empty-bids", "bids-not-an-array", "no-kind", "no-r", "no-D",
        "no-points", "points-not-an-array", "point-of-three", "point-not-an-array", "no-breakpoints",
        "not-concave", "revenue-overflows", "bad-env-seed", "validate-without-instance", "negative-demand-cap",
    ],
)
def test_a_rejected_input_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path, source, message):
    """A malformed instance file is validated; a tuple is a command line.
    Every row runs with a PROCURE_SEED that is no integer, which only a
    command that draws coins reads."""
    monkeypatch.setenv("PROCURE_SEED", "x1")
    if not isinstance(source, tuple):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(source))
        source = ("validate", "--instance", str(path))
    assert run_cli(capsys, *source) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["run", "audit", "ratio"])
@pytest.mark.parametrize("mechanism", [KTH_DEMO, (*TIGHT_PEPA[:2], "--mechanism", "bid-independent:opp")])
def test_a_deterministic_mechanism_reports_a_null_seed_and_announces_none(capsys, monkeypatch, command, mechanism):
    """Without --seed, a mechanism that draws no coins neither reads
    PROCURE_SEED nor announces a seed of its own."""
    monkeypatch.setenv("PROCURE_SEED", "not a seed")
    code, out, err = run_cli(capsys, command, *mechanism)
    assert code in (0, 1) and err == "", err
    assert json.loads(out)["seed"] is None


HUGE_ASK = {
    "bids": [{"v": 1.0, "q": 1}, {"v": 1e308, "q": 1}, {"v": 2.0, "q": 1}],
    "curve": {"kind": "linear", "r": 10.0},
}


def test_an_audit_of_a_valid_instance_does_not_fail_on_its_own_probes(capsys, tmp_path):
    """Doubling the ask 1e308 overflows to inf, which is no valuation; the
    audit drops that probe instead of exiting 2 on it."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_ASK))
    assert run_cli(capsys, "validate", "--instance", str(path))[0] == 0
    assert run_cli(capsys, "run", "--instance", str(path), "--mechanism", "pepa", "--seed", "1")[0] == 0
    code, out, err = run_cli(capsys, "audit", "--instance", str(path), "--mechanism", "pepa", "--seed", "1")
    assert code in (0, 1) and err == "", err
    assert json.loads(out)["deviations_tested"] > 0


class RecordingNamespace(argparse.Namespace):
    """A parsed command line that records every name a command reads from it."""

    def __init__(self):
        super().__init__()
        self.read_names = set()

    def __getattribute__(self, name):
        object.__getattribute__(self, "read_names").add(name)
        return object.__getattribute__(self, name)


def _option_reads(tmp_path):
    """(subcommand, option, argv): a command line that gives the option a
    value other than its default, once for each way the subcommand can
    read it."""
    inst = tmp_path / "inst.json"
    inst.write_text(dumps_instance(simulation.generate("tightness", {"l": 10, "eps": 1, "n": 4})))
    tight = ("--generate", "tightness:l=10,eps=1,n=4")
    out = ("--out", str(tmp_path / "report.txt"))
    pepa = ("--mechanism", "pepa", "--seed", "1")
    rows = [
        ("benchmark", "format", (*tight, "--format", "csv")),
        ("audit", "dims", (*KTH_DEMO, "--dims", "capacity")),
        ("validate", "instance", ("--instance", str(inst))),
        ("validate", "out", ("--instance", str(inst), *out)),
    ]
    for command in ("run", "benchmark", "ratio", "audit", "generate"):
        mech = pepa if command in ("run", "ratio", "audit") else ()
        rows += [
            (command, "instance", ("--instance", str(inst), *mech)),
            (command, "generate", (*tight, *mech)),
            (command, "out", (*tight, *mech, *out)),
        ]
    for command in ("run", "ratio", "audit"):
        rows += [(command, "seed", (*tight, "--mechanism", m, "--seed", "1")) for m in ("pepa", "pepac")]
        rows += [
            (command, "seed", (*tight, "--mechanism", "bid-independent:zero", "--seed", "1")),
            (command, "seed", (*KTH_DEMO, "--seed", "1")),
            (command, "mechanism", (*tight, "--mechanism", "bid-independent:opp")),
            (command, "demand_cap", KTH_DEMO),
            (command, "demand_cap", (*tight, *pepa, "--demand-cap", "3")),
        ]
    rows += [
        ("ratio", "format", (*tight, *pepa, "--format", "csv")),
        ("ratio", "trials", (*tight, *pepa, "--trials", "9")),
        ("ratio", "trials", (*tight, "--mechanism", "pepa", "--exact", "--trials", "9")),
        ("ratio", "seed", (*tight, *pepa, "--exact")),
        ("ratio", "benchmark", (*tight, *pepa, "--benchmark", "f")),
        ("ratio", "exact", (*tight, "--mechanism", "pepa", "--exact")),
    ]
    return [(command, dest, (command, *argv)) for command, dest, argv in rows]


def test_every_option_a_subcommand_accepts_is_read(capsys, tmp_path):
    """An option that parses but that the command never reads would be
    silently ignored. Each row gives one option and checks that the
    command read it, whether it then ran or refused the option by name; the
    rows together cover every option of every subcommand."""
    rows = _option_reads(tmp_path)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        (command, action.dest)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest not in ("help", "func")
    }
    assert {(command, dest) for command, dest, _ in rows} == accepted
    for command, dest, argv in rows:
        args = build_parser().parse_args(argv, namespace=RecordingNamespace())
        args.read_names.clear()
        try:
            code = args.func(args)
        except ValueError:
            code = None  # refused by name, which reads the option too
        capsys.readouterr()
        assert code in (0, 1, None), argv
        assert dest in args.read_names, f"{command} does not read --{dest.replace('_', '-')}: {argv}"
