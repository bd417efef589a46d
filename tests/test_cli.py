import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import procure
from procure import simulation
from procure.cli import main
from procure.mechanisms import partition_mask, partition_profit_engine
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
    assert report.to_json_dict() == {"mechanism": "pepac", "deviations_tested": 384, "violations": []}


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
        assert json.loads(out)["run"]["outcome"]["profit"] == engine(partition_mask(inst.n, seed)), seed


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
