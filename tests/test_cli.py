import json

from procure import simulation
from procure.cli import main
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


def test_allocation_monotonicity_golden_report():
    inst = simulation.generate("uniform-random", {"n": 6, "seed": 4, "qmin": 100, "qmax": 400, "curve": "pwl"})
    assert inst.total_supply == 1453
    report = simulation.audit_allocation_monotonicity(inst, "pepac", seed=3)
    assert report.to_json_dict() == {"mechanism": "pepac", "deviations_tested": 384, "violations": []}


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


def test_validate_rejects_nan_curve_point(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"bids": [{"v": 1, "q": 1}, {"v": 2, "q": 1}], "curve": {"kind": "pwl", "points": [[1, NaN], [2, 3]]}}')
    code, _, err = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 2
    assert "curve.points[0][1]" in err


def test_ratio_rejects_infinite_curve_slope(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"bids": [{"v": 1, "q": 1}, {"v": 2, "q": 1}], "curve": {"kind": "linear", "r": Infinity}}')
    code, _, err = run_cli(
        capsys, "ratio", "--instance", str(path), "--mechanism", "pepa", "--benchmark", "f2", "--exact"
    )
    assert code == 2
    assert "curve.r" in err


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
