"""Each independent check of the benchmark must reject a known-wrong output.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

CONFIGS = BENCH.parent / "configs"


def bundled(stem):
    return json.loads((CONFIGS / f"{stem}.json").read_text())


@pytest.mark.parametrize(
    "stem, case",
    [
        ("case1_sym", "I-sym"),
        ("case1_asym", "I-asym"),
        ("case2_abs", "II-abs"),
        ("case3_clt", "III-clt"),
        ("case3_evt", "III-evt"),
        ("case4", "IV"),
    ],
)
def test_regime_from_paper_table(stem, case):
    assert checks.regime_of(bundled(stem)["model"]) == case


def test_regime_rejects_convergent_as_case_ii():
    model = {**bundled("case2_abs")["model"], "mu_x": -0.5}
    assert checks.regime_of(model) == "CONVERGENT"


def test_case1_variances():
    assert checks.case1_variance(bundled("case1_sym")["model"]) == pytest.approx(4 / 3)
    asym = bundled("case1_asym")["model"]
    assert checks.case1_variance(asym) == pytest.approx(1.44)
    q_one = {**asym, "q": {"family": "constant", "value": 1.0}}
    assert checks.case1_variance(q_one) == pytest.approx(2.0)


def row(n, N, mean, variance):
    return {"n": n, "N": N, "mean": mean, "variance": variance}


def test_asym_variance_rejects_q_one_law():
    model = bundled("case1_asym")["model"]
    assert checks.moment_errors(model, "I-asym", row(60, 100_000, 0.001, 1.438)) == []
    assert checks.moment_errors(model, "I-asym", row(60, 100_000, 0.001, 2.00))


def test_sym_variance_rejects_wrong_scale():
    model = bundled("case1_sym")["model"]
    assert checks.moment_errors(model, "I-sym", row(40, 100_000, 0.0, 1.333)) == []
    # 3 * BC(1/2), the limit for constant Q = 3, has variance 12
    assert checks.moment_errors(model, "I-sym", row(40, 100_000, 0.0, 12.0))


def test_case_ii_mean():
    model = bundled("case2_abs")["model"]
    assert checks.moment_errors(model, "II-abs", row(10_000, 2048, 1.62, 4.5)) == []
    assert checks.moment_errors(model, "II-abs", row(10_000, 2048, 1.0, 4.5))


def test_case_iii_clt_mean_rejects_lognormal_law():
    model = bundled("case3_clt")["model"]
    assert checks.moment_errors(model, "III-clt", row(10_000, 2048, 2.80, 7.0)) == []
    # e^N instead of e^|N|
    assert checks.moment_errors(model, "III-clt", row(10_000, 2048, math.exp(0.5), 4.7))


def test_case_iv_rejects_beta2_without_cross_term():
    model = bundled("case4")["model"]
    assert checks.moment_errors(model, "IV", row(10_000, 2048, 0.02, 3.0)) == []
    # EQ^2 alone, dropping 2 EQ E(QM) / (1 - EM)
    assert checks.moment_errors(model, "IV", row(10_000, 2048, 0.02, 1.0))
    # E R_n / sqrt(n) = 2 (1 - 2^-n) / sqrt(n) = 0.02, not 2
    assert checks.moment_errors(model, "IV", row(10_000, 2048, 2.0, 3.0))


def test_gamma_n():
    model = bundled("case3_evt")["model"]
    good = {"checkpoints": [{"n": 1000, "gamma_n": 1000.0}, {"n": 10_000, "gamma_n": 10_000.0}]}
    assert checks.gamma_errors(model, good) == []
    bad = {"checkpoints": [{"n": 1000, "gamma_n": math.sqrt(1000.0)}]}
    assert checks.gamma_errors(model, bad)


def write_csv(path, lines):
    path.write_text("n,ks,mean,variance,N\n" + "".join(line + "\n" for line in lines))
    return path


def test_csv_accepts_float_counts(tmp_path):
    path = write_csv(tmp_path / "c.csv", ["10.0,0.01,0.0,1.3,100000.0", "40.0,0.005,nan,nan,100000.0"])
    rows = checks.read_checkpoints(path)
    assert [r["n"] for r in rows] == [10, 40]
    assert rows[0]["N"] == 100_000
    assert math.isnan(rows[1]["mean"])


def test_csv_rejects_fractional_count(tmp_path):
    path = write_csv(tmp_path / "c.csv", ["10.5,0.01,0.0,1.3,100000.0"])
    with pytest.raises(ValueError):
        checks.read_checkpoints(path)


def test_verdict_recomputed_from_ks():
    config = {"ks_threshold": 0.08, "monotone_slack": 0.06}
    report = {"threshold": 0.08, "passed": True}
    assert checks.verdict_errors([0.05, 0.03, 0.02], report, config, 0) == []
    assert checks.verdict_errors([0.05, 0.03, 0.09], report, config, 0)  # final above threshold
    assert checks.verdict_errors([0.01, 0.08, 0.02], report, config, 0)  # not monotone
    assert checks.verdict_errors([0.05, 0.03, 0.02], report, config, 1)  # exit code disagrees


def asym_report(variance):
    return {
        "final_ok": False,
        "limit": "SymmetrizedPerpetuity(0.5, 0.7)",
        "final_ks": 0.105,
        "threshold": 0.0153,
    }, row(60, 100_000, 0.0, variance)


def test_asym_fault_named_only_when_samples_match_q_aware_law():
    model = bundled("case1_asym")["model"]
    cause = checks.asym_fault_cause(model, *asym_report(1.438))
    assert cause and "as if Q = 1" in cause
    # samples with the Q = 1 variance: the failure has another cause
    assert checks.asym_fault_cause(model, *asym_report(2.0)) is None


def test_identity_rejects_one_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write_csv(d / "checkpoints.csv", ["10.0,0.01,0.0,1.3,100000.0"])
        (d / "report.json").write_text('{"passed": true}\n')
    assert checks.identity_errors(a, b) == []
    data = bytearray((b / "checkpoints.csv").read_bytes())
    data[-3] ^= 1
    (b / "checkpoints.csv").write_bytes(bytes(data))
    assert checks.identity_errors(a, b)


def sample_dir(tmp_path, values, n=10):
    out = tmp_path / "sample"
    out.mkdir(parents=True)
    (out / f"samples_n{n}.csv").write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    (out / "report.json").write_text(json.dumps({"checkpoints": [{"n": n, "mean": mean, "variance": var}]}))
    return out


def test_sample_check(tmp_path):
    import numpy as np

    config = {**bundled("case1_sym"), "checkpoints": [10], "samples": 20_000}
    uniform = np.random.default_rng(3).uniform(-2.0, 2.0, 20_000).tolist()
    errors, cause = checks.check_sample(config, sample_dir(tmp_path, uniform), 0)
    assert errors == [] and cause is None
    errors, _ = checks.check_sample(config, sample_dir(tmp_path / "x", [3 * u for u in uniform]), 0)
    assert errors  # outside [-2, 2], variance 12
    errors, _ = checks.check_sample(config, sample_dir(tmp_path / "y", uniform[:-1]), 0)
    assert errors  # one value missing


def test_workload_inputs_follow_seed():
    a = workloads.make_ops("many_short", 1, CONFIGS)
    b = workloads.make_ops("many_short", 2, CONFIGS)
    assert a == workloads.make_ops("many_short", 1, CONFIGS)
    seeds = {op.name: (x.config["seed"], op.config["seed"]) for x, op in zip(a, b)}
    assert seeds["verify_case1_sym"][0] != seeds["verify_case1_sym"][1]
    # the Case I asym fault shows on every seed; its inputs stay fixed
    assert seeds["verify_case1_asym"] == (bundled("case1_asym")["seed"],) * 2
