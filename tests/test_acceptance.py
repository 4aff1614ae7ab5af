"""Acceptance battery: one test per criterion, one printed PASS/FAIL line each.

Every criterion runs at a frozen master seed, so outcomes are
deterministic; tolerances are DKW-calibrated for the exact-law checks
and property-based (monotone improvement plus a loose cap) for the
slow sqrt(n)-scale convergences.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perpsim import limits as lim
from perpsim.cli import main
from perpsim.models import (
    GAMMA_CASES,
    DiscreteJoint,
    LogNormalPair,
    QConstant,
    QLogNormal,
    QLogPareto,
    QRademacher,
    ScaledRademacher,
    SignedUnit,
    analytic_moments,
    beta_squared,
    classify,
    sign_gap,
    tail_quantile,
)
from perpsim.normalize import normalize_samples
from perpsim.limits import enumerate_exact, exact_moments_recursion
from perpsim.simulate import run_batch
from perpsim.stats import dkw_bound, ks_atoms, ks_one_sample, ks_two_sample, summary


def record(num: int, name: str, detail: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def regime_for(model):
    return classify(analytic_moments(model), model)


def normalized(model, checkpoints, count, seed, **kw):
    reg = regime_for(model)
    batch = run_batch(model, checkpoints, count, seed, **kw)
    out = {}
    for n in checkpoints:
        gamma = tail_quantile(model, n) if reg.case in GAMMA_CASES else None
        out[n] = normalize_samples(reg, batch.vectors(n), n, gamma)
    return reg, out


def test_criterion_01_case_i_uniform_limit():
    model = ScaledRademacher(2.0, 0.5, QRademacher(0.5))
    _, values = normalized(model, [40], 100_000, seed=101)
    law = lim.BernoulliConvolution(0.5)
    ks = ks_one_sample(values[40], lambda x: lim.cdf(law, x))
    ok = ks <= 0.01
    record(1, "case I sym rho=2 vs Uniform[-2,2]", f"ks={ks:.5f} <= 0.01", ok)
    assert ok


def test_criterion_02_case_i_rho3_series_sampler():
    # BernoulliConvolution(1/3) has no closed CDF: the KS upper bound
    # against its bracket, the law of its truncated series on a grid
    model = ScaledRademacher(3.0, 0.5, QRademacher(0.5))
    _, values = normalized(model, [40], 100_000, seed=102)
    bracket = lim.bracket(lim.BernoulliConvolution(1.0 / 3.0), 100_000)
    _, ks = ks_one_sample(values[40], bracket.lower, bracket.upper)
    ok = ks <= 0.015
    record(
        2,
        "case I sym rho=3 vs bracketed series",
        f"ks={ks:.5f} <= 0.015 (K={bracket.terms}, width={bracket.width:.5f})",
        ok,
    )
    assert ok


def test_criterion_03_case_i_asym_symmetry():
    model = ScaledRademacher(2.0, 0.7, QRademacher(0.7))
    _, values = normalized(model, [60], 100_000, seed=103)
    vals = values[60]
    ks = ks_two_sample(vals, -vals)
    gap = sign_gap(0.7, 60)
    balance = abs((vals > 0).mean() - (vals < 0).mean())
    ok = ks <= 0.015 and gap < 1e-9 and balance <= 0.01 + gap
    record(
        3,
        "case I asym rho=2 p=0.7 symmetric limit",
        f"ks(sample,-sample)={ks:.5f} <= 0.015, sign_gap={gap:.2e}, "
        f"balance={balance:.5f} <= 0.01",
        ok,
    )
    assert ok


def test_criterion_04_case_ii_lognormal_positive():
    model = LogNormalPair(0.5, 1.0, QConstant(1.0))
    checkpoints = [100, 1000, 10_000]
    _, values = normalized(model, checkpoints, 20_000, seed=104, workers=2)
    law = lim.LogNormalPositive()
    ks = {
        n: ks_one_sample(np.abs(values[n]), lambda x: lim.cdf(law, x))
        for n in checkpoints
    }
    monotone = all(
        ks[b] <= ks[a] + 0.01 for a, b in zip(checkpoints, checkpoints[1:])
    )
    ok = monotone and ks[10_000] <= 0.08
    record(
        4,
        "case II abs vs LogNormalPositive",
        "ks=" + ", ".join(f"{n}:{ks[n]:.4f}" for n in checkpoints)
        + f"; monotone(slack 0.01)={monotone}, final <= 0.08",
        ok,
    )
    assert ok


def test_criterion_05_case_iii_clt_exp_half_normal():
    model = LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0))
    checkpoints = [100, 1000, 10_000]
    _, values = normalized(model, checkpoints, 20_000, seed=105, workers=2)
    law = lim.ExpHalfNormal()
    ks = {
        n: ks_one_sample(values[n], lambda x: lim.cdf(law, x))
        for n in checkpoints
    }
    monotone = all(
        ks[b] <= ks[a] + 0.01 for a, b in zip(checkpoints, checkpoints[1:])
    )
    ok = monotone and ks[10_000] <= 0.08
    record(
        5,
        "case III clt vs ExpHalfNormal",
        "ks=" + ", ".join(f"{n}:{ks[n]:.4f}" for n in checkpoints)
        + f"; monotone(slack 0.01)={monotone}, final <= 0.08",
        ok,
    )
    assert ok


def test_criterion_06_case_iii_evt_exp_frechet():
    model = LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0))
    assert tail_quantile(model, 10_000) == pytest.approx(10_000.0)
    _, values = normalized(model, [10_000], 20_000, seed=106, workers=2)
    law = lim.ExpFrechet(-1.0)
    ks = ks_one_sample(values[10_000], lambda x: lim.cdf(law, x))
    ok = ks <= 0.05
    record(6, "case III evt vs ExpFrechet(-1)", f"ks={ks:.5f} <= 0.05", ok)
    assert ok


def test_criterion_07_case_iv_gaussian():
    model = SignedUnit(0.75, QConstant(1.0))
    beta2 = beta_squared(analytic_moments(model))
    assert beta2 == pytest.approx(3.0)
    _, values = normalized(model, [10_000], 10_000, seed=107, workers=2)
    vals = values[10_000]
    var = summary(vals).variance
    var_ok = abs(var - beta2) <= 0.05 * beta2
    law = lim.Gaussian(beta2)
    ks = ks_one_sample(vals, lambda x: lim.cdf(law, x))
    ks_ok = ks <= 0.02
    ok = var_ok and ks_ok
    record(
        7,
        "case IV vs Gaussian(3)",
        f"var={var:.4f} within 5% of 3: {var_ok}; ks={ks:.5f} <= 0.02: {ks_ok}",
        ok,
    )
    assert ok


ORACLE_FIXTURES = [
    # the |M| = 1, Q = 1 classic
    DiscreteJoint((((1.0, 1.0), 0.5), ((1.0, -1.0), 0.5))),
    # |M| = 1 with (Q, M) dependent
    DiscreteJoint((((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.25), ((2.0, -1.0), 0.25))),
    # general magnitudes and signs
    DiscreteJoint((((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.4), ((2.0, -1.5), 0.3))),
]


def test_criterion_08_oracle_equivalence():
    n_samples = 100_000
    bound = dkw_bound(n_samples, 0.01)
    checkpoints = list(range(1, 11))
    worst_dev = 0.0
    worst_mom = 0.0
    off_atoms = 0
    ok = True
    for k, model in enumerate(ORACLE_FIXTURES):
        batch = run_batch(model, checkpoints, n_samples, master_seed=108 + k)
        unit_m = all(abs(abs(m) - 1.0) < 1e-12 for (_, m), _ in model.atoms)
        for n in checkpoints:
            exact = enumerate_exact(model, n)
            xs = batch.to_reals(n)
            off = int(np.count_nonzero(~np.isin(xs, exact.values)))
            off_atoms += off
            dev = ks_atoms(xs, exact.values, exact.probs)
            worst_dev = max(worst_dev, dev)
            ok = ok and off == 0 and dev <= bound
            if unit_m:
                mean, var = exact_moments_recursion(model, n)
                mom_err = max(
                    abs(mean - exact.mean()), abs(var - exact.variance())
                )
                worst_mom = max(worst_mom, mom_err)
                ok = ok and mom_err <= 1e-10
    record(
        8,
        "oracle equivalence over 3 fixtures, n <= 10",
        f"samples off the atoms={off_atoms}; "
        f"max ecdf deviation={worst_dev:.5f} <= dkw={bound:.5f}; "
        f"max moment error={worst_mom:.2e} <= 1e-10",
        ok,
    )
    assert ok


def test_criterion_09_sign_gap_identity():
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        pf = Fraction(p).limit_denominator(10)
        for n in range(1, 13):
            gap = Fraction(0)
            for k in range(n + 1):
                term = math.comb(n, k) * (1 - pf) ** k * pf ** (n - k)
                gap += term if k % 2 == 0 else -term
            worst = max(worst, abs(sign_gap(p, n) - float(gap)))
    ok = worst <= 1e-12
    record(9, "sign-product gap identity", f"max |error|={worst:.2e} <= 1e-12", ok)
    assert ok


def test_criterion_10_sum_form_cross_check():
    # R_n equals S_n = sum_k Q_k prod_{j<k} M_j in law; at mu = 0.5, v2 = 1
    # and n = 20, S_n stays inside double range, so plain float64 samples it
    model = LogNormalPair(0.5, 1.0, QConstant(1.0))
    n, count = 20, 100_000
    rec = run_batch(model, [n], count, master_seed=110)
    x = np.random.default_rng(210).normal(0.5, 1.0, size=(count, n))
    prefix = np.cumsum(x, axis=1) - x  # ln prod_{j<k} M_j, from 0 at k = 1
    alt = np.exp(prefix).sum(axis=1)
    ks = ks_two_sample(np.log(rec.to_reals(n)), np.log(alt))
    ok = ks <= 0.01
    record(
        10,
        "recursion vs sum form (case II fixture)",
        f"two-sample ks={ks:.5f} <= 0.01",
        ok,
    )
    assert ok


def test_criterion_11_reproducibility_across_workers(tmp_path):
    config = {
        "model": {
            "family": "scaled_rademacher",
            "rho": 2.0,
            "p": 0.5,
            "q": {"family": "rademacher", "p": 0.5},
        },
        "checkpoints": [10, 40],
        "samples": 20_000,
        "seed": 111,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = main(
            [
                "verify",
                "--config",
                str(path),
                "--out",
                str(out),
                "--workers",
                str(workers),
                "--quiet",
            ]
        )
        assert code == 0
        outputs[workers] = (out / "checkpoints.csv").read_bytes()
    ok = outputs[1] == outputs[8]
    record(
        11,
        "verify CSV byte-identical at workers 1 vs 8",
        f"{len(outputs[1])} bytes, identical={ok}",
        ok,
    )
    assert ok


def test_criterion_12_case_i_limits_carry_q(tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    q3 = json.loads((configs / "case1_sym.json").read_text())
    q3["model"]["q"] = {"family": "constant", "value": 3.0}
    q3["samples"] = 20_000
    (tmp_path / "case1_sym_q3.json").write_text(json.dumps(q3))
    runs = [configs / "case1_sym.json", configs / "case1_asym.json", tmp_path / "case1_sym_q3.json"]
    results = []
    for path in runs:
        out = tmp_path / path.stem
        code = main(["verify", "--config", str(path), "--out", str(out), "--workers", "2", "--quiet"])
        report = json.loads((out / "report.json").read_text())
        results.append((path.stem, code, report["final_ks"], report["threshold"]))
    ok = all(code == 0 for _, code, _, _ in results)
    record(
        12,
        "verify passes Case I with Q in the limit (sym, asym, sym Q=3)",
        "; ".join(f"{name}: ks={ks:.5f} <= {thr:.5f}" for name, _, ks, thr in results),
        ok,
    )
    assert ok
