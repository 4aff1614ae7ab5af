"""Checks of the program's outputs against computations made apart from it.

Nothing here imports perpsim: the regime comes from the config by the
PAPER.md table, and the limit moments from closed forms. Every check
returns a list of error strings; an empty list means the output passed.

Sampling tolerances are Z standard errors of the estimator (CLT), plus a
relative allowance for the finite-n bias where the limit is reached at
rate 1/sqrt(n).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

Z = 6.0  # standard errors; a correct run exceeds this with odds ~1e-9
FINITE_N_REL = 0.02  # finite-n allowance for the sqrt(n)-rate limits (II, III)
CHECKPOINT_COLUMNS = ["n", "ks", "mean", "variance", "N"]


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _q_moments(q: dict) -> tuple[float, float]:
    """(EQ, EQ^2) of a finite-variance Q law."""
    fam = q["family"]
    if fam == "constant":
        return q["value"], q["value"] ** 2
    if fam == "rademacher":
        return 2.0 * q["p"] - 1.0, 1.0
    if fam == "lognormal":
        return math.exp(q["mean"] + q["var"] / 2), math.exp(2 * q["mean"] + 2 * q["var"])
    raise ValueError(f"no finite moments for Q family {fam!r}")


def regime_of(model: dict) -> str:
    """Case of the PAPER.md table, from the config's (Q, M) law alone."""
    fam = model["family"]
    if fam == "scaled_rademacher":  # |M| = rho > 1 constant, sign random
        return "I-sym" if model["p"] == 0.5 else "I-asym"
    if fam == "lognormal_pair":  # M = e^X > 0, E ln M = mu_x, E M = e^(mu_x + v2/2)
        if model["mu_x"] > 0:
            return "II-abs"
        if model["mu_x"] < 0:
            return "CONVERGENT"
        q = model["q"]["family"]
        if q in ("constant", "lognormal"):
            return "III-clt"  # E ln^2 Q finite: light Q tails
        if q == "log_pareto" and -2.0 < model["q"]["alpha"] < 0.0:
            return "III-evt"
    if fam == "signed_unit":  # M = +-1: E ln|M| = 0, E|M| = 1
        return "IV"
    raise ValueError(f"no regime derivation for {model}")


def case1_variance(model: dict) -> float:
    """Variance of the Case I limit of R_n / rho^(n-1), Q law included.

    X = r * sum_k lam^k Q_(k+1) prod_(j<=k) eps_j with r a fair sign, so
    E X = 0 and E X^2 = EQ^2/(1-lam^2) + 2 (EQ)^2 lam e / ((1-lam^2)(1-lam e)),
    with lam = 1/rho and e = E eps = 2p - 1.
    """
    lam = 1.0 / model["rho"]
    e = 2.0 * model["p"] - 1.0
    mq, mq2 = _q_moments(model["q"])
    return mq2 / (1 - lam * lam) + 2 * mq * mq * lam * e / ((1 - lam * lam) * (1 - lam * e))


def _case1_bound(model: dict) -> float:
    """sup |X| of the Case I limit: max|Q| / (1 - lam)."""
    q = model["q"]
    qmax = abs(q["value"]) if q["family"] == "constant" else 1.0
    return qmax / (1.0 - 1.0 / model["rho"])


def limit_targets(model: dict, case: str, n: int, samples: int) -> dict:
    """{statistic: (target, tolerance)} for the normalized samples at n."""
    if case in ("I-sym", "I-asym"):
        var = case1_variance(model)
        b = _case1_bound(model)
        # var(sample variance) <= E X^4 / N <= sup X^2 * var / N
        return {
            "mean": (0.0, Z * math.sqrt(var / samples)),
            "variance": (var, Z * math.sqrt(b * b * var / samples)),
        }
    if case == "II-abs":  # e^N
        mean = math.exp(0.5)
        sd = math.sqrt((math.e - 1.0) * math.e)
        return {"mean": (mean, Z * sd / math.sqrt(samples) + FINITE_N_REL * mean)}
    if case == "III-clt":  # e^|N|
        mean = 2.0 * math.exp(0.5) * _phi(1.0)
        sd = math.sqrt(2.0 * math.exp(2.0) * _phi(2.0) - mean * mean)
        return {"mean": (mean, Z * sd / math.sqrt(samples) + FINITE_N_REL * mean)}
    if case == "IV":  # R_n / sqrt(n), Gaussian(beta^2) in the limit
        mq, mq2 = _q_moments(model["q"])
        a = 2.0 * model["p_m"] - 1.0  # EM
        mqm = mq * a  # Q independent of M
        beta2 = mq2 + 2.0 * mq * mqm / (1.0 - a)
        mean_n = mq * (1.0 - a**n) / (1.0 - a)  # E R_n
        # E R_n^2 = n EQ^2 + 2 E(QM) sum_(k<n) E R_k, since M^2 = 1
        sum_means = mq / (1.0 - a) * (n - (1.0 - a**n) / (1.0 - a))
        var_n = (n * mq2 + 2.0 * mqm * sum_means - mean_n**2) / n
        return {
            "mean": (mean_n / math.sqrt(n), Z * math.sqrt(beta2 / samples)),
            "variance": (var_n, Z * var_n * math.sqrt(2.0 / (samples - 1))),
        }
    raise ValueError(f"no closed-form moments for {case}")


def moment_errors(model: dict, case: str, row: dict) -> list[str]:
    errors = []
    for stat, (target, tol) in limit_targets(model, case, row["n"], row["N"]).items():
        value = row[stat]
        if not abs(value - target) <= tol:
            errors.append(
                f"{case} n={row['n']}: {stat} {value:.6g} is not within "
                f"{tol:.3g} of the limit's {target:.6g}"
            )
    return errors


def gamma_errors(model: dict, report: dict) -> list[str]:
    """III-evt: reported gamma_n against t0 * n^(-1/alpha)."""
    q = model["q"]
    errors = []
    for row in report["checkpoints"]:
        want = q["t0"] * row["n"] ** (-1.0 / q["alpha"])
        if not math.isclose(row["gamma_n"], want, rel_tol=1e-12):
            errors.append(f"n={row['n']}: gamma_n {row['gamma_n']} != t0 n^(-1/alpha) = {want}")
    return errors


def read_checkpoints(path: Path) -> list[dict]:
    """Rows of checkpoints.csv; n and N may be written as floats (``10.0``)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != CHECKPOINT_COLUMNS:
            raise ValueError(f"{path}: header {header} != {CHECKPOINT_COLUMNS}")
        rows = []
        for cells in reader:
            row = dict(zip(header, map(float, cells)))
            for key in ("n", "N"):
                if not row[key].is_integer():
                    raise ValueError(f"{path}: {key} = {row[key]} is not a whole number")
                row[key] = int(row[key])
            rows.append(row)
    return rows


def verdict_errors(ks: list[float], report: dict, config: dict, exit_code: int) -> list[str]:
    """Recompute verify's pass/fail from the KS column and the config."""
    errors = []
    threshold = report["threshold"]
    if config.get("ks_threshold") is not None and threshold != config["ks_threshold"]:
        errors.append(f"threshold {threshold} != config ks_threshold {config['ks_threshold']}")
    slack = config.get("monotone_slack", 0.01)
    monotone = all(b <= a + slack for a, b in zip(ks, ks[1:]))
    passed = monotone and ks[-1] <= threshold
    if report["passed"] != passed:
        errors.append(f"report says passed={report['passed']}, KS column gives {passed}")
    if (exit_code == 0) != passed:
        errors.append(f"exit code {exit_code} disagrees with verdict passed={passed}")
    return errors


def _checkpoint_errors(rows: list[dict], config: dict) -> list[str]:
    if [r["n"] for r in rows] != list(config["checkpoints"]):
        return [f"checkpoints {[r['n'] for r in rows]} != config {config['checkpoints']}"]
    if any(r["N"] != config["samples"] for r in rows):
        return [f"N column != samples {config['samples']}"]
    return []


def asym_fault_cause(model: dict, report: dict, final: dict) -> str | None:
    """Name the Case I limit-law fault when it explains a failed I-asym verify.

    limits.limit_for builds SymmetrizedPerpetuity(lam, p) as if Q = 1, so its
    reference has the Q = 1 variance while the samples have the Q-aware one.
    """
    q_aware = case1_variance(model)
    q_one = case1_variance({**model, "q": {"family": "constant", "value": 1.0}})
    _, tol = limit_targets(model, "I-asym", final["n"], final["N"])["variance"]
    v = final["variance"]
    if (
        not report["final_ok"]
        and report["limit"].startswith("SymmetrizedPerpetuity")
        and abs(v - q_aware) <= tol < abs(v - q_one)
    ):
        return (
            f"limits.limit_for builds {report['limit']} as if Q = 1: its reference "
            f"has variance {q_one:.2f}, the simulated samples {v:.4f} (Q-aware limit "
            f"{q_aware:.2f}); final KS {report['final_ks']:.4f} > threshold "
            f"{report['threshold']:.4f}"
        )
    return None


def check_verify(config: dict, out: Path, exit_code: int) -> tuple[list[str], str | None]:
    """(errors, failure cause) of one verify run; the cause is None on success."""
    report = json.loads((out / "report.json").read_text())
    rows = read_checkpoints(out / "checkpoints.csv")
    model = config["model"]
    case = regime_of(model)
    errors = []
    if report["regime"]["case"] != case:
        errors.append(f"regime {report['regime']['case']} != {case} from the PAPER.md table")
    errors += _checkpoint_errors(rows, config)
    errors += verdict_errors([r["ks"] for r in rows], report, config, exit_code)
    if case == "III-evt":  # inf samples: CSV mean and variance are NaN
        errors += gamma_errors(model, report)
    else:
        errors += moment_errors(model, case, rows[-1])
    cause = None
    if exit_code != 0:
        if case == "I-asym":
            cause = asym_fault_cause(model, report, rows[-1])
        cause = cause or f"unexpected failure, exit code {exit_code}"
    return errors, cause


def check_sample(config: dict, out: Path, exit_code: int) -> tuple[list[str], str | None]:
    """Exported normalized samples of a Case I config against the limit."""
    if exit_code != 0:
        return [], f"unexpected failure, exit code {exit_code}"
    report = json.loads((out / "report.json").read_text())
    model = config["model"]
    case = regime_of(model)
    bound = _case1_bound(model)
    errors = []
    for n, row in zip(config["checkpoints"], report["checkpoints"]):
        values = np.loadtxt(out / f"samples_n{n}.csv", skiprows=1, ndmin=1)
        if values.size != config["samples"]:
            errors.append(f"samples_n{n}.csv has {values.size} values, not {config['samples']}")
            continue
        if not np.all(np.abs(values) <= bound):
            errors.append(f"samples_n{n}.csv has values outside [-{bound}, {bound}]")
        mean, var = float(values.mean()), float(values.var(ddof=1))
        if not (math.isclose(mean, row["mean"], rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(var, row["variance"], rel_tol=1e-9)):
            errors.append(f"n={n}: report mean/variance disagree with samples_n{n}.csv")
        errors += moment_errors(model, case, {"n": n, "N": values.size, "mean": mean, "variance": var})
    return errors, None


def digest(out: Path) -> str:
    """Hash of the names and bytes of every file a CLI run wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def identity_errors(a: Path, b: Path) -> list[str]:
    """checkpoints.csv and report.json of two runs must match byte for byte."""
    return [
        f"{name} differs between {a} and {b}"
        for name in ("checkpoints.csv", "report.json")
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


CHECKERS = {"verify": check_verify, "sample": check_sample}
