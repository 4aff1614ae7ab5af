"""Command-line driver: classify / verify / oracle / sample pipelines.

Every command reads one JSON config (see ``perpsim.config``), writes a
``manifest.json`` echoing the fully resolved configuration, a
``report.json`` with the structured outcome, and (where applicable) a
``checkpoints.csv`` with fixed column order ``n,ks,mean,variance,N``.
Outputs carry no timestamps, so a fixed config and seed reproduce them
byte for byte at any worker count.

verify, sample and oracle share one loop (``_rows``): after the batch,
for each checkpoint n in order, the samples at n, their distance to n's
reference and their summary, one checkpoint's samples at a time. verify
and sample take the samples normalized, against the limit law by a
one-sample KS: its closed CDF or, for a Case I series law with none, its
bracketed CDF, whose upper bound on the KS is the ``ks`` written (the
report's rows add the lower bound and the bracket's width); the oracle
takes R_n itself, against its exact law at n. Each command keeps only
its own part: verify the final cap and the monotone gate, sample a CSV
per checkpoint, the oracle a Bonferroni-split DKW gate at every
checkpoint and the exact moments.

Default KS thresholds are engineering choices, labeled as such in the
report: DKW(N, 0.01) + 0.005 for the fast-converging exact-law regimes
(Cases I and IV), looser flat caps for the sqrt(n)-scale convergences of
Cases II and III. Override with ``ks_threshold`` in the config.

Exit codes: 0 pass, 1 verification failure, 2 invalid input,
3 unsupported regime, 4 run error (a pool worker process died, or
raised an exception not perpsim's own).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import limits as lim
from .config import RunConfig, load_config, resolved_dict
from .errors import (
    ConfigError,
    DomainError,
    ExponentOverflowError,
    InvalidInputError,
    InvalidModelError,
    NativeRangeError,
    TooLargeError,
    UnsupportedError,
    WorkerError,
)
from .limits import exact_laws, exact_moments_recursion
from .models import (
    GAMMA_CASES,
    DiscreteJoint,
    RegimeReport,
    analytic_moments,
    classify,
    tail_quantile,
)
from .normalize import normalize_samples
from .simulate import run_batch
from .stats import dkw_bound, ks_atoms, ks_one_sample, summary
# ks_two_sample is unused here but stays a module name: perfbench/tracing.py wraps it
from .stats import ks_two_sample  # noqa: F401

__all__ = [
    "main",
    "cmd_classify",
    "cmd_verify",
    "cmd_oracle",
    "cmd_sample",
    "verification_rows",
]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_RUN_ERROR = 4


def _fmt(x) -> str:
    """Full-precision decimal for CSV cells; integers as integers; empty
    for absent values."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a NaN or inf that reaches here raises ValueError."""
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _finite(x):
    """A number for report.json: null where it is not finite."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _json_rows(rows: list[dict]) -> list[dict]:
    """Checkpoint rows for report.json. The mean and variance of samples
    with an infinite value (III-evt has some) are not finite: null."""
    return [
        {key: _finite(v) if key in ("mean", "variance") else v for key, v in row.items()}
        for row in rows
    ]


_CSV_ROWS = 4096  # rows formatted and written at a time


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """A CSV of equal-length columns, formatted a column at a time: a
    float64 array in one pass of ``repr``, any other cell by ``_fmt``.
    Rows go out ``_CSV_ROWS`` at a time, so only one chunk's strings are
    held at once."""
    rows = len(columns[0])
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for a in range(0, rows, _CSV_ROWS):
            cells = [
                map(repr, col[a : a + _CSV_ROWS].tolist())
                if isinstance(col, np.ndarray) and col.dtype == np.float64
                else map(_fmt, col[a : a + _CSV_ROWS])
                for col in columns
            ]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _emit_manifest(out: Path, command: str, cfg: RunConfig) -> None:
    _write_json(out / "manifest.json", {"command": command, "config": resolved_dict(cfg)})


def _regime_dict(regime: RegimeReport, moments) -> dict:
    """The regime for report.json, a number that is not finite as null (a
    law with an M = 0 atom has mu = -inf and v2 = inf)."""
    regime_fields = {
        "case": regime.case,
        "normalization": regime.normalization,
        "limit": regime.limit,
        "mu": regime.mu,
        "v2": regime.v * regime.v,
        "abs_mean_m": moments.abs_mean_m,
        "rho": regime.rho,
        "lam": regime.lam,
        "p": regime.p,
        "beta2": regime.beta2,
        "alpha": regime.alpha,
        "note": regime.note,
    }
    return {key: _finite(v) for key, v in regime_fields.items()}


def default_threshold(regime: RegimeReport, n_samples: int) -> float:
    """Engineering default for the final-checkpoint KS cap."""
    case = regime.case
    if case in ("I-sym", "I-asym", "IV"):
        return dkw_bound(n_samples, 0.01) + 0.005
    if case in ("II-abs", "II-signed", "III-clt"):
        return 0.08
    if case == "III-evt":
        return 0.05
    return 0.10  # boundary sub-cases converge slowest


def _classified(cfg: RunConfig, out: Path, command: str):
    """The model's moments and regime, with the manifest written and the
    report's first fields: (moments, regime, report)."""
    moments = analytic_moments(cfg.model)
    regime = classify(moments, cfg.model)
    _emit_manifest(out, command, cfg)
    return moments, regime, {"command": command, "regime": _regime_dict(regime, moments)}


def cmd_classify(cfg: RunConfig, out: Path, quiet: bool = False) -> int:
    moments, regime, report = _classified(cfg, out, "classify")
    _write_json(out / "report.json", report)
    if not quiet:
        print(f"case: {regime.case}")
        print(f"mu = {regime.mu:g}, v2 = {regime.v * regime.v:g}, "
              f"E|M| = {moments.abs_mean_m:g}")
        print(f"normalization: {regime.normalization}")
        print(f"limit: {regime.limit}")
        if regime.note:
            print(f"note: {regime.note}")
    if regime.case == "UNSUPPORTED":
        return EXIT_UNSUPPORTED
    return EXIT_PASS


def _rows(cfg: RunConfig, batch, distance, regime: RegimeReport | None):
    """The loop of every command that runs a batch: a (row, samples) pair
    per checkpoint n, in order, each made as it is asked for.

    The samples at n are normalized under ``regime``, or without one (the
    oracle) ``batch.to_reals(n)``. The row holds the fields of
    ``distance(samples, n)``, their distance to n's reference (``ks``
    first), their summary, and the normalization's gamma_n and W's mean
    where there are any. Nothing here keeps a checkpoint's samples once
    they are yielded, so a caller that lets them go before it asks for the
    next pair holds one checkpoint's at a time.
    """
    for n in cfg.checkpoints:
        if regime is None:
            gamma, values = None, batch.to_reals(n)
        else:
            gamma = tail_quantile(cfg.model, n) if regime.case in GAMMA_CASES else None
            values = normalize_samples(regime, batch.vectors(n), n, gamma)
        row = {"n": n, **distance(values, n)}
        stats = summary(values)
        row.update(mean=stats.mean, variance=stats.variance, N=cfg.samples, gamma_n=gamma)
        w = batch.w_log(n)
        if w is not None:
            row["w_log_mean"] = float(np.mean(w))
        yield row, values
        del values  # not held while the next checkpoint's are made


def _collect(pairs) -> list[dict]:
    """The rows of ``_rows``' pairs, each pair's samples let go before the
    next pair is made."""
    rows = []
    for row, values in pairs:
        rows.append(row)
        del values
    return rows


def verification_rows(cfg: RunConfig, regime: RegimeReport):
    """The normalized rows of verify, sample and ``scripts/ks_convergence.py``:
    (law, rows), ``rows`` being ``_rows``' pairs.

    The batch runs before this returns. The reference at every checkpoint
    is the limit law, by a one-sample KS: against its CDF or, for a law
    with no closed CDF, against its bracket (``limits.bracket``, sized to
    the samples), with the upper bound as ``ks``, the lower bound as
    ``ks_lower`` and the bracket's widest gap as ``bracket_width``.
    """
    law = lim.limit_for(regime, cfg.model)
    batch = run_batch(cfg.model, cfg.checkpoints, cfg.samples, cfg.seed,
                      workers=cfg.workers, track_w=regime.case.startswith("III"))
    bracket = lim.bracket(law, cfg.samples)  # not held while the batch runs

    def distance(values, n):
        if bracket is None:
            return {"ks": ks_one_sample(values, lambda x: lim.cdf(law, x))}
        low, high = ks_one_sample(values, bracket.lower, bracket.upper)
        return {"ks": high, "ks_lower": low, "bracket_width": bracket.width}
    return law, _rows(cfg, batch, distance, regime)


def _write_checkpoints(out: Path, rows: list[dict]) -> None:
    header = ["n", "ks", "mean", "variance", "N"]
    _write_csv(out / "checkpoints.csv", header, [[r[k] for r in rows] for k in header])


def _limit_run(cfg: RunConfig, out: Path, command: str, quiet: bool):
    """What verify and sample share: ``_classified`` and, for a regime with
    a limit law, ``verification_rows``. Returns (regime, law, rows,
    report), the report holding its first fields; None for a regime
    without one, whose report.json then says so."""
    _, regime, report = _classified(cfg, out, command)
    if regime.case in ("CONVERGENT", "UNSUPPORTED"):
        what = "limit machinery" if command == "verify" else "normalization"
        report["error"] = f"no {what} for this regime"
        _write_json(out / "report.json", report)
        if not quiet:
            print(f"case {regime.case}: nothing to {command}. {regime.note}")
        return None
    law, pairs = verification_rows(cfg, regime)
    report["limit"] = lim.label(law)
    return regime, law, pairs, report


def cmd_verify(cfg: RunConfig, out: Path, quiet: bool = False) -> int:
    run = _limit_run(cfg, out, "verify", quiet)
    if run is None:
        return EXIT_UNSUPPORTED
    regime, _, pairs, report = run
    rows = _collect(pairs)
    threshold, threshold_source = cfg.ks_threshold, "config"
    if threshold is None:
        threshold, threshold_source = default_threshold(regime, cfg.samples), "default"
    ks_values = [r["ks"] for r in rows]
    monotone_ok = all(b <= a + cfg.monotone_slack for a, b in zip(ks_values, ks_values[1:]))
    final_ok = ks_values[-1] <= threshold
    passed = monotone_ok and final_ok

    _write_checkpoints(out, rows)
    report.update(threshold=threshold, threshold_source=threshold_source,
                  monotone_slack=cfg.monotone_slack, checkpoints=_json_rows(rows),
                  monotone_ok=monotone_ok, final_ks=ks_values[-1], final_ok=final_ok,
                  passed=passed)
    _write_json(out / "report.json", report)
    if not quiet:
        for r in rows:
            print(f"n={r['n']}: ks={r['ks']:.5f} mean={r['mean']:.5g} N={r['N']}")
        print(
            f"monotone: {monotone_ok}, final ks {ks_values[-1]:.5f} "
            f"vs threshold {threshold:.5f} ({threshold_source}) -> "
            f"{'PASS' if passed else 'FAIL'}"
        )
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_sample(cfg: RunConfig, out: Path, quiet: bool = False) -> int:
    run = _limit_run(cfg, out, "sample", quiet)
    if run is None:
        return EXIT_UNSUPPORTED
    *_, pairs, report = run
    rows = []
    for row, values in pairs:
        _write_csv(out / f"samples_n{row['n']}.csv", ["value"], [values])
        rows.append(row)
        del values  # gone before the next checkpoint's samples are made
    report["checkpoints"] = _json_rows(rows)
    _write_json(out / "report.json", report)
    if not quiet:
        for row in rows:
            print(f"wrote samples_n{row['n']}.csv ({cfg.samples} values)")
    return EXIT_PASS


def cmd_oracle(cfg: RunConfig, out: Path, quiet: bool = False) -> int:
    model = cfg.model
    if not isinstance(model, DiscreteJoint):
        raise InvalidModelError("the enumeration oracle needs a discrete_joint model")
    _emit_manifest(out, "oracle", cfg)
    # the reference at n is R_n's exact law, enumerated (and the guard on
    # its size met) up to the last n before the batch runs
    exacts = exact_laws(model, cfg.checkpoints)
    batch = run_batch(model, cfg.checkpoints, cfg.samples, cfg.seed, workers=cfg.workers)

    def distance(values, n):
        return {"ks": ks_atoms(values, exacts[n].values, exacts[n].probs)}

    rows = _collect(_rows(cfg, batch, distance, None))
    # one DKW band per checkpoint, Bonferroni-split so the whole run errs
    # on correct code with probability at most 1%
    delta = 0.01 / len(cfg.checkpoints)
    bound = dkw_bound(cfg.samples, delta)
    try:
        recursion = {n: exact_moments_recursion(model, n) for n in cfg.checkpoints}
    except DomainError:  # the moment recursion needs |M| = 1 and -1 < EM < 1
        recursion = {}
    gated = []
    for row in rows:
        n, exact = row["n"], exacts[row["n"]]
        e_mean, e_var = exact.mean(), exact.variance()
        gated.append({
            "n": n, "deviation": row["ks"], "dkw_bound": bound, "delta": delta,
            "mc_mean": row["mean"], "mc_variance": row["variance"],
            "exact_mean": e_mean, "exact_variance": e_var, "N": cfg.samples,
        })
        if n in recursion:
            r_mean, r_var = recursion[n]
            gated[-1].update(
                recursion_mean=r_mean, recursion_variance=r_var,
                recursion_vs_enumeration=max(abs(r_mean - e_mean), abs(r_var - e_var)),
            )
        if not quiet:
            print(f"n={n}: deviation={row['ks']:.5f} (dkw {bound:.5f})")
    passed = all(r["ks"] <= bound for r in rows)

    _write_checkpoints(out, rows)
    report = {"command": "oracle", "dkw_bound": bound, "delta": delta,
              "checkpoints": gated, "passed": passed}
    _write_json(out / "report.json", report)
    if not quiet:
        print("PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


_COMMANDS = {
    "classify": cmd_classify,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "sample": cmd_sample,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perpsim",
        description=(
            "Simulate the recursion R_n = Q_n + M_n R_{n-1} in its growing "
            "regimes and verify the renormalized samples against their "
            "limit laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "report the regime, normalization and limit law"),
        ("verify", "run the full pipeline and KS-check convergence"),
        ("oracle", "compare Monte Carlo against exact enumeration"),
        ("sample", "export normalized samples per checkpoint"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default="perpsim-out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--workers", type=int, default=None, help="override config workers"
        )
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not (0 <= args.seed < 2**64):
                raise ConfigError("--seed must fit in 64 bits")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("--workers must be >= 1")
            cfg = dataclasses.replace(cfg, workers=args.workers)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, quiet=args.quiet)
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (
        ConfigError,
        InvalidModelError,
        InvalidInputError,
        TooLargeError,
        NativeRangeError,
        ExponentOverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_ERROR


if __name__ == "__main__":
    sys.exit(main())
