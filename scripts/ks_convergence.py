#!/usr/bin/env python3
"""Sweep the KS distance to the limit law over a geometric checkpoint grid.

Usage: python scripts/ks_convergence.py --config configs/case2_abs.json \
       [--points 12] [--n-max 20000] [--out out/ks_sweep.csv]

Emits a plot-ready CSV (n, ks, mean, variance) and prints the sweep.
One batch run covers every checkpoint, so the sweep costs no more than
a single verify at the largest n.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from perpsim import limits as lim  # noqa: E402
from perpsim.config import load_config  # noqa: E402
from perpsim.models import analytic_moments, classify, tail_quantile  # noqa: E402
from perpsim.normalize import normalize_samples  # noqa: E402
from perpsim.simulate import reference_seed, run_batch  # noqa: E402
from perpsim.stats import ks_one_sample, ks_two_sample, summary  # noqa: E402


def run(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--out", default="out/ks_sweep.csv")
    opts = parser.parse_args(args)

    cfg = load_config(opts.config)
    n_max = opts.n_max or cfg.checkpoints[-1]
    grid = sorted(
        {int(round(n)) for n in np.geomspace(10, n_max, opts.points)}
    )
    regime = classify(analytic_moments(cfg.model), cfg.model)
    law = lim.limit_for(regime, cfg.model)
    print(f"case {regime.case}, limit {lim.label(law)}, N={cfg.samples}")

    batch = run_batch(
        cfg.model, grid, cfg.samples, cfg.seed, workers=cfg.workers,
    )
    ref_gen = np.random.Generator(np.random.Philox(key=reference_seed(cfg.seed)))
    series = cfg.series_terms
    if series is None and isinstance(
        law, (lim.BernoulliConvolution, lim.SymmetrizedPerpetuity)
    ):
        series = lim.default_series_terms(law.lam)

    lines = ["n,ks,mean,variance"]
    for n in grid:
        gamma = (
            tail_quantile(cfg.model, n)
            if regime.case in ("III-evt", "III-boundary-growing")
            else None
        )
        values = normalize_samples(regime, batch.vectors(n), n, gamma)
        if lim.has_cdf(law):
            ks = ks_one_sample(values, lambda x: lim.cdf(law, x))
        else:
            ref = lim.sample_limit(law, ref_gen, series_terms=series, size=cfg.samples)
            ks = ks_two_sample(values, ref)
        s = summary(values)
        print(f"n={n:>8d} ks={ks:.5f} mean={s.mean:.5g}")
        lines.append(f"{n},{ks!r},{s.mean!r},{s.variance!r}")

    out = Path(opts.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
