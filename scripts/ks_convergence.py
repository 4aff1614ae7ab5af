#!/usr/bin/env python3
"""Sweep the KS distance to the limit law over a geometric checkpoint grid.

Usage: python scripts/ks_convergence.py --config configs/case2_abs.json \
       [--points 12] [--n-max 20000] [--out out/ks_sweep.csv]

Emits a plot-ready CSV (n, ks, mean, variance) and prints the sweep.
The rows come from the same loop as ``perpsim verify`` run on the grid,
so one batch run covers every checkpoint and the sweep costs no more
than a single verify at the largest n.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from perpsim import limits as lim  # noqa: E402
from perpsim.cli import verification_rows  # noqa: E402
from perpsim.config import load_config  # noqa: E402
from perpsim.models import analytic_moments, classify  # noqa: E402


def run(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--out", default="out/ks_sweep.csv")
    opts = parser.parse_args(args)

    cfg = load_config(opts.config)
    n_max = opts.n_max or cfg.checkpoints[-1]
    grid = tuple(
        sorted({int(round(n)) for n in np.geomspace(10, n_max, opts.points)})
    )
    regime = classify(analytic_moments(cfg.model), cfg.model)
    law, _, pairs = verification_rows(
        dataclasses.replace(cfg, checkpoints=grid), regime
    )
    rows = [row for row, _ in pairs]
    print(f"case {regime.case}, limit {lim.label(law)}, N={cfg.samples}")

    lines = ["n,ks,mean,variance"]
    for r in rows:
        print(f"n={r['n']:>8d} ks={r['ks']:.5f} mean={r['mean']:.5g}")
        lines.append(f"{r['n']},{r['ks']!r},{r['mean']!r},{r['variance']!r}")

    out = Path(opts.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
