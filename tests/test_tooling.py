"""Package surface and the bundled scripts."""

import dataclasses
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import perpsim
import perpsim.simulate
from perpsim.cli import main, verification_rows
from perpsim.config import load_config
from perpsim.models import analytic_moments, classify

REPO = Path(__file__).resolve().parent.parent

# __main__ runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(perpsim.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"perpsim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from perpsim import *", namespace)
    assert "run_batch" in namespace and "normalize_samples" in namespace


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(name: str):
    return load_module(REPO / "scripts" / f"{name}.py")


def test_ks_convergence_rows_are_verify_rows(tmp_path):
    config = {
        "model": {
            "family": "scaled_rademacher",
            "rho": 2.0,
            "p": 0.7,
            "q": {"family": "rademacher", "p": 0.7},
        },
        "checkpoints": [10, 40],
        "samples": 2000,
        "seed": 17,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    script = load_script("ks_convergence")
    code = script.run(
        ["--config", str(path), "--n-max", "40", "--points", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,ks,mean,variance"
    got = [[float(c) for c in line.split(",")] for line in lines[1:]]

    cfg = load_config(path)
    grid = tuple(int(row[0]) for row in got)
    assert grid == (10, 16, 25, 40)
    regime = classify(analytic_moments(cfg.model), cfg.model)
    _, _, rows, _ = verification_rows(dataclasses.replace(cfg, checkpoints=grid), regime)
    assert got == [[r["n"], r["ks"], r["mean"], r["variance"]] for r in rows]


def test_benchmark_trace_hooks_wrap_the_pipeline(tmp_path):
    # perfbench/run.py --trace 1 wraps package names by attribute, so a
    # rename in the package must fail here and not only in the benchmark
    tracing = load_module(REPO / "perfbench" / "tracing.py")
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    targets.append((perpsim.simulate, "_run_block"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    config = {
        "model": {
            "family": "scaled_rademacher",
            "rho": 2.0,
            "p": 0.5,
            "q": {"family": "rademacher", "p": 0.5},
        },
        "checkpoints": [10, 40],
        "samples": 2000,
        "seed": 17,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer = tracing.Tracer(tmp_path)
    saved = tracing.install(tracer)
    try:
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    finally:
        tracing.uninstall(saved)
    assert code == 0
    recorded = [tracing.SPAN_NAMES[i] for i in tracer.name]
    assert {"simulate.block", "models.draws", "stats.ks"} <= set(recorded)
    # one re-keyed Philox per block and no Generator in the kernel
    assert recorded.count("simulate.philox") == 1
    assert recorded.count("simulate.generator") == 0
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))
