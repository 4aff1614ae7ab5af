"""Package surface and the bundled scripts."""

import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perpsim
import perpsim.config
import perpsim.simulate
from perpsim.cli import main, verification_rows
from perpsim.config import load_config
from perpsim.models import LogNormalPair, QLogPareto, analytic_moments, classify
from perpsim.simulate import run_batch

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


def test_schema_docstring_names_every_family():
    # the families the schema documents are the families the tables parse
    config = perpsim.config
    models, q_laws = config.__doc__.split("Models::")[1].split("Q laws::")
    named = [re.findall(r'"family": "(\w+)"', part) for part in (models, q_laws)]
    assert named == [list(config._PAIR_FAMILIES), list(config._Q_FAMILIES)]


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
    _, pairs = verification_rows(dataclasses.replace(cfg, checkpoints=grid), regime)
    rows = [row for row, _ in pairs]
    assert got == [[r["n"], r["ks"], r["mean"], r["variance"]] for r in rows]


CASE_I_MODEL = {
    "family": "scaled_rademacher",
    "rho": 2.0,
    "p": 0.5,
    "q": {"family": "rademacher", "p": 0.5},
}


def traced_run(tmp_path, command, model=CASE_I_MODEL, checkpoints=(10, 40)):
    """``command`` on a small config (Case I unless ``model`` is given),
    under the span tracer that perfbench/run.py --trace 1 installs:
    (tracing module, tracer, exit code, output directory). The traced
    names are restored afterwards."""
    # the tracer wraps package names by attribute, so a rename in the
    # package must fail here and not only in the benchmark
    tracing = load_module(REPO / "perfbench" / "tracing.py")
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    targets.append((perpsim.simulate, "_run_block"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    config = {"model": model, "checkpoints": list(checkpoints), "samples": 2000, "seed": 17}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    tracer = tracing.Tracer(tmp_path)
    saved = tracing.install(tracer)
    try:
        code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
    finally:
        tracing.uninstall(saved)
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))
    return tracing, tracer, code, out


def test_benchmark_trace_hooks_wrap_the_pipeline(tmp_path):
    tracing, tracer, code, _ = traced_run(tmp_path, "verify")
    assert code == 0
    recorded = [tracing.SPAN_NAMES[i] for i in tracer.name]
    assert {"simulate.block", "models.draws", "stats.ks"} <= set(recorded)
    # one re-keyed Philox per block and no Generator in the kernel
    assert recorded.count("simulate.philox") == 1
    assert recorded.count("simulate.generator") == 0
    # a log law draws its logs in place too, inside the family's own
    # scaled_draws: one models.draws span per sub-block, inside the block
    lognormal = {"family": "lognormal_pair", "mu_x": 0.5, "v2": 1.0,
                 "q": {"family": "constant", "value": 1.0}}
    (tmp_path / "lognormal").mkdir()
    tracing, tracer, code, _ = traced_run(tmp_path / "lognormal", "verify", lognormal, (100, 1000))
    assert code == 0
    names = [tracing.SPAN_NAMES[i] for i in tracer.name]
    block = tracing.NAME_ID["simulate.block"]
    draws = [i for i, name in enumerate(names) if name == "models.draws"]
    # per block, steps 1-32, ..., 97-100 | 101-132, ..., 993-1000
    assert len(draws) == 4 + 29
    assert all(tracer.name[tracer.parent[i]] == block for i in draws)


def test_benchmark_write_spans_cover_every_sample_csv(tmp_path):
    # a cli.write span records the size of the file it wrote, so a file
    # written around _write_csv or _write_json would be missing here and
    # from the benchmark's cli.write_s and cli.bytes_written
    tracing, tracer, code, out = traced_run(tmp_path, "sample")
    assert code == 0
    assert sorted(p.name for p in out.glob("samples_n*.csv")) == ["samples_n10.csv", "samples_n40.csv"]
    write = tracing.NAME_ID["cli.write"]
    sizes = [a for i, a in zip(tracer.name, tracer.amount) if i == write]
    assert sorted(sizes) == sorted(p.stat().st_size for p in out.iterdir())


def test_w_tracking_draws_once_per_sub_block(tmp_path):
    # W is built from the draws that scaled_draws returns, with no second
    # draw, so the benchmark's models.draws layer, which wraps scaled_draws,
    # holds all of the draw work of a III run: one call per sub-block of
    # each block
    tracing = load_module(REPO / "perfbench" / "tracing.py")
    tracer = tracing.Tracer(tmp_path)
    saved = tracing.install(tracer)
    try:
        # per block, steps 1 | 2-31 | 32-33 | 34-65, 66-97, 98-100
        run_batch(LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0)), [1, 31, 33, 100],
                  perpsim.simulate.BLOCK + 5, 17, track_w=True)
    finally:
        tracing.uninstall(saved)
    names = [tracing.SPAN_NAMES[i] for i in tracer.name]
    assert names.count("simulate.block") == 2
    assert names.count("models.draws") == 2 * 6


def run_script(script, *args):
    """``python -c script *args`` in a fresh interpreter, from the
    repository root, with this checkout's sources first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", script, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120, check=True)


# Runs in a fresh interpreter from the repository root: installs the span
# tracer of perfbench/run.py --trace 1 on the package's live modules and
# takes it off again; prints, as one JSON line, the number of names wrapped
# and whether each was wrapped and then restored.
TRACER_SCRIPT = r"""
import importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("tracing", "perfbench/tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
saved = tracing.install(tracing.Tracer(pathlib.Path(sys.argv[1])))
wrapped = [getattr(owner, attr) is not original for owner, attr, original in saved]
tracing.uninstall(saved)
restored = [getattr(owner, attr) is original for owner, attr, original in saved]
print(json.dumps([len(saved), all(wrapped), all(restored)]))
"""


def test_tracer_installs_on_the_live_modules(tmp_path):
    # the tracer wraps package names by attribute, cli.ks_two_sample and
    # limits.sample_limit among them, so a change that deletes or renames
    # one fails here, not only in the benchmark's traced runs
    proc = run_script(TRACER_SCRIPT, str(tmp_path))
    count, wrapped, restored = json.loads(proc.stdout.splitlines()[-1])
    assert count > 12 and wrapped and restored


# Runs in a fresh interpreter from the repository root, with an output
# directory as its argument; prints the findings as one JSON line.
IMPORTS_SCRIPT = r"""
import concurrent.futures, glob, json, sys
from perpsim import simulate
from perpsim.cli import main
from perpsim.config import load_config

loaded = lambda name: name in sys.modules
out = sys.argv[1]
cfg = json.load(open("configs/case1_sym.json"))
cfg["samples"] = 2000
case1 = out + "/case1_sym.json"
json.dump(cfg, open(case1, "w"))
codes = [main([cmd, "--config", path, "--out", f"{out}/{cmd}", "--quiet"])
         for cmd, path in [("classify", case1), ("verify", case1), ("sample", case1),
                           ("oracle", "configs/oracle_fair_sign.json")]]
case1_modules = [loaded("scipy"), loaded("concurrent.futures.process"), loaded("mmap")]

lognormal = load_config("configs/case2_abs.json").model
after_load = loaded("scipy.special")
classified = [(main(["classify", "--config", path, "--out", f"{out}/classify", "--quiet"]),
               loaded("scipy.special"))
              for path in sorted(glob.glob("configs/*.json"))]
boundary = []
for ell in ("growing", "vanishing"):
    q = {"family": "log_boundary", "ell": ell, "t0": 2.0}
    json.dump(dict(cfg, model={"family": "lognormal_pair", "mu_x": 0.0, "v2": 1.0, "q": q}),
              open(f"{out}/{ell}.json", "w"))
    boundary.append((main(["classify", "--config", f"{out}/{ell}.json", "--out", f"{out}/classify",
                           "--quiet"]), loaded("scipy.special")))

class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers, **kwargs):
        pools.append((max_workers, loaded("scipy.special")))
        super().__init__(max_workers=max_workers, **kwargs)

pools = []
concurrent.futures.ProcessPoolExecutor = RecordingPool
simulate._cpu_count = lambda: 2
pooled, inline = (simulate.run_batch(lognormal, [3], simulate.BLOCK + 1, 7, workers=w).vectors(3)
                  for w in (2, 1))
same = [a.tobytes() == b.tobytes() for a, b in zip(pooled, inline)]
print(json.dumps([codes, case1_modules, after_load, classified, boundary, pools, same]))
"""


def test_case_i_runs_import_no_scipy_and_no_pool(tmp_path):
    # scipy.special and multiprocessing are half of a fresh run's start-up;
    # Case I needs neither, and loading or classifying any bundled config or
    # a log_boundary law of either ell needs no scipy: a lognormal law
    # imports ndtri, and a boundary law lambertw, at its first draw. A pool
    # of two real processes runs a lognormal law before this process has
    # drawn any normal: run_batch draws one cell before the fork, so the
    # workers inherit scipy.special, and their snapshots equal a
    # one-process run's
    proc = run_script(IMPORTS_SCRIPT, str(tmp_path))
    codes, case1_modules, after_load, classified, boundary, pools, same = json.loads(
        proc.stdout.splitlines()[-1]
    )
    assert codes == [0, 0, 0, 0]
    assert case1_modules == [False, False, False]
    assert not after_load
    assert classified == [[0, False]] * 7
    assert boundary == [[0, False]] * 2  # lambertw loads at the first draw
    assert pools == [[2, True]]
    assert same == [True, True]


# Runs a two-block batch on a pool of two real processes that return, that
# raise MemoryError, or that die; prints, as one JSON line, this process's
# anonymous shared mappings (their size and resident kB) when each pool is
# made, and per run its outcome (whether the pooled snapshots equal a
# one-process run's, or the error), the mappings once the snapshots are
# read and those left once the batch is gone.
SHARED_BLOCK_SCRIPT = r"""
import concurrent.futures, gc, json, os, re
from perpsim import simulate
from perpsim.errors import WorkerError
from perpsim.models import QConstant, SignedUnit

def shared():
    smaps = open("/proc/self/smaps").read()
    return [[int(re.search(r"\n" + key + r": +(\d+) kB", m).group(1)) for key in ("Size", "Rss")]
            for m in re.split(r"\n(?=[0-9a-f]+-[0-9a-f]+ )", smaps)
            if m.split("\n", 1)[0].endswith(" /dev/zero (deleted)")]

class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers, **kwargs):
        at_fork.append(shared())
        super().__init__(max_workers=max_workers, **kwargs)

parent, draws = os.getpid(), SignedUnit.scaled_draws

def draw(self, u_q, u_m):
    if os.getpid() != parent and worker == "raises":
        raise MemoryError
    if os.getpid() != parent and worker == "dies":
        os._exit(7)
    return draws(self, u_q, u_m)

SignedUnit.scaled_draws = draw
concurrent.futures.ProcessPoolExecutor = RecordingPool
simulate._cpu_count = lambda: 2
at_fork, runs = [], []
model = SignedUnit(0.75, QConstant(1.0))
inline = simulate.run_batch(model, [3], simulate.BLOCK + 1, 7).vectors(3)
for worker in ("returns", "raises", "dies"):
    try:
        batch = simulate.run_batch(model, [3], simulate.BLOCK + 1, 7, workers=2)
        pooled = batch.vectors(3)
        same = [a.tobytes() == b.tobytes() for a, b in zip(pooled, inline)]
        outcome, alive = same, shared()
        del batch, pooled
    except WorkerError:
        outcome, alive = "WorkerError", None
    gc.collect()
    runs.append([outcome, alive, shared()])
print(json.dumps([at_fork, runs]))
"""


def test_shared_block_is_released_on_every_exit_path():
    # the pool's batch is one anonymous shared mapping, made before the fork
    # and resident nowhere until a process touches it: this process has no
    # page of it when the pool is made, and all of them once it reads the
    # snapshots. It lives as long as the batch and goes with it, or with the
    # error when a worker raises or dies; it has no name to leave behind,
    # and nothing is written to stderr
    proc = run_script(SHARED_BLOCK_SCRIPT)
    at_fork, runs = json.loads(proc.stdout.splitlines()[-1])
    size = -(-8 * 2 * (perpsim.simulate.BLOCK + 1) // 4096) * 4
    assert at_fork == [[[size, 0]]] * 3
    assert [outcome for outcome, _, _ in runs] == [[True, True], "WorkerError", "WorkerError"]
    assert runs[0][1] == [[size, size]]
    assert [left for _, _, left in runs] == [[], [], []]
    assert proc.stderr == ""
