#!/usr/bin/env python3
"""Benchmark of the perpsim CLI, end to end and per layer.

Usage, from the root of a perpsim checkout:

    python3 perfbench/run.py --workload long_horizon --seed 1 --seconds 25 --trace 0

The workload's configs are generated from ``configs/*.json`` under the
seed (see ``workloads.py``) and run through ``perpsim.cli.main`` in whole
rounds until about ``--seconds`` of operation time is measured. Every
output is checked against ``checks.py``. With ``--trace 0`` the last line
of stdout carries the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds (``tracing.py``) alternate and the last line carries the
per-layer metrics. Scratch output goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 9  # fresh interpreters per run; set-up time is the median
PROBE_TIMEOUT_S = 60
COUNT_UNITS = {"cli.bytes_written": "bytes"}
COUNTS = (
    "models.draw_calls",
    "scaled.arith_calls",
    "simulate.streams",
    "simulate.traj_steps",
    "limits.reference_draws",
    "cli.bytes_written",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _write_config(directory: Path, name: str, config: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def _run_op(cli_main, command: str, config: Path, out: Path) -> tuple[float, int | None]:
    """Wall time and exit code of one CLI call; exit code None if it raised."""
    argv = [command, "--config", str(config), "--out", str(out), "--quiet"]
    start = time.perf_counter()
    try:
        code = cli_main(argv)
    except Exception:  # the run goes on; the op counts as failed
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def _probe_setup(src: Path, configs: list[Path]) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src), *map(str, configs)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    stages = json.loads(proc.stdout.splitlines()[-1])
    stages["setup_s"] = stages.pop("ready") - start
    return stages


class Bench:
    """One benchmark run: the workload's ops, their outputs and checks."""

    def __init__(self, workload: str, seed: int, root: Path, trace: bool) -> None:
        import perpsim.cli

        self.cli_main = perpsim.cli.main
        self.root = root
        self.out = root / OUT_DIR / workload
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "spans").mkdir(parents=True)
        self.ops = workloads.make_ops(workload, seed, root / "configs")
        self.configs = {
            op.name: _write_config(self.out / "configs", op.name, op.config) for op in self.ops
        }
        self.walls: dict[str, list[float]] = {op.name: [] for op in self.ops}
        self.first: dict[str, tuple[int | None, str | None]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tracer = tracing.Tracer(self.out / "spans") if trace else None

    def round(self, traced: bool) -> float:
        """Run every op once; returns the summed op wall time."""
        total = 0.0
        for op in self.ops:
            out = self.out / op.name
            shutil.rmtree(out, ignore_errors=True)
            span = self.tracer.open(tracing.NAME_ID["cli.op"]) if traced else None
            wall, code = _run_op(self.cli_main, op.command, self.configs[op.name], out)
            if span is not None:
                self.tracer.close(span)
            total += wall
            self.walls[op.name].append(wall)
            self.attempted += 1
            self.failed += code != 0
            self._check(op, out, code)
        return total

    def _check(self, op, out: Path, code: int | None) -> None:
        try:
            digest = checks.digest(out)
        except OSError:  # the op wrote nothing
            digest = None
        if op.name in self.first:  # later rounds must repeat the first exactly
            if self.first[op.name] != (code, digest):
                self.errors.append(f"{op.name}: exit code or outputs changed between rounds")
            return
        self.first[op.name] = (code, digest)
        if code is None:
            print(f"{op.name}: FAILED: raised (traceback on stderr)")
            return
        try:
            errors, cause = checks.CHECKERS[op.command](op.config, out, code)
        except (OSError, ValueError, KeyError) as exc:
            errors, cause = [f"unreadable output: {exc!r}"], None
        if cause:
            print(f"{op.name}: FAILED: {cause}")
        if code == 0:  # correctness speaks of the operations that did not fail
            self.errors += [f"{op.name}: {e}" for e in errors]

    def check_worker_identity(self) -> None:
        """Outputs at workers > 1 must equal a fresh workers = 1 run."""
        for op in self.ops:
            if op.workers == 1:
                continue
            config = _write_config(self.out / "configs_w1", op.name, {**op.config, "workers": 1})
            ref = self.out / "workers1" / op.name
            _, code = _run_op(self.cli_main, op.command, config, ref)
            if code != self.first[op.name][0]:
                self.errors.append(f"{op.name}: exit code {code} at workers=1")
            else:
                self.errors += [f"{op.name}: {e}" for e in checks.identity_errors(self.out / op.name, ref)]

    def setup_probes(self) -> list[dict]:
        paths = list(self.configs.values())
        return [_probe_setup(self.root / "src", paths) for _ in range(SETUP_PROBES)]


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "perpsim" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a perpsim checkout "
              "(src/perpsim/ and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = Bench(args.workload, args.seed, root, bool(args.trace))

    walls, windows, untraced = [], [], []
    while True:
        if args.trace:  # each traced round is paired with an untraced one
            untraced.append(bench.round(traced=False))
        saved = tracing.install(bench.tracer) if args.trace else []
        start = time.perf_counter()
        try:
            walls.append(bench.round(traced=bool(args.trace)))
        finally:
            tracing.uninstall(saved)
        windows.append((start, time.perf_counter()))
        if sum(walls) + statistics.fmean(walls) / 2 >= args.seconds:
            break
    peak_rss = _peak_rss_mb()
    bench.check_worker_identity()
    probes = bench.setup_probes()

    if args.trace:
        bench.tracer.write()
        by_pid = tracing.load(bench.out / "spans")
        rounds = [tracing.layer_metrics(by_pid, a, b) for a, b in windows]
        values = {}
        for key in rounds[0]:
            if key in COUNTS:
                if any(r[key] != rounds[0][key] for r in rounds):
                    bench.errors.append(f"count {key} differs between rounds")
                values[key] = rounds[0][key]
            else:
                values[key] = _median_of(rounds, key)
        for key in ("setup.import_s", "config.load_s", "models.classify_s"):
            values[key] = _median_of(probes, key)
        values["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
        metrics = {
            k: {"value": v, "unit": COUNT_UNITS.get(k, "count" if k in COUNTS else "s")}
            for k, v in values.items()
        }
    else:
        # a round's steps over a round made of each op's median wall, so a
        # stall in one op of one round does not move the figure
        steps = sum(op.steps for op in bench.ops)
        median_round = sum(statistics.median(bench.walls[op.name]) for op in bench.ops)
        metrics = {
            "setup_s": {"value": _median_of(probes, "setup_s"), "unit": "s"},
            "traj_steps_per_s": {"value": steps / median_round, "unit": "steps/s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    for op in bench.ops:
        print(f"{op.name}: {len(bench.walls[op.name])} runs, median "
              f"{statistics.median(bench.walls[op.name]):.3f} s, exit {bench.first[op.name][0]}")
    for error in bench.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
