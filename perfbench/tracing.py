"""Span tracing on the module-level names the perpsim pipeline calls.

``install`` replaces each traced name with a wrapper that records a span
(name, parent, start, end, amount) and ``uninstall`` puts the originals
back; nothing under ``src/`` changes. Spans are kept in memory in flat
arrays. The main process writes them out when the run ends; a pool
worker (forked with the wrappers in place) appends its spans to its own
file after each block, since it may exit without running any hook.

A layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

SPAN_DTYPE = np.dtype(
    [("name", "i1"), ("parent", "i4"), ("t0", "f8"), ("t1", "f8"), ("amount", "i8")]
)
SPAN_NAMES = (
    "cli.op",
    "simulate.run_batch",
    "simulate.block",
    "simulate.philox",
    "simulate.generator",
    "scaled.arith",
    "models.draws",
    "normalize.normalize",
    "limits.reference",
    "stats.ks",
    "stats.summary",
    "cli.write",
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    """Span recorder of one process; a forked child starts empty."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self._clear()
        os.register_at_fork(after_in_child=self._clear)

    def _clear(self) -> None:
        self.name = array("b")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.amount = array("q")
        self.stack = [-1]
        self.written = 0

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.amount.append(0)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self.stack.pop()

    def write(self) -> None:
        """Append the spans not yet written to this process's file."""
        start = self.written
        spans = np.empty(len(self.name) - start, SPAN_DTYPE)
        for field, column, dtype in (
            ("name", self.name, np.int8),
            ("parent", self.parent, np.int32),
            ("t0", self.t0, np.float64),
            ("t1", self.t1, np.float64),
            ("amount", self.amount, np.int64),
        ):
            spans[field] = np.frombuffer(column, dtype)[start:]
        with open(self.span_dir / f"spans-{os.getpid()}.bin", "ab") as f:
            spans.tofile(f)
        self.written += len(spans)


def _argument(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments.get(name)


def _wrap(tracer: Tracer, span: str, fn, amount=None, flush_in_worker=False):
    name_id = NAME_ID[span]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
            if amount is not None:
                tracer.amount[i] = int(amount(args, kwargs) or 0)
            if flush_in_worker and os.getpid() != tracer.main_pid:
                tracer.write()

    return traced


def _targets():
    """(owner, attribute, span, amount) for every traced name."""
    import perpsim.cli as cli
    import perpsim.limits as limits
    import perpsim.models as models
    import perpsim.simulate as simulate

    count = _argument(simulate.run_batch, "count")
    checkpoints = _argument(simulate.run_batch, "checkpoints")
    size = _argument(limits.sample_limit, "size")
    out = [
        (cli, "run_batch", "simulate.run_batch",
         lambda a, k: count(a, k) * max(checkpoints(a, k))),
        (simulate, "Philox", "simulate.philox", None),
        (simulate, "Generator", "simulate.generator", None),
        (simulate, "vec_add", "scaled.arith", None),
        (simulate, "vec_mul", "scaled.arith", None),
        (cli, "normalize_samples", "normalize.normalize", None),
        (limits, "sample_limit", "limits.reference", lambda a, k: size(a, k) or 1),
        (cli, "ks_one_sample", "stats.ks", None),
        (cli, "ks_two_sample", "stats.ks", None),
        (cli, "summary", "stats.summary", None),
        (cli, "_write_csv", "cli.write", lambda a, k: os.path.getsize(a[0])),
        (cli, "_write_json", "cli.write", lambda a, k: os.path.getsize(a[0])),
    ]
    # the family's scaled_draws: every pair model class defines its own
    for cls in vars(models).values():
        if isinstance(cls, type) and "scaled_draws" in vars(cls):
            out.append((cls, "scaled_draws", "models.draws", None))
    return out


def install(tracer: Tracer) -> list:
    """Wrap every traced name; returns what ``uninstall`` needs."""
    import perpsim.simulate as simulate

    saved = []
    for owner, attr, span, amount in _targets():
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, _wrap(tracer, span, getattr(owner, attr), amount))
    # a pool worker resolves _run_block by name after the fork, so it runs
    # the wrapper too and writes its own span file
    saved.append((simulate, "_run_block", simulate._run_block))
    simulate._run_block = _wrap(tracer, "simulate.block", simulate._run_block, flush_in_worker=True)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def load(span_dir: Path) -> dict[int, np.ndarray]:
    """Spans of every process of the run, keyed by pid."""
    return {
        int(p.stem.split("-")[1]): np.fromfile(p, SPAN_DTYPE)
        for p in sorted(span_dir.glob("spans-*.bin"))
    }


def _self_times(spans: np.ndarray) -> np.ndarray:
    dur = spans["t1"] - spans["t0"]
    child = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][child], weights=dur[child], minlength=len(spans))
    return dur - covered


def layer_metrics(by_pid: dict[int, np.ndarray], t0: float, t1: float) -> dict:
    """Per-layer times and counts of the spans inside the window [t0, t1]."""
    rows = []
    for pid, spans in by_pid.items():
        own = _self_times(spans)
        inside = (spans["t0"] >= t0) & (spans["t1"] <= t1)
        rows.append((pid, spans[inside], own[inside]))

    def pick(name):
        nid = NAME_ID[name]
        return [(pid, s[s["name"] == nid], o[s["name"] == nid]) for pid, s, o in rows]

    def total(name):
        return float(sum((s["t1"] - s["t0"]).sum() for _, s, _ in pick(name)))

    def self_total(name):
        return float(sum(o.sum() for _, _, o in pick(name)))

    def calls(name):
        return sum(len(s) for _, s, _ in pick(name))

    def amount(name):
        return int(sum(s["amount"].sum() for _, s, _ in pick(name)))

    blocks = pick("simulate.block")
    pool_overhead = 0.0
    for _, rb, _ in pick("simulate.run_batch"):
        for start, end in zip(rb["t0"], rb["t1"]):
            busy, pids = 0.0, set()
            for pid, b, _ in blocks:
                within = b[(b["t0"] >= start) & (b["t1"] <= end)]
                if len(within):
                    busy += float((within["t1"] - within["t0"]).sum())
                    pids.add(pid)
            pool_overhead += (end - start) - busy / max(len(pids), 1)

    return {
        "models.draws_s": total("models.draws"),
        "models.draw_calls": calls("models.draws"),
        "scaled.arith_s": total("scaled.arith"),
        "scaled.arith_calls": calls("scaled.arith"),
        "simulate.stream_setup_s": total("simulate.philox") + total("simulate.generator"),
        "simulate.streams": calls("simulate.generator"),
        "simulate.block_self_s": self_total("simulate.block"),
        "simulate.run_batch_s": total("simulate.run_batch"),
        "simulate.pool_overhead_s": pool_overhead,
        "simulate.traj_steps": amount("simulate.run_batch"),
        "normalize.normalize_s": total("normalize.normalize"),
        "limits.reference_s": total("limits.reference"),
        "limits.reference_draws": amount("limits.reference"),
        "stats.ks_s": total("stats.ks"),
        "stats.summary_s": total("stats.summary"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": amount("cli.write"),
        "cli.self_s": self_total("cli.op"),
    }
