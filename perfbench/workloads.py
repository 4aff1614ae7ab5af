"""Workload definitions: the CLI operations each workload runs, generated
from the bundled ``configs/*.json`` under the benchmark seed.

A workload is a list of operations; one round runs every operation once,
in order. Parameters of the (Q, M) laws are taken unchanged from the
bundled configs, so the independent checks in ``checks.py`` have fixed
targets; the benchmark seed picks each operation's master seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# At N = 2048 or 4096 the KS sampling noise (DKW radius at delta = 1e-6 is
# 0.060 for N = 2048) swamps the bundled monotone slack of 0.01 and the
# thresholds calibrated for N = 20000, so verify would fail on some seeds
# of correct code. The long-horizon configs carry explicit values instead.
LONG_KS_THRESHOLD = 0.08
LONG_MONOTONE_SLACK = 0.06

LONG_HORIZON_CONFIGS = ("case2_abs", "case3_clt", "case3_evt", "case4")

# Case I operations run half the bundled 10^5 trajectories, so a round of
# many_short takes ~6 s and a run holds enough rounds for a steady median.
# The bundled verify gates still hold on every seed at this N: the final
# KS cap is the DKW radius at delta = 0.01 plus 0.005.
SHORT_SAMPLES = 50_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``perpsim <command> --config <name>.json``."""

    name: str
    command: str
    config: dict

    @property
    def steps(self) -> int:
        """Trajectory-steps simulated: N * n_max."""
        return self.config["samples"] * max(self.config["checkpoints"])

    @property
    def workers(self) -> int:
        return self.config["workers"]


def op_seed(seed: int, name: str) -> int:
    """64-bit master seed of operation ``name`` under benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _bundled(configs_dir: Path, stem: str) -> dict:
    return json.loads((configs_dir / f"{stem}.json").read_text())


def _op(configs_dir, seed, command, stem, *, workers, reseed=True, **overrides):
    name = f"{command}_{stem}"
    cfg = _bundled(configs_dir, stem)
    cfg.update(overrides)
    cfg["workers"] = workers
    if reseed:
        cfg["seed"] = op_seed(seed, name)
    return Op(name, command, cfg)


def _long(configs_dir, seed, stem, samples, workers):
    return _op(
        configs_dir,
        seed,
        "verify",
        stem,
        workers=workers,
        samples=samples,
        ks_threshold=LONG_KS_THRESHOLD,
        monotone_slack=LONG_MONOTONE_SLACK,
    )


def make_ops(workload: str, seed: int, configs_dir: Path) -> list[Op]:
    """The operations of one round of ``workload`` under ``seed``."""
    if workload == "long_horizon":
        # one 2048-trajectory block per config, horizon 10^4, one worker
        return [_long(configs_dir, seed, s, 2048, 1) for s in LONG_HORIZON_CONFIGS]
    if workload == "many_short":
        return [
            _op(configs_dir, seed, "verify", "case1_sym", workers=1, samples=SHORT_SAMPLES),
            # Inputs of this operation do not depend on the seed: it fails
            # on every seed because of the Case I limit-law fault (see
            # checks.asym_fault_cause), so it keeps a fixed share of failures.
            _op(configs_dir, seed, "verify", "case1_asym", workers=1, reseed=False,
                samples=SHORT_SAMPLES),
            _op(configs_dir, seed, "sample", "case1_sym", workers=1, samples=SHORT_SAMPLES),
        ]
    if workload == "parallel":
        return [
            _long(configs_dir, seed, "case2_abs", 4096, 2),  # two blocks
            _op(configs_dir, seed, "verify", "case1_sym", workers=2, samples=SHORT_SAMPLES),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("long_horizon", "many_short", "parallel")
