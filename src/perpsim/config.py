"""Declarative run configuration: strict JSON in, resolved manifest out.

Silent typos in distribution parameters would invalidate statistical
conclusions, so parsing is strict: unknown keys anywhere in the tree are
rejected, as are missing required fields and non-finite numbers. The
resolved configuration (defaults included) is echoed into every run's
manifest so runs are self-describing.

Schema (JSON object)::

    {
      "model": <model>,            required
      "checkpoints": [int, ...],   required, strictly increasing, >= 1
      "samples": int,              required, Monte Carlo sample count N
      "seed": int,                 required, 64-bit master seed
      "workers": int,              default 1
      "series_terms": int | null,  default null (auto from 1e-9 target)
      "ks_threshold": float|null,  default null (regime-dependent default)
      "monotone_slack": float      default max(0.01, DKW radius at N, delta 0.01)
    }

Models::

    {"family": "discrete_joint", "atoms": [[q, m, prob], ...]}
    {"family": "scaled_rademacher", "rho": >1, "p": (0,1), "q": <qlaw>}
    {"family": "lognormal_pair", "mu_x": float, "v2": >0, "q": <qlaw>}
    {"family": "signed_unit", "p_m": (0,1), "q": <qlaw>}

Q laws::

    {"family": "constant", "value": float}
    {"family": "rademacher", "p": (0,1)}
    {"family": "lognormal", "mean": float, "var": >0}
    {"family": "log_pareto", "alpha": (-2,0), "t0": >0}
    {"family": "log_boundary", "ell": "growing"|"vanishing", "t0": float}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidModelError
from .models import (
    DiscreteJoint,
    LogNormalPair,
    PairModel,
    QConstant,
    QLaw,
    QLogBoundary,
    QLogNormal,
    QLogPareto,
    QRademacher,
    ScaledRademacher,
    SignedUnit,
)
from .stats import dkw_bound

__all__ = ["RunConfig", "load_config", "parse_config", "model_to_dict", "resolved_dict"]


@dataclass(frozen=True)
class RunConfig:
    model: PairModel
    checkpoints: tuple[int, ...]
    samples: int
    seed: int
    monotone_slack: float
    workers: int = 1
    series_terms: int | None = None
    ks_threshold: float | None = None


def _require_keys(obj: dict, where: str, required: set[str], optional: set[str]):
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {where}")


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # integer literal past float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {obj!r}")
    return value


def _integer(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{where} must be an integer, got {obj!r}")
    return obj


def _parse_qlaw(obj, where: str) -> QLaw:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    family = obj.get("family")
    try:
        if family == "constant":
            _require_keys(obj, where, {"family", "value"}, set())
            return QConstant(_number(obj["value"], f"{where}.value"))
        if family == "rademacher":
            _require_keys(obj, where, {"family", "p"}, set())
            return QRademacher(_number(obj["p"], f"{where}.p"))
        if family == "lognormal":
            _require_keys(obj, where, {"family", "mean", "var"}, set())
            return QLogNormal(
                _number(obj["mean"], f"{where}.mean"),
                _number(obj["var"], f"{where}.var"),
            )
        if family == "log_pareto":
            _require_keys(obj, where, {"family", "alpha", "t0"}, set())
            return QLogPareto(
                _number(obj["alpha"], f"{where}.alpha"),
                _number(obj["t0"], f"{where}.t0"),
            )
        if family == "log_boundary":
            _require_keys(obj, where, {"family", "ell", "t0"}, set())
            ell = obj["ell"]
            if not isinstance(ell, str):
                raise ConfigError(f"{where}.ell must be a string")
            return QLogBoundary(ell, _number(obj["t0"], f"{where}.t0"))
    except InvalidModelError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown Q family {family!r} in {where}")


def _parse_model(obj, where: str = "model") -> PairModel:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    family = obj.get("family")
    try:
        if family == "discrete_joint":
            _require_keys(obj, where, {"family", "atoms"}, set())
            atoms = obj["atoms"]
            if not isinstance(atoms, list) or not atoms:
                raise ConfigError(f"{where}.atoms must be a nonempty list")
            parsed = []
            for i, atom in enumerate(atoms):
                if not isinstance(atom, list) or len(atom) != 3:
                    raise ConfigError(
                        f"{where}.atoms[{i}] must be [q, m, probability]"
                    )
                q, m, p = (
                    _number(atom[0], f"{where}.atoms[{i}][0]"),
                    _number(atom[1], f"{where}.atoms[{i}][1]"),
                    _number(atom[2], f"{where}.atoms[{i}][2]"),
                )
                parsed.append(((q, m), p))
            return DiscreteJoint(tuple(parsed))
        if family == "scaled_rademacher":
            _require_keys(obj, where, {"family", "rho", "p", "q"}, set())
            return ScaledRademacher(
                _number(obj["rho"], f"{where}.rho"),
                _number(obj["p"], f"{where}.p"),
                _parse_qlaw(obj["q"], f"{where}.q"),
            )
        if family == "lognormal_pair":
            _require_keys(obj, where, {"family", "mu_x", "v2", "q"}, set())
            return LogNormalPair(
                _number(obj["mu_x"], f"{where}.mu_x"),
                _number(obj["v2"], f"{where}.v2"),
                _parse_qlaw(obj["q"], f"{where}.q"),
            )
        if family == "signed_unit":
            _require_keys(obj, where, {"family", "p_m", "q"}, set())
            return SignedUnit(
                _number(obj["p_m"], f"{where}.p_m"),
                _parse_qlaw(obj["q"], f"{where}.q"),
            )
    except InvalidModelError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown model family {family!r} in {where}")


def parse_config(obj: dict) -> RunConfig:
    """Validate a config tree; unknown keys anywhere are an error."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        obj,
        "config",
        {"model", "checkpoints", "samples", "seed"},
        {"workers", "series_terms", "ks_threshold", "monotone_slack"},
    )
    model = _parse_model(obj["model"])
    raw_cps = obj["checkpoints"]
    if not isinstance(raw_cps, list) or not raw_cps:
        raise ConfigError("checkpoints must be a nonempty list of integers")
    cps = tuple(_integer(n, "checkpoints[*]") for n in raw_cps)
    if any(n < 1 for n in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConfigError("checkpoints must be strictly increasing and >= 1")
    samples = _integer(obj["samples"], "samples")
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    seed = _integer(obj["seed"], "seed")
    if not (0 <= seed < 2**64):
        raise ConfigError("seed must fit in 64 bits")
    workers = _integer(obj.get("workers", 1), "workers")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    series_terms = obj.get("series_terms")
    if series_terms is not None:
        series_terms = _integer(series_terms, "series_terms")
        if series_terms < 1:
            raise ConfigError("series_terms must be >= 1")
    ks_threshold = obj.get("ks_threshold")
    if ks_threshold is not None:
        ks_threshold = _number(ks_threshold, "ks_threshold")
        if ks_threshold < 0:
            raise ConfigError("ks_threshold must be >= 0")
    if "monotone_slack" in obj:
        slack = _number(obj["monotone_slack"], "monotone_slack")
        if slack < 0:
            raise ConfigError("monotone_slack must be >= 0")
    else:
        # KS values at N samples scatter by about the DKW radius
        slack = max(0.01, dkw_bound(samples, 0.01))
    return RunConfig(
        model=model,
        checkpoints=cps,
        samples=samples,
        seed=seed,
        workers=workers,
        series_terms=series_terms,
        ks_threshold=ks_threshold,
        monotone_slack=slack,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def _qlaw_to_dict(q: QLaw) -> dict:
    if isinstance(q, QConstant):
        return {"family": "constant", "value": q.value}
    if isinstance(q, QRademacher):
        return {"family": "rademacher", "p": q.p}
    if isinstance(q, QLogNormal):
        return {"family": "lognormal", "mean": q.mean, "var": q.var}
    if isinstance(q, QLogPareto):
        return {"family": "log_pareto", "alpha": q.alpha, "t0": q.t0}
    if isinstance(q, QLogBoundary):
        return {"family": "log_boundary", "ell": q.ell, "t0": q.t0}
    raise ConfigError(f"unknown Q law {q!r}")


def model_to_dict(model: PairModel) -> dict:
    if isinstance(model, DiscreteJoint):
        return {
            "family": "discrete_joint",
            "atoms": [[q, m, p] for (q, m), p in model.atoms],
        }
    if isinstance(model, ScaledRademacher):
        return {
            "family": "scaled_rademacher",
            "rho": model.rho,
            "p": model.p,
            "q": _qlaw_to_dict(model.q_law),
        }
    if isinstance(model, LogNormalPair):
        return {
            "family": "lognormal_pair",
            "mu_x": model.mu_x,
            "v2": model.v2,
            "q": _qlaw_to_dict(model.q_law),
        }
    if isinstance(model, SignedUnit):
        return {
            "family": "signed_unit",
            "p_m": model.p_m,
            "q": _qlaw_to_dict(model.q_law),
        }
    raise ConfigError(f"unknown model {model!r}")


def resolved_dict(cfg: RunConfig) -> dict:
    """Full configuration echo, defaults included, for the run manifest."""
    return {
        "model": model_to_dict(cfg.model),
        "checkpoints": list(cfg.checkpoints),
        "samples": cfg.samples,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "series_terms": cfg.series_terms,
        "ks_threshold": cfg.ks_threshold,
        "monotone_slack": cfg.monotone_slack,
    }
