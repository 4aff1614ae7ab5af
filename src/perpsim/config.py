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
      "ks_threshold": float|null,  default null (regime-dependent default)
      "monotone_slack": float      default max(0.01, DKW radius at N, delta 0.01)
    }

A family's keys are the fields of its dataclass in ``perpsim.models``,
with ``q`` for ``q_law``; all are numbers but ``atoms``, ``ell`` and ``q``.
An atom of probability 0 is dropped, from the manifest's echo too.

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

import dataclasses
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


_Q_FAMILIES = {
    "constant": QConstant,
    "rademacher": QRademacher,
    "lognormal": QLogNormal,
    "log_pareto": QLogPareto,
    "log_boundary": QLogBoundary,
}
_PAIR_FAMILIES = {
    "discrete_joint": DiscreteJoint,
    "scaled_rademacher": ScaledRademacher,
    "lognormal_pair": LogNormalPair,
    "signed_unit": SignedUnit,
}
_FAMILY_NAMES = {cls: name for name, cls in {**_Q_FAMILIES, **_PAIR_FAMILIES}.items()}


def _key(field: str) -> str:
    """A dataclass field's JSON key: its own name, but "q" for q_law."""
    return "q" if field == "q_law" else field


def _atoms(obj, where: str) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where} must be a nonempty list")
    parsed = []
    for i, atom in enumerate(obj):
        if not isinstance(atom, list) or len(atom) != 3:
            raise ConfigError(f"{where}[{i}] must be [q, m, probability]")
        q, m, p = (_number(x, f"{where}[{i}][{j}]") for j, x in enumerate(atom))
        parsed.append(((q, m), p))
    return tuple(parsed)


def _ell(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise ConfigError(f"{where} must be a string")
    return obj


_FIELD_PARSERS = {
    "atoms": _atoms,
    "ell": _ell,
    "q_law": lambda obj, where: _parse_family(obj, _Q_FAMILIES, where),
}


def _parse_family(obj, families: dict, where: str):
    """A model or Q law from its family's table entry: one JSON key per
    dataclass field, in field order, each parsed as a number unless the
    field has its own parser."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    family = obj.get("family")
    cls = families.get(family) if isinstance(family, str) else None
    if cls is None:
        kind = "Q" if families is _Q_FAMILIES else "model"
        raise ConfigError(f"unknown {kind} family {family!r} in {where}")
    fields = [f.name for f in dataclasses.fields(cls)]
    _require_keys(obj, where, {"family", *map(_key, fields)}, set())
    args = {}
    for f in fields:
        key = _key(f)
        args[f] = _FIELD_PARSERS.get(f, _number)(obj[key], f"{where}.{key}")
    try:
        return cls(**args)
    except InvalidModelError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_config(obj: dict) -> RunConfig:
    """Validate a config tree; unknown keys anywhere are an error."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        obj,
        "config",
        {"model", "checkpoints", "samples", "seed"},
        {"workers", "ks_threshold", "monotone_slack"},
    )
    model = _parse_family(obj["model"], _PAIR_FAMILIES, "model")
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


def model_to_dict(model: PairModel | QLaw) -> dict:
    """The JSON object of a model or Q law: the parse, walked in reverse."""
    if type(model) not in _FAMILY_NAMES:
        raise ConfigError(f"unknown model {model!r}")
    out = {"family": _FAMILY_NAMES[type(model)]}
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        if f.name == "atoms":
            value = [[q, m, p] for (q, m), p in value]
        elif f.name == "q_law":
            value = model_to_dict(value)
        out[_key(f.name)] = value
    return out


def resolved_dict(cfg: RunConfig) -> dict:
    """Full configuration echo, defaults included, for the run manifest."""
    return {
        "model": model_to_dict(cfg.model),
        "checkpoints": list(cfg.checkpoints),
        "samples": cfg.samples,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "ks_threshold": cfg.ks_threshold,
        "monotone_slack": cfg.monotone_slack,
    }
