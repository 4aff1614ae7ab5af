"""Config validation and CLI commands: exit codes, outputs, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from perpsim import cli, simulate
from perpsim import limits as lim
from perpsim.cli import main
from perpsim.config import load_config, parse_config, resolved_dict
from perpsim.errors import ConfigError, InvalidInputError
from perpsim.models import ScaledRademacher, SignedUnit
from perpsim.stats import dkw_bound

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path: Path, obj, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def base_config(**overrides):
    cfg = {
        "model": {
            "family": "scaled_rademacher",
            "rho": 2.0,
            "p": 0.5,
            "q": {"family": "rademacher", "p": 0.5},
        },
        "checkpoints": [5, 15],
        "samples": 4000,
        "seed": 321,
    }
    cfg.update(overrides)
    return cfg


CASE_I_ASYM = {
    "family": "scaled_rademacher",
    "rho": 2.0,
    "p": 0.7,
    "q": {"family": "rademacher", "p": 0.7},
}
FAIR_SIGN = {"family": "discrete_joint", "atoms": [[1.0, 1.0, 0.5], [1.0, -1.0, 0.5]]}


LOGNORMAL_PAIR = {
    "family": "lognormal_pair",
    "mu_x": 0.0,
    "v2": 1.0,
    "q": {"family": "constant", "value": 1.0},
}


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path)
        assert isinstance(cfg.model, ScaledRademacher)
        assert cfg.checkpoints == (5, 15)
        assert cfg.workers == 1  # default

    def test_unknown_top_level_key(self):
        # series_terms set the length of a series reference that is gone
        for key in ("typo_key", "series_terms"):
            with pytest.raises(ConfigError, match=f"unknown key.*'{key}'"):
                parse_config(base_config(**{key: 1}))

    def test_unknown_nested_key(self):
        bad = base_config()
        bad["model"]["rho_extra"] = 2.0
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(bad)

    def test_unknown_qlaw_key(self):
        bad = base_config()
        bad["model"]["q"] = {"family": "rademacher", "p": 0.5, "x": 1}
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(bad)

    def test_missing_required(self):
        bad = base_config()
        del bad["seed"]
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(bad)

    def test_bad_model_parameter(self):
        bad = base_config()
        bad["model"]["rho"] = 0.5
        with pytest.raises(ConfigError, match="rho"):
            parse_config(bad)

    def test_bad_checkpoints(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(checkpoints=[10, 10]))
        with pytest.raises(ConfigError):
            parse_config(base_config(checkpoints=[]))
        with pytest.raises(ConfigError):
            parse_config(base_config(checkpoints=[1.5]))

    def test_bools_are_not_numbers(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(samples=True))

    @pytest.mark.parametrize(
        "value",
        [float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["inf", "-inf", "nan", "int_past_float_range"],
    )
    def test_non_finite_numbers_rejected(self, value):
        bad = base_config()
        bad["model"]["rho"] = value
        with pytest.raises(ConfigError, match="finite"):
            parse_config(bad)

    def test_signed_unit_model(self):
        cfg = parse_config(
            base_config(
                model={
                    "family": "signed_unit",
                    "p_m": 0.75,
                    "q": {"family": "constant", "value": 1.0},
                }
            )
        )
        assert isinstance(cfg.model, SignedUnit)

    @pytest.mark.parametrize(
        "model",
        [
            base_config()["model"],
            {**base_config()["model"], "q": {"family": "constant", "value": 3.0}},
            {**LOGNORMAL_PAIR, "q": {"family": "lognormal", "mean": 0.5, "var": 2.0}},
            {**LOGNORMAL_PAIR, "q": {"family": "log_pareto", "alpha": -1.5, "t0": 1.0}},
            {**LOGNORMAL_PAIR, "q": {"family": "log_boundary", "ell": "growing", "t0": 2.0}},
            {"family": "signed_unit", "p_m": 0.75, "q": {"family": "rademacher", "p": 0.3}},
            {"family": "discrete_joint", "atoms": [[1.0, 2.0, 0.25], [-1.0, 0.5, 0.75]]},
        ],
        ids=[
            "scaled_rademacher-rademacher",
            "scaled_rademacher-constant",
            "lognormal_pair-lognormal",
            "lognormal_pair-log_pareto",
            "lognormal_pair-log_boundary",
            "signed_unit",
            "discrete_joint",
        ],
    )
    def test_resolved_dict_round_trips(self, model):
        cfg = parse_config(base_config(model=model))
        echoed = resolved_dict(cfg)
        assert echoed["model"] == model
        assert parse_config(echoed) == cfg
        assert "series_terms" not in echoed  # no field of that name

    @pytest.mark.parametrize(
        "model,message",
        [
            ({"family": "nope"}, "unknown model family 'nope' in model"),
            ({**LOGNORMAL_PAIR, "q": {"family": "nope"}}, "unknown Q family 'nope' in model.q"),
            (3, "model must be an object"),
            ({**LOGNORMAL_PAIR, "q": [1]}, "model.q must be an object"),
            (
                {**LOGNORMAL_PAIR, "q": {"family": "log_boundary", "ell": 3, "t0": 2.0}},
                "model.q.ell must be a string",
            ),
            (
                {**LOGNORMAL_PAIR, "q": {"family": "log_boundary", "ell": "flat", "t0": 2.0}},
                "invalid model.q: ell must be 'growing' or 'vanishing'",
            ),
            ({**LOGNORMAL_PAIR, "mu_x": "a"}, "model.mu_x must be a number, got 'a'"),
            (
                {k: v for k, v in LOGNORMAL_PAIR.items() if k != "mu_x"},
                "missing required key(s) ['mu_x'] in model",
            ),
            ({"family": "discrete_joint", "atoms": []}, "model.atoms must be a nonempty list"),
            (
                {"family": "discrete_joint", "atoms": [[1.0, 2.0]]},
                "model.atoms[0] must be [q, m, probability]",
            ),
            (
                {"family": "discrete_joint", "atoms": [[1.0, 2.0, "x"]]},
                "model.atoms[0][2] must be a number, got 'x'",
            ),
        ],
        ids=[
            "unknown_model_family",
            "unknown_q_family",
            "model_not_object",
            "q_not_object",
            "ell_not_string",
            "ell_flat",
            "mu_x_not_number",
            "mu_x_missing",
            "atoms_empty",
            "atom_two_elements",
            "atom_probability_not_number",
        ],
    )
    def test_malformed_model_message(self, model, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(base_config(model=model))
        assert str(exc.value) == message

    def test_zero_probability_atom_left_out_of_echo(self):
        model = {"family": "discrete_joint", "atoms": [[1, 2, 0.5], [1, -2, 0.5], [1, 0, 0]]}
        cfg = parse_config(base_config(model=model))
        echoed = resolved_dict(cfg)
        assert echoed["model"]["atoms"] == [[1.0, 2.0, 0.5], [1.0, -2.0, 0.5]]
        assert parse_config(echoed) == cfg

    @pytest.mark.parametrize("samples", [1, 2048, 20000, 26491, 26492, 10**6])
    def test_default_monotone_slack(self, samples):
        # KS noise between checkpoints scales like the DKW radius; 0.01 at least
        cfg = parse_config(base_config(samples=samples))
        assert cfg.monotone_slack == max(0.01, dkw_bound(samples, 0.01))
        assert (cfg.monotone_slack == 0.01) == (samples >= 26492)
        assert parse_config(base_config(samples=samples, monotone_slack=0.002)).monotone_slack == 0.002


class TestClassifyCommand:
    def test_case_i_sym(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["classify", "--config", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["regime"]["case"] == "I-sym"
        assert report["regime"]["limit"] == "BernoulliConvolution(0.5)"
        stdout = capsys.readouterr().out
        assert "I-sym" in stdout

    def test_convergent_exits_zero_with_note(self, tmp_path):
        cfg = base_config(
            model={
                "family": "lognormal_pair",
                "mu_x": -0.5,
                "v2": 1.0,
                "q": {"family": "constant", "value": 1.0},
            }
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["classify", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["regime"]["case"] == "CONVERGENT"
        assert report["regime"]["note"]

    def test_unsupported_exits_three(self, tmp_path):
        cfg = base_config(
            model={
                "family": "discrete_joint",
                "atoms": [[1.0, 2.0, 0.5], [1.0, -0.5, 0.5]],
            }
        )
        path = write_config(tmp_path, cfg)
        code = main(
            ["classify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 3

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["classify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("q", [float("inf"), float("nan")])
    def test_non_finite_atom_exits_two(self, tmp_path, q):
        cfg = base_config(
            model={"family": "discrete_joint", "atoms": [[q, 2.0, 0.5], [1.0, -2.0, 0.5]]}
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        code = main(["classify", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("t0", [0.0, -3.0])
    def test_boundary_t0_not_above_one_exits_two(self, tmp_path, capsys, t0):
        q = {"family": "log_boundary", "ell": "vanishing", "t0": t0}
        path = write_config(tmp_path, base_config(model={**LOGNORMAL_PAIR, "q": q}))
        code = main(["classify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == f"error: invalid model.q: boundary tail needs finite t0 > 1, got {t0}\n"

    def test_constant_m_exits_two(self, tmp_path):
        cfg = base_config(
            model={"family": "discrete_joint", "atoms": [[1.0, 2.0, 1.0]]}
        )
        path = write_config(tmp_path, cfg)
        code = main(
            ["classify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2


def run_command(tmp_path, command, model, **overrides):
    """Run ``command`` quietly on ``model``: (exit code, report or None)."""
    path = write_config(tmp_path, base_config(model=model, **overrides), f"{command}.json")
    out = tmp_path / command
    code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
    report = out / "report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


class TestEdgeLaws:
    def test_m_zero_atom_writes_null_moments(self, tmp_path):
        # mu = -inf and v2 = inf: CONVERGENT, and report.json holds null
        model = {"family": "discrete_joint", "atoms": [[1, 0, 0.5], [1, 2, 0.5]]}
        code, report = run_command(tmp_path, "classify", model)
        assert code == 0
        assert report["regime"]["case"] == "CONVERGENT"
        assert report["regime"]["mu"] is None and report["regime"]["v2"] is None
        code, report = run_command(tmp_path, "verify", model)
        assert code == 3
        assert report["regime"]["case"] == "CONVERGENT"

    def test_zero_probability_atom_reaches_a_verdict(self, tmp_path):
        # the p = 0 atom has Q < 0; the law itself is positive, Case III
        model = {"family": "discrete_joint", "atoms": [[1, 2, 0.5], [1, 0.5, 0.5], [-1, 2, 0]]}
        code, report = run_command(tmp_path, "classify", model)
        assert code == 0
        assert report["regime"]["case"] == "III-clt"
        code, report = run_command(tmp_path, "verify", model, samples=2000)
        assert code in (0, 1)
        assert report["passed"] is (code == 0)

    def test_zero_probability_m_zero_atom_is_case_i(self, tmp_path):
        model = {"family": "discrete_joint", "atoms": [[1, 2, 0.5], [1, -2, 0.5], [1, 0, 0]]}
        code, report = run_command(tmp_path, "classify", model)
        assert code == 0
        assert report["regime"]["case"] == "I-sym"
        assert report["regime"]["mu"] == math.log(2.0)
        assert report["regime"]["limit"] == "BernoulliConvolution(0.5)"

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_beta2_zero_exits_two(self, tmp_path, capsys, command):
        # M = +-1 and Q = 1 just when M = -1: R_n stays in {0, 1}, so
        # beta^2 = 0, and Gaussian(0) is no law to test against
        model = {"family": "discrete_joint", "atoms": [[1.0, -1.0, 0.5], [0.0, 1.0, 0.5]]}
        code, report = run_command(tmp_path, command, model)
        assert code == 2
        assert report is None
        assert "beta2 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize(
        "model",
        [
            {"family": "discrete_joint", "atoms": [[0.0, 2.0, 0.5], [0.0, -2.0, 0.5]]},
            {"family": "scaled_rademacher", "rho": 2.0, "p": 0.5, "q": {"family": "constant", "value": 0.0}},
            {"family": "signed_unit", "p_m": 0.5, "q": {"family": "constant", "value": 0.0}},
            {**LOGNORMAL_PAIR, "mu_x": 0.5, "q": {"family": "constant", "value": 0.0}},
            {**LOGNORMAL_PAIR, "q": {"family": "constant", "value": 0.0}},
        ],
        ids=["discrete_joint", "scaled_rademacher", "signed_unit", "lognormal_pair", "lognormal_pair_iii"],
    )
    def test_q_zero_exits_two(self, tmp_path, capsys, model, command):
        # R_n = 0 for every n: the law is refused, whatever its case would
        # be (Case III without Q > 0 would be unsupported, exit 3)
        code, report = run_command(tmp_path, command, model)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == "error: Q is a.s. 0, so R_n = 0 for every n and no limit law applies\n"

    def test_tiny_constant_q_is_not_zero(self, tmp_path):
        # EQ^2 underflows to 0, but Q > 0: Case II, not refused
        model = {**LOGNORMAL_PAIR, "mu_x": 0.5, "q": {"family": "constant", "value": 1e-200}}
        code, report = run_command(tmp_path, "classify", model)
        assert code == 0
        assert report["regime"]["case"] == "II-abs"


class TestVerifyCommand:
    def test_case_i_passes(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=20000))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        csv = (out / "checkpoints.csv").read_text().splitlines()
        assert csv[0] == "n,ks,mean,variance,N"
        assert len(csv) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["samples"] == 20000
        slack = max(0.01, dkw_bound(20000, 0.01))
        assert manifest["config"]["monotone_slack"] == report["monotone_slack"] == slack

    def test_small_n_default_slack_passes(self, tmp_path):
        # case2_abs at N = 2048: KS 0.0130 at n = 1000, then 0.0340 at
        # n = 10**4, within the sampling noise of correct code at that N.
        # Seed 575 is the first from 0 upward whose KS rises by more than
        # 0.02 from n = 1000 to 10**4; seeds 0-574 all pass as well
        cfg = json.loads((CONFIGS / "case2_abs.json").read_text())
        path = write_config(tmp_path, dict(cfg, samples=2048))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out),
                     "--seed", "575", "--quiet"])
        report = json.loads((out / "report.json").read_text())
        ks = [row["ks"] for row in report["checkpoints"]]
        assert ks[2] - ks[1] > 0.02
        assert report["monotone_slack"] == dkw_bound(2048, 0.01)
        assert json.loads((out / "manifest.json").read_text())["config"]["monotone_slack"] == dkw_bound(2048, 0.01)
        assert code == 0 and report["passed"] is True

    def test_checkpoints_csv_integer_columns(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=4000))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        row = json.loads((out / "report.json").read_text())["checkpoints"][0]
        csv = (out / "checkpoints.csv").read_text().splitlines()
        assert csv[0] == "n,ks,mean,variance,N"
        assert csv[1] == f"5,{row['ks']!r},{row['mean']!r},{row['variance']!r},4000"

    def test_report_is_strict_json(self, tmp_path):
        # III-evt: some normalized samples are inf, so the sample mean and
        # variance are NaN; report.json writes them as null
        model = {
            "family": "lognormal_pair",
            "mu_x": 0.0,
            "v2": 1.0,
            "q": {"family": "log_pareto", "alpha": -1.0, "t0": 1.0},
        }
        cfg = base_config(model=model, checkpoints=[20, 100], samples=5000, ks_threshold=1.0)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["regime"]["case"] == "III-evt"
        final = report["checkpoints"][-1]
        assert final["mean"] is None and final["variance"] is None
        assert (out / "checkpoints.csv").read_text().splitlines()[-1].split(",")[2] == "nan"

    def test_write_json_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "x.json", {"ks": float("nan")})

    @pytest.mark.parametrize("fault", ["q_one_law", "rho_n"])
    def test_case_i_negative_controls_fail(self, tmp_path, monkeypatch, fault):
        # case1_asym at its bundled seed and N, with the limit built as if
        # Q = 1 (the fault of an early version), or normalized by rho^n in
        # place of rho^(n-1): verify must fail on its own default cap
        if fault == "q_one_law":
            def q_one_law(regime, model):
                return lim.SymmetrizedPerpetuity(regime.lam, regime.p)
            monkeypatch.setattr(cli.lim, "limit_for", q_one_law)
        else:
            normalize = cli.normalize_samples
            def rho_n(regime, *args):
                return normalize(regime, *args) / regime.rho
            monkeypatch.setattr(cli, "normalize_samples", rho_n)
        out = tmp_path / "out"
        config = str(CONFIGS / "case1_asym.json")
        code = main(["verify", "--config", config, "--out", str(out), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert code == 1 and report["final_ks"] > report["threshold"] == 0.010146997846583985

    def test_zero_threshold_fails(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=2000, ks_threshold=0.0))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert (out / "checkpoints.csv").exists()  # report still written

    @pytest.mark.parametrize("field", ["ks_threshold", "monotone_slack"])
    def test_nan_gate_exits_two(self, tmp_path, field):
        path = write_config(tmp_path, base_config(samples=2000, **{field: float("nan")}))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_convergent_exits_three(self, tmp_path):
        cfg = base_config(
            model={
                "family": "lognormal_pair",
                "mu_x": -0.5,
                "v2": 1.0,
                "q": {"family": "constant", "value": 1.0},
            }
        )
        path = write_config(tmp_path, cfg)
        code = main(
            ["verify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 3

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=2000))
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        main(["verify", "--config", str(path), "--out", str(out1), "--quiet"])
        main(["verify", "--config", str(path), "--out", str(out2), "--quiet"])
        main(
            [
                "verify",
                "--config",
                str(path),
                "--out",
                str(out3),
                "--seed",
                "777",
                "--quiet",
            ]
        )
        a = (out1 / "checkpoints.csv").read_bytes()
        b = (out2 / "checkpoints.csv").read_bytes()
        c = (out3 / "checkpoints.csv").read_bytes()
        assert a == b
        assert a != c

    def test_worker_count_invariance(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=5000))
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["verify", "--config", str(path), "--out", str(out1), "--quiet"])
        main(
            [
                "verify",
                "--config",
                str(path),
                "--out",
                str(out2),
                "--workers",
                "2",
                "--quiet",
            ]
        )
        assert (out1 / "checkpoints.csv").read_bytes() == (
            out2 / "checkpoints.csv"
        ).read_bytes()

    def test_draw_exponent_overflow_exits_two(self, tmp_path, capsys):
        # a log-Pareto Q with alpha = -0.25 and t0 = 4e18 draws
        # e**(4e18 u**-4), past 2**(2**62) = e**3.2e18 for every u, so the
        # first step of trajectory 0 fails whatever the seed
        cfg = base_config(
            model={
                "family": "lognormal_pair",
                "mu_x": 0.0,
                "v2": 1.0,
                "q": {"family": "log_pareto", "alpha": -0.25, "t0": 4e18},
            },
            checkpoints=[100, 1000],
            samples=64,
            seed=5,
        )
        path = write_config(tmp_path, cfg)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory 0: draw e**") and err.endswith(" at n=1\n")

    def test_dead_worker_exits_four(self, tmp_path, capsys, monkeypatch):
        # signed_unit draws that end any process but this one, as the
        # out-of-memory killer would end a pool worker. Two blocks at
        # workers 2: two processes, each dies at its first draw, and the
        # broken pool is a run error naming the unfinished trajectories
        parent, draws = os.getpid(), SignedUnit.scaled_draws

        def dying(self, u_q, u_m):
            if os.getpid() != parent:
                os._exit(7)
            return draws(self, u_q, u_m)

        monkeypatch.setattr(SignedUnit, "scaled_draws", dying)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        B = simulate.BLOCK
        cfg = json.loads((CONFIGS / "case4.json").read_text())
        cfg.update(checkpoints=[3], samples=B + 1, workers=2)
        path = write_config(tmp_path, cfg)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: a worker process died (killed, or out of memory); "
            f"trajectories [0, {B}), [{B}, {B + 1}) were not finished\n"
        )

    @pytest.mark.parametrize(
        "error,code,message",
        [
            (MemoryError, 4, "a worker process raised MemoryError; "
             "trajectories [0, {B}), [{B}, {B1}) were not finished"),
            (InvalidInputError("no draw at all"), 2, "no draw at all"),
        ],
        ids=["memory_error", "perpsim_error"],
    )
    def test_raising_worker_exit_code(self, tmp_path, capsys, monkeypatch, error, code, message):
        # signed_unit draws that raise in any process but this one. An
        # exception of no perpsim kind, such as MemoryError, is a run error
        # like a dead worker's, naming the unfinished trajectories and the
        # exception's type: not exit 1, which is a failed verification.
        # perpsim's own errors keep their message and exit code
        parent, draws = os.getpid(), SignedUnit.scaled_draws

        def failing(self, u_q, u_m):
            if os.getpid() != parent:
                raise error
            return draws(self, u_q, u_m)

        monkeypatch.setattr(SignedUnit, "scaled_draws", failing)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        B = simulate.BLOCK
        cfg = json.loads((CONFIGS / "case4.json").read_text())
        cfg.update(checkpoints=[3], samples=B + 1, workers=2)
        path = write_config(tmp_path, cfg)
        got = main(["verify", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert got == code
        assert capsys.readouterr().err == f"error: {message.format(B=B, B1=B + 1)}\n"

    @pytest.mark.parametrize(
        "stem,cps,w",
        [
            ("case1_sym", (10, 40), False),
            ("case1_asym", (20, 60), False),
            ("case2_abs", (10, 40), False),
            ("case3_clt", (10, 40), True),
        ],
        ids=["case1_sym", "case1_asym", "case2_abs", "case3_clt"],
    )
    def test_memory_slope_is_snapshots_plus_four_words(self, tmp_path, stem, cps, w):
        # Per trajectory, verify holds each checkpoint's snapshot (16 B),
        # and W's (8 B) when it tracks W, and while a checkpoint's row is
        # made, four more words at most. A block's and a chunk's buffers do
        # not grow with N, so they cancel in the slope of the traced peak
        # from N = 10^5 to 2 * 10^5. Holding all of a run's per-block
        # snapshots next to their concatenation, and every checkpoint's
        # normalized samples, it was 88 / 152 / 88 / 104 B
        cfg = dataclasses.replace(load_config(CONFIGS / f"{stem}.json"), checkpoints=cps)
        # a first run's imports and one-off allocations are not the run's
        cli.cmd_verify(dataclasses.replace(cfg, samples=100), tmp_path, quiet=True)
        peaks = []
        for n in (100_000, 200_000):
            tracemalloc.start()
            try:
                cli.cmd_verify(dataclasses.replace(cfg, samples=n), tmp_path, quiet=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slope = (peaks[1] - peaks[0]) / 100_000
        assert slope <= (16 + 8 * w) * len(cps) + 32


class TestOracleCommand:
    @staticmethod
    def oracle_config(**overrides):
        cfg = {
            "model": {
                "family": "discrete_joint",
                "atoms": [[1.0, 1.0, 0.5], [1.0, -1.0, 0.5]],
            },
            "checkpoints": [1, 2, 5, 10],
            "samples": 50000,
            "seed": 2,
        }
        cfg.update(overrides)
        return cfg

    def test_fair_sign_passes(self, tmp_path):
        path = write_config(tmp_path, self.oracle_config())
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        row = report["checkpoints"][-1]
        assert row["deviation"] <= report["dkw_bound"]
        assert row["recursion_vs_enumeration"] < 1e-10

    def test_checkpoints_csv_integer_columns(self, tmp_path):
        path = write_config(tmp_path, self.oracle_config(samples=3000))
        out = tmp_path / "out"
        main(["oracle", "--config", str(path), "--out", str(out), "--quiet"])
        row = json.loads((out / "report.json").read_text())["checkpoints"][0]
        csv = (out / "checkpoints.csv").read_text().splitlines()
        assert csv[0] == "n,ks,mean,variance,N"
        assert csv[1] == (
            f"1,{row['deviation']!r},{row['mc_mean']!r},{row['mc_variance']!r},3000"
        )

    def test_seed_46_passes(self, tmp_path):
        # the worst of 10 checkpoints at delta = 0.01 overshoots 0.01 / 10 less
        # often than 1%. Seed 46 is the first from 0 upward whose deviation
        # leaves the per-checkpoint 1% band at some checkpoint (at n = 6);
        # seeds 0-45 stay inside it at every checkpoint
        config = CONFIGS / "oracle_fair_sign.json"
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(config), "--out", str(out),
                     "--seed", "46", "--workers", "2", "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert report["delta"] == pytest.approx(0.001)
        band = cli.dkw_bound(100_000, 0.01)
        assert max(row["deviation"] for row in report["checkpoints"]) > band
        assert code == 0 and report["passed"] is True

    def test_wrong_exact_law_fails(self, tmp_path, monkeypatch):
        # the calibrated gate still rejects samples against the law of a
        # different model (P(M = +1) = 0.55 instead of 1/2)
        wrong = cli.DiscreteJoint((((1.0, 1.0), 0.55), ((1.0, -1.0), 0.45)))
        real = cli.exact_laws
        monkeypatch.setattr(cli, "exact_laws", lambda model, checkpoints: real(wrong, checkpoints))
        path = write_config(tmp_path, self.oracle_config(samples=10_000))
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert json.loads((out / "report.json").read_text())["passed"] is False

    @pytest.mark.parametrize(
        "atoms",
        [
            [[1.0, 2.0, 0.5], [1.0, -2.0, 0.5]],  # |M| = 2
            [[1.0, 1.0, 1.0]],  # EM = 1
        ],
    )
    def test_moment_recursion_only_where_it_applies(self, tmp_path, atoms):
        model = {"family": "discrete_joint", "atoms": atoms}
        path = write_config(tmp_path, self.oracle_config(model=model, samples=2000))
        out = tmp_path / "out"
        main(["oracle", "--config", str(path), "--out", str(out), "--quiet"])
        rows = json.loads((out / "report.json").read_text())["checkpoints"]
        assert not any("recursion_mean" in row for row in rows)

    def test_non_discrete_exits_two(self, tmp_path):
        path = write_config(tmp_path, base_config())
        code = main(
            ["oracle", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2

    def test_guard_exits_two(self, tmp_path, capsys):
        # 3163 atoms of distinct Q: the second step would map 3163**2 live
        # atoms, past the guard, which stops it before they are made
        k = 3163
        cfg = self.oracle_config(
            model={
                "family": "discrete_joint",
                "atoms": [[float(q), 2.0, 1.0 / k] for q in range(k)],
            },
            checkpoints=[2],
        )
        path = write_config(tmp_path, cfg)
        code = main(
            ["oracle", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2
        assert "step 2 of 2 maps 3163 live atoms" in capsys.readouterr().err

    def test_double_range_exits_two(self, tmp_path, capsys):
        # R_n reaches 2**1024 - 1 = inf with a positive probability at n = 1024
        cfg = self.oracle_config(
            model={"family": "discrete_joint", "atoms": [[1.0, 2.0, 0.5], [1.0, 0.0, 0.5]]},
            checkpoints=[10, 1100],
        )
        path = write_config(tmp_path, cfg)
        code = main(
            ["oracle", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2
        assert "step 1024 of 1100 leaves the double range" in capsys.readouterr().err

    def test_tiny_sample_smoke(self, tmp_path):
        # loose-bound smoke path: completes and reports either way
        path = write_config(tmp_path, self.oracle_config(samples=10))
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(path), "--out", str(out), "--quiet"])
        assert code in (0, 1)
        assert (out / "report.json").exists()


class TestSampleCommand:
    def test_writes_per_checkpoint_files(self, tmp_path):
        path = write_config(tmp_path, base_config(samples=500))
        out = tmp_path / "out"
        code = main(["sample", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        for n in (5, 15):
            lines = (out / f"samples_n{n}.csv").read_text().splitlines()
            assert lines[0] == "value"
            assert len(lines) == 501


def one_shot_csv(header, columns) -> str:
    """A CSV built whole, every cell formatted as ``_write_csv`` promises:
    a float64 array by ``repr``, any other cell by ``cli._fmt``."""
    cells = [
        [repr(x) for x in col.tolist()] if getattr(col, "dtype", None) == np.float64
        else [cli._fmt(x) for x in col]
        for col in columns
    ]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)])


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [1, cli._CSV_ROWS - 1, cli._CSV_ROWS, cli._CSV_ROWS + 1])
    def test_chunked_rows_equal_one_shot(self, tmp_path, rows):
        # rows go out a chunk at a time; the file must not show where
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values[::7] = np.nan
        counts = [int(k) for k in rng.integers(0, 10**6, rows)]
        gammas = [None if k % 3 else float(k) / 7 for k in counts]
        header = ["n", "value", "gamma"]
        columns = [counts, values, gammas]
        path = tmp_path / "out.csv"
        cli._write_csv(path, header, columns)
        assert path.read_text() == one_shot_csv(header, columns)


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name,case",
        [
            ("case1_sym.json", "I-sym"),
            ("case1_asym.json", "I-asym"),
            ("case2_abs.json", "II-abs"),
            ("case3_clt.json", "III-clt"),
            ("case3_evt.json", "III-evt"),
            ("case4.json", "IV"),
        ],
    )
    def test_classify_bundled(self, tmp_path, name, case):
        config = CONFIGS / name
        out = tmp_path / "out"
        code = main(["classify", "--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["regime"]["case"] == case

    @pytest.mark.parametrize(
        "name,manifest,report",
        [
            pytest.param(
                "case1_sym.json",
                "171a208ecd579761afecd9a6d62239563c781cab6d2833b983f3f3c9f284e699",
                "812e50529cb33b8851c818f67170d2f83c72fcd37bdd9c5a08523b82d483a4d3",
                id="case1_sym.json",
            ),
            pytest.param(
                "case1_asym.json",
                "58b844def38198b4ae352bfd7ecfe7c352fa39b9643b00f03ed6c9b9733989c8",
                "f17260b60f63f7a065187428b391eb874cec0afa6527e9c856319191419a973b",
                id="case1_asym.json",
            ),
            pytest.param(
                "case2_abs.json",
                "3a522e282f664461a68737bb4ca15337c09101d38c10b9bfb38283be0e273615",
                "35172b640a53326752dc594e6932b9f2faf97eb9cc80205a53c041579c116b02",
                id="case2_abs.json",
            ),
            pytest.param(
                "case3_clt.json",
                "4687e1e3c49df5ef388e26f7df66f2d15e20164ef8bca3966937f698b9a6fbc0",
                "e926c55ab15b9d6b65f8368e743d6a351e2d9da0075a5f41fb2817a97fbb474e",
                id="case3_clt.json",
            ),
            pytest.param(
                "case3_evt.json",
                "d61ccb476cc1fa9d61795fd1019d211e7dffb7db5f67d47cd69fbe3888a526ce",
                "a426c2ea576cc65ccecaac969a1fed266be38a503f97998c2fd8292c3020aae3",
                id="case3_evt.json",
            ),
            pytest.param(
                "case4.json",
                "5676e01f82b630f4218e5721a9cc3c1367dbcf0ef975817de2b75be8ec7595d7",
                "c63ccccba8fdab5acb71a3ed2644a8dc9fd2c3bc46a6280623e462af453e83a9",
                id="case4.json",
            ),
            pytest.param(
                "oracle_fair_sign.json",
                "ab43c2c6dc6b007ef33c5409a2a01512866f595c64a48946c74171b7a725ad55",
                "23ad826a8266f957931919947b5f17846f1125ce79f2e19b79fe9bccbda2533e",
                id="oracle_fair_sign.json",
            ),
        ],
    )
    def test_classify_outputs_pinned(self, tmp_path, name, manifest, report):
        """The schema echo and the regime, labels included, byte for byte."""
        out = tmp_path / "out"
        code = main(["classify", "--config", str(CONFIGS / name), "--out", str(out), "--quiet"])
        assert code == 0
        digests = [
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("manifest.json", "report.json")
        ]
        assert digests == [manifest, report]


# sha256 of every file that verify, sample and oracle write for small
# variants of the bundled configs (N = 1000 and the checkpoints below), at
# workers 1 and 2: per run, over the files in name order, each file's name
# and the sha256 of its bytes. The manifest echoes the worker count, so the
# two runs' digests differ by it alone
SMALL_CHECKPOINTS = {
    "case1_sym": [10, 40],
    "case1_asym": [20, 60],
    "case2_abs": [10, 100],
    "case3_clt": [10, 100],
    "case3_evt": [10, 100],
    "case4": [10, 100],
    "oracle_fair_sign": list(range(1, 11)),
}
OUTPUT_DIGESTS = {
    ("case1_sym", "verify"): (
        "1742d85d2729eb2d2698f7aaa0cfcc8cd755d9844d535ce3fb1c642fbfd96556",
        "2a78712f2df05422725c686541b32379cbc5012956d9f719def9db4361368a34",
    ),
    ("case1_sym", "sample"): (
        "ec048e30d4b1a3a8d71c2b4da4ce790e87eed16fb69096e55639ad1e88b71a08",
        "a554ff67e9291b0c7d5d1addd78104b18c66c2a54b6544af51441217d9bbe9a1",
    ),
    ("case1_asym", "verify"): (
        "76a117fe1034f0ef1c5ed5f5d57fe83ffe5b4c547c2465839ccf87168397bc00",
        "72d6a3bb4f9109ab38cae3a2f235d24b570ed9290de40f439066fe4a467eab48",
    ),
    ("case1_asym", "sample"): (
        "fad8de90d749d1e86fcf01f4aaa8b3629890b402c773eb0b1417d8c67c9f052c",
        "ad19c05d73e7e254ce488e810a833c570ebe4f4435f24f5c42234d24fdc7c233",
    ),
    ("case2_abs", "verify"): (
        "f6153674531f3edcfc61792f0b16af4d46e9198465355130147227501d5be6e1",
        "38f002617f79ef56c33f11a05b7d7571e7ea4630acfc4e119c8cf97e30cd5d72",
    ),
    ("case2_abs", "sample"): (
        "0b6741f8cd14312765fd4be58b9203949559f81de5fcac1bd9c09f7158e88391",
        "68c5f32e491c004e639429efd1820307b884e4713d05062162e46ba71d41fa4e",
    ),
    ("case3_clt", "verify"): (
        "95835efec1ccae3c677b368ef85fd709aab448429947e144b6c9f9dee71102aa",
        "657db7ff6eec502c6ad790438497ed21bd0793d1ca80a7334d2ad35dfef9209a",
    ),
    ("case3_clt", "sample"): (
        "618922cb1c652898a53cb1b8d8bc1359fa05d10f12853a2071450946fd1c1994",
        "94c504daeb33654c6b9e0287596fbf80bebee654a546e55ac69f37ef76a3ff31",
    ),
    ("case3_evt", "verify"): (
        "3950ccd2bf2f3a724e8146a4036c0dadc284508ca2b3a4b15835cdf56142d12e",
        "9d3cfd7b8413c4495f8722a6ce815ddfe2f80165135ccca7e9e41c201f665940",
    ),
    ("case3_evt", "sample"): (
        "5ea35df10016ba42a7c6ca502cf2eb81d114e82768c1d8ca52d83e868316f6c2",
        "94df1185f882acf9831db59b5daae9b4d3529b27915e3cd86907a642dae64fe7",
    ),
    ("case4", "verify"): (
        "a8eb20936dbe3beda936edfcb48a099570da6aaefb23fc348604efe272fc1cb6",
        "87c1c926fe766b0b99bc148fc124b621dc7d7541d41485e7477eb836cc2acd29",
    ),
    ("case4", "sample"): (
        "c77b34bc118125ea48e3f302ea959fc41a249a1a79c28528d064159db0812905",
        "0604f3a9e8a498583cd8caff327d950b178cee161606d2de89ad8f8851441310",
    ),
    ("oracle_fair_sign", "oracle"): (
        "69e2785429cae5e2b12f445010058d7e9966829fd7caf346b33be2843fa6d3fe",
        "dd3ec732774079b492df9e737ea668864f105dfcfe6ac0588047d88fd9a306cf",
    ),
}


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f"{f.name}\n{hashlib.sha256(f.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


class TestOneCheckpointAtATime:
    @pytest.mark.parametrize(
        "command,model",
        [("verify", None), ("verify", CASE_I_ASYM), ("sample", None), ("oracle", FAIR_SIGN)],
        ids=["verify", "verify_bracket", "sample", "oracle"],
    )
    def test_earlier_samples_are_gone(self, tmp_path, monkeypatch, command, model):
        """A checkpoint's samples, normalized or the oracle's R_n, are made
        only once no earlier checkpoint's samples are held, by the loop or
        by its caller. The I-asym law takes a bracketed reference."""
        owner, name = (simulate.BatchResult, "to_reals") if command == "oracle" else (cli, "normalize_samples")
        real, made = getattr(owner, name), []

        def make_samples(*args):
            assert all(ref() is None for ref in made), "an earlier checkpoint's samples are held"
            values = real(*args)
            made.append(weakref.ref(values))
            return values

        monkeypatch.setattr(owner, name, make_samples)
        cfg = base_config(samples=200, checkpoints=[5, 10, 15])
        if model is not None:
            cfg["model"] = model
        path = write_config(tmp_path, cfg)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code in (0, 1) and len(made) == 3


class TestOutputsPinned:
    @pytest.mark.parametrize(
        "stem,command", sorted(OUTPUT_DIGESTS), ids=lambda v: v if isinstance(v, str) else None
    )
    def test_outputs_pinned(self, tmp_path, monkeypatch, stem, command):
        """Every output byte of the commands that run a batch. Blocks of 512
        trajectories, so that workers 2 runs the pool on two blocks; the
        output does not depend on the block size."""
        monkeypatch.setattr(simulate, "BLOCK", 512)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
        cfg.update(samples=1000, checkpoints=SMALL_CHECKPOINTS[stem])
        path = write_config(tmp_path, cfg)
        got = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            main([command, "--config", str(path), "--out", str(out),
                  "--workers", str(workers), "--quiet"])
            got.append(output_digest(out))
        assert tuple(got) == OUTPUT_DIGESTS[stem, command]
