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
from perpsim.cli import main
from perpsim.config import load_config, parse_config, resolved_dict
from perpsim.errors import ConfigError
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
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base_config(typo_key=1))

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
        assert echoed["series_terms"] is None  # default made explicit

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
        # Q = 0 and M = +-1: R_n = 0, and Gaussian(0) is no law to test against
        model = {"family": "signed_unit", "p_m": 0.5, "q": {"family": "constant", "value": 0.0}}
        code, report = run_command(tmp_path, command, model)
        assert code == 2
        assert report is None
        assert "beta2 must be positive" in capsys.readouterr().err


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
        "stem,cps,w,two_sample",
        [
            ("case1_sym", (10, 40), False, False),
            ("case1_asym", (20, 60), False, True),
            ("case2_abs", (10, 40), False, False),
            ("case3_clt", (10, 40), True, False),
        ],
        ids=["case1_sym", "case1_asym", "case2_abs", "case3_clt"],
    )
    def test_memory_slope_is_snapshots_plus_four_words(self, tmp_path, stem, cps, w, two_sample):
        # Per trajectory, verify holds each checkpoint's snapshot (16 B),
        # and W's (8 B) when it tracks W, and while a checkpoint's row is
        # made, four more words at most; a two-sample reference adds two
        # (itself and its sorted copy). A block's and a chunk's buffers do
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
        assert slope <= (16 + 8 * w) * len(cps) + 32 + 16 * two_sample


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
        real = cli.enumerate_exact
        monkeypatch.setattr(cli, "enumerate_exact", lambda model, n: real(wrong, n))
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

    def test_guard_exits_two(self, tmp_path):
        cfg = self.oracle_config(
            model={
                "family": "discrete_joint",
                "atoms": [[1.0, 2.0, 0.4], [0.0, 0.5, 0.3], [-1.0, -1.0, 0.3]],
            },
            checkpoints=[30],
        )
        path = write_config(tmp_path, cfg)
        code = main(
            ["oracle", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2

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
            (
                "case1_sym.json",
                "88d6f6c6e29c5beea667934358112385a9f0a56f11b75712b5b5fe9c2a984987",
                "812e50529cb33b8851c818f67170d2f83c72fcd37bdd9c5a08523b82d483a4d3",
            ),
            (
                "case1_asym.json",
                "010a98ae213237f6e154405b280afa2ca0931a6cebafb3ec8a05347603a75068",
                "f17260b60f63f7a065187428b391eb874cec0afa6527e9c856319191419a973b",
            ),
            (
                "case2_abs.json",
                "d698558d2c763703783dd602729cebdc498f36957842ee31c4a25acc538649dc",
                "35172b640a53326752dc594e6932b9f2faf97eb9cc80205a53c041579c116b02",
            ),
            (
                "case3_clt.json",
                "c4b6ebc93f6f28ba8981b372b9f7ee20b742335b6bd500e39fc2e085212b3765",
                "e926c55ab15b9d6b65f8368e743d6a351e2d9da0075a5f41fb2817a97fbb474e",
            ),
            (
                "case3_evt.json",
                "0923812057a7f6443fcbc6c0e95e508b520fb4de2c1f35333844274bb6cb877c",
                "a426c2ea576cc65ccecaac969a1fed266be38a503f97998c2fd8292c3020aae3",
            ),
            (
                "case4.json",
                "0560f1d9e5c3210ef6b628c1d8a8097a682c2cae1ee5a24c65e8bd8207d9a37e",
                "c63ccccba8fdab5acb71a3ed2644a8dc9fd2c3bc46a6280623e462af453e83a9",
            ),
            (
                "oracle_fair_sign.json",
                "ab8f0601b0edd7d3968b237dd8107b5b2209854890e62d1175237c5244b42801",
                "23ad826a8266f957931919947b5f17846f1125ce79f2e19b79fe9bccbda2533e",
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
        "94830c480faa7c25c767003623d141a6493ad90940daa12ddbb2ce1ca3f0b482",
        "e9e46e3263bce3b8b80eaaeead9e91184d217ee25568ff36c44efbf66d454438",
    ),
    ("case1_sym", "sample"): (
        "03c51a9b86041d169cebbaa510b0947a98672b7bdf702c76059e7b274a9a9de1",
        "9e6bcf9fd1742eaceef124eef56155688a34114355e33432aa33a7c800e77639",
    ),
    ("case1_asym", "verify"): (
        "bd1f01b2a1b8575a2250db0d0978918400dd1eede83dd4af915eda4dd6fe6009",
        "81aad71fa701cb350dc8386fe75190f0c1321c62e2b094d7a3574fdf173e5d98",
    ),
    ("case1_asym", "sample"): (
        "6e2fcfa69294a007a0b98acace4385192404e6cbd36410ef4c72c40f93ae62b3",
        "a34d6d69dca98e939134434f5ada3637b3f6226c12c9ca32d6ea7f9085bf27d0",
    ),
    ("case2_abs", "verify"): (
        "ad141ad2c57241078ee865bf8624652284ba7fb29db7cba4106bf7dbaf40995d",
        "797974bd60b8f7023c7d4e3f87a312264647ceca6204905b9ee303b852d35088",
    ),
    ("case2_abs", "sample"): (
        "d4259b3e3a77a07c022f8b906c7cdad3ff6cd41015c1b6c34f7b0c7e8c38b19d",
        "68f548f59292507702e06e11e110979269bac3f030aa733ae362960d42ea5e8d",
    ),
    ("case3_clt", "verify"): (
        "83df3ab754b4fd4ae912a5bc78115932c3e48b59c5ec5b532c3fd6302641065a",
        "0bb753b3a206462c795cb573540302206c9dcb45834baad65107b333de757acc",
    ),
    ("case3_clt", "sample"): (
        "0e5fdd6b0fe9d678fea68816487fda747f4932af549c1b5ebe083c841b405935",
        "677cb7c767b761afd9a041f345e99a6d707765dbd1a22038ddc4a0800e1f6fe0",
    ),
    ("case3_evt", "verify"): (
        "1d40923a20072d1fcd6aebb73368a3d520024530d9069e358a8be3febfc745bb",
        "1439ecd318578ffd0be30307c7fced8d5d4c474201657c4d9fc15ed4abce21ab",
    ),
    ("case3_evt", "sample"): (
        "f23cded2e232d2c3b25929fd44db751501beba4b28c10f8678c984bb08025e73",
        "154f6a42e6abd8f160341243a7bc802a94d7a451fde4c0edc4a58905a65d90d2",
    ),
    ("case4", "verify"): (
        "f509e18808c9a5e479f39989e7ad47058fcede58d2c4d23d23703e30e0e61c2c",
        "d30e06d52dcf0e7ae54a1504873f37c43cd0c98feac6eded3a59db983f629a1d",
    ),
    ("case4", "sample"): (
        "73d99fa11fa0dfdefa2a0648144c819cf841e9a7e077e5f8ba567a52d3352c7f",
        "28300ba2788933d351f024154b9a3bbae2fc44159d1a218a2da308f2139952b9",
    ),
    ("oracle_fair_sign", "oracle"): (
        "3529f2f349c34334c21d847c8ef6ed4a8137065c4eb996349669b387488aacfd",
        "84da811680dc41bb1e74a79da7838b39bbeccebfcdeb342279fc67bac81382e7",
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
        ids=["verify", "verify_two_sample", "sample", "oracle"],
    )
    def test_earlier_samples_are_gone(self, tmp_path, monkeypatch, command, model):
        """A checkpoint's samples, normalized or the oracle's R_n, are made
        only once no earlier checkpoint's samples are held, by the loop or
        by its caller. The I-asym law takes a two-sample reference."""
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
