"""Config validation and CLI commands: exit codes, outputs, determinism."""

import json
from pathlib import Path

import pytest

from perpsim import cli
from perpsim.cli import main
from perpsim.config import load_config, parse_config, resolved_dict
from perpsim.errors import ConfigError
from perpsim.models import ScaledRademacher, SignedUnit


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

    def test_resolved_dict_round_trips(self):
        cfg = parse_config(base_config())
        echoed = resolved_dict(cfg)
        assert parse_config(echoed) == cfg
        assert echoed["series_terms"] is None  # default made explicit


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
        assert manifest["config"]["monotone_slack"] == 0.01

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

    def test_bundled_seed_115_passes(self, tmp_path):
        # the worst of 10 checkpoints at delta = 0.01 overshoots 0.01 / 10 less
        # often than 1%: seed 115 fails a per-checkpoint 1% band at n = 2
        config = Path(__file__).resolve().parent.parent / "configs" / "oracle_fair_sign.json"
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(config), "--out", str(out),
                     "--seed", "115", "--workers", "2", "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert report["delta"] == pytest.approx(0.001)
        assert report["checkpoints"][1]["deviation"] > cli.dkw_bound(100_000, 0.01)
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
        config = Path(__file__).resolve().parent.parent / "configs" / name
        out = tmp_path / "out"
        code = main(["classify", "--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["regime"]["case"] == case
