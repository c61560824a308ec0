import json
import math
from pathlib import Path

import numpy as np
import pytest

import catapult
import catapult.training as training
from catapult.cli import (
    ConfigError,
    config_digest,
    dumps_json,
    format_float,
    main,
    normalize_config,
)
from catapult.datasets import EigenScheme, TeacherStudentSpec
from catapult.models import DeepReluNet


def write_config(tmp_path: Path, payload: dict, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# A one-neuron ReLU net whose only first-layer weight is negative at
# init_seed 0, so nothing is active on the toy_relu point x = 4 and the
# initial kernel is exactly zero.
VANISHING_KERNEL_CONFIG = {
    "model": {"family": "homogenous", "width": 1, "a_minus": 0.0, "a_plus": 1.0, "init_seed": 0},
    "dataset": {"kind": "toy_relu"},
    "training": {"eta_lambda0_grid": [1.0, 3.0]},
}


def quad_toy_config(**training):
    training = {"eta_lambda0_grid": [3.0], "ntk_eval_interval": 1, **training}
    return {
        "model": {
            "family": "pure_quadratic",
            "n_psi": 64,
            "zeta_rule": "2_over_n",
            "init_seed": 0,
            "eigen_scheme": {"kind": "uniform", "low": 1.0, "high": 2.0},
        },
        "dataset": {"kind": "toy"},
        "training": training,
    }


class TestSerialization:
    def test_float_formatting_roundtrips(self):
        for value in (0.1, 1e-300, math.pi, 2.0 / 3.0, 1e17 + 1):
            assert float(format_float(value)) == value

    def test_canonical_json_sorted_and_deterministic(self):
        payload = {"b": [1.5, None, True], "a": {"y": "text", "x": 2}}
        text = dumps_json(payload)
        assert text.index('"a"') < text.index('"b"')
        assert dumps_json(payload) == text

    def test_non_finite_floats_are_json_null(self):
        # JSON has no inf or nan; no parser reads the bare tokens
        text = dumps_json({"a": math.inf, "b": -math.inf, "c": math.nan, "d": [np.float64("inf")]})
        assert json.loads(text) == {"a": None, "b": None, "c": None, "d": [None]}

    def test_digest_changes_with_seed(self):
        base = normalize_config(quad_toy_config(), Path("."))
        other = normalize_config(quad_toy_config(), Path("."), seed_override=5)
        assert config_digest(base) != config_digest(other)


class TestConfigValidation:
    def test_roundtrip_is_identity(self, tmp_path):
        cfg = normalize_config(quad_toy_config(), tmp_path)
        again = normalize_config(cfg, tmp_path)
        assert again == cfg
        assert config_digest(again) == config_digest(cfg)

    def test_digests_are_pinned(self, tmp_path):
        # the normalized form is what outputs embed; moving a default or a
        # check into a library record must not change it
        quad = normalize_config(quad_toy_config(), tmp_path)
        assert config_digest(quad) == "dc0a3a659ff84091e583f88fd8080c740b056c65bbdadf456fed5dcd8949cd97"
        student = normalize_config(small_teacher_student_config(), tmp_path)
        assert config_digest(student) == "aa9fc984c64a1ddadd0a4ac0a9626fc727c80dd8f7e000f92c2846ef05ed7b62"

    def test_absent_eigen_scheme_is_the_record_default(self, tmp_path):
        cfg = normalize_config(small_teacher_student_config(), tmp_path)
        scheme = EigenScheme(**cfg["dataset"]["eigen_scheme"])
        assert scheme == EigenScheme() == TeacherStudentSpec(8, 4).eigen_scheme

    def test_roundtrip_keeps_every_normalized_field(self, tmp_path):
        raw = small_teacher_student_config(eigen_scheme={"kind": "pm_one"}, n_phi_teacher=2)
        raw["dataset"]["n_phi_student"] = 2
        raw["model"] = {"family": "quadratic_with_bias", "zeta": 0.5}
        cfg = normalize_config(raw, tmp_path)
        assert cfg["dataset"]["eigen_scheme"] == {"kind": "pm_one", "low": 1.0, "high": 1.0}
        assert normalize_config(cfg, tmp_path) == cfg

    def test_requires_exactly_one_rate_field(self, tmp_path):
        bad = quad_toy_config()
        bad["training"]["eta"] = 0.1
        with pytest.raises(ConfigError, match="training.eta"):
            normalize_config(bad, tmp_path)

    def test_empty_grid_rejected(self, tmp_path):
        bad = quad_toy_config()
        bad["training"]["eta_lambda0_grid"] = []
        with pytest.raises(ConfigError, match="eta_lambda0_grid"):
            normalize_config(bad, tmp_path)

    def test_unknown_family_rejected(self, tmp_path):
        bad = quad_toy_config()
        bad["model"]["family"] = "perceptron"
        with pytest.raises(ConfigError, match="model.family"):
            normalize_config(bad, tmp_path)

    def test_missing_image_file_rejected_at_parse_time(self, tmp_path):
        bad = {
            "model": {"family": "deep_relu", "width": 8},
            "dataset": {
                "kind": "image_two_class",
                "format": "idx",
                "class_a": 0,
                "class_b": 1,
                "train_images": "missing.idx",
                "train_labels": "missing.idx",
                "test_images": "missing.idx",
                "test_labels": "missing.idx",
            },
            "training": {"eta": 0.1},
        }
        with pytest.raises(ConfigError, match="does not exist"):
            normalize_config(bad, tmp_path)

    def test_quadratic_on_images_rejected(self, tmp_path, synthetic_idx_paths):
        bad = {
            "model": {"family": "pure_quadratic", "n_psi": 8, "zeta_rule": "2_over_n"},
            "dataset": {
                "kind": "image_two_class",
                "format": "idx",
                "class_a": 0,
                "class_b": 1,
                **synthetic_idx_paths,
            },
            "training": {"eta": 0.1},
        }
        with pytest.raises(ConfigError, match="not supported on image datasets"):
            normalize_config(bad, tmp_path)

    def test_exit_code_one_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {}})
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err


def test_artifact_version_matches_pyproject():
    # every output embeds catapult.__version__; the package metadata must agree
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == catapult.__version__


class TestTrainCommand:
    def test_writes_csv_and_meta(self, tmp_path):
        path = write_config(tmp_path, quad_toy_config())
        out = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "step,loss,weight_norm,eta_lambda_max"
        meta = json.loads((out / "trajectory.meta.json").read_text())
        assert meta["termination"] == "converged"
        assert meta["eta_lambda0"] == pytest.approx(3.0, rel=1e-12)
        assert meta["version"]
        assert meta["config_digest"]
        # the catapult spike then decay is visible in the loss column
        losses = [
            float(line.split(",")[1])
            for line in (out / "trajectory.csv").read_text().splitlines()[1:]
        ]
        assert max(losses) > 10.0 * losses[0]
        assert losses[-1] < 1e-6

    def test_relu_on_several_points_writes_no_reduced_norm(self, tmp_path):
        cfg = {
            "model": {"family": "homogenous", "width": 64, "a_minus": 0.0,
                      "a_plus": 1.0, "init_seed": 0},
            "dataset": {"kind": "random", "d": 1, "size": 4, "seed": 2},
            "training": {"eta_lambda0_grid": [1.0], "max_steps": 20},
        }
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "step,loss,weight_norm,eta_lambda_max"

    @pytest.mark.parametrize(
        "model, kind",
        [
            ({"family": "homogenous", "width": 64, "a_minus": 0.0, "a_plus": 1.0}, "toy_relu"),
            ({"family": "linear_net_with_bias", "width": 24, "bias0": 0.0}, "toy"),
        ],
        ids=["relu", "linear_net_with_bias"],
    )
    def test_one_point_runs_write_the_certified_norm(self, tmp_path, model, kind):
        cfg = {
            "model": {**model, "init_seed": 3},
            "dataset": {"kind": kind},
            "training": {"eta_lambda0_grid": [1.0], "max_steps": 20},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,loss,weight_norm,certified_norm,eta_lambda_max"
        doc = json.loads((out / "bounds.json").read_text())
        digest = next(
            r["inputs_digest"] for r in doc["reports"] if r["method"] == "single_datapoint"
        )
        if kind == "toy_relu":
            certified = digest["reduced_theta0_sq"]
        else:
            certified = digest["theta0_sq"] + digest["feature_overlap_sq"] / digest["phi_sq"]
        assert float(lines[1].split(",")[3]) == certified

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, quad_toy_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", path, "--out", str(out1)]) == 0
        assert main(["train", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "trajectory.meta.json").read_bytes() == (
            out2 / "trajectory.meta.json"
        ).read_bytes()

    def test_zero_coupling_kernel_column_constant(self, tmp_path):
        # zeta = 0 reduces the with-bias family to a linear model: training
        # still moves the weights but the kernel column must stay frozen
        cfg = {
            "model": {
                "family": "quadratic_with_bias",
                "n_psi": 16,
                "n_phi": 8,
                "zeta": 0.0,
                "init_seed": 1,
            },
            "dataset": {"kind": "random", "d": 2, "size": 4, "seed": 2},
            "training": {"eta": 0.05, "ntk_eval_interval": 1, "max_steps": 40},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        lam_column = np.array(
            [float(r.split(",")[-1]) for r in rows if r.split(",")[-1]]
        )
        losses = np.array([float(r.split(",")[1]) for r in rows])
        assert len(lam_column) >= 10
        assert np.abs(lam_column - lam_column[0]).max() <= 1e-12 * lam_column[0]
        assert losses[-1] < losses[0]  # the linear model does train

    def test_requires_single_rate(self, tmp_path):
        path = write_config(tmp_path, quad_toy_config(eta_lambda0_grid=[2.5, 3.0]))
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1

    def test_seed_override_changes_digest_and_outputs(self, tmp_path):
        path = write_config(tmp_path, quad_toy_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", path, "--out", str(out1)]) == 0
        assert main(["train", "--config", path, "--out", str(out2), "--seed", "9"]) == 0
        meta1 = json.loads((out1 / "trajectory.meta.json").read_text())
        meta2 = json.loads((out2 / "trajectory.meta.json").read_text())
        assert meta1["config_digest"] != meta2["config_digest"]
        assert meta2["seed"] == 9


def test_diverged_train_writes_json_null(tmp_path):
    # the loss overflows to inf below a 1e300 divergence threshold
    cfg = {
        "model": {"family": "homogenous", "width": 16, "a_minus": 0.5, "a_plus": 1.0},
        "dataset": {"kind": "toy"},
        "training": {"eta_lambda0_grid": [40], "divergence_threshold": 1e300},
    }
    out = tmp_path / "train"
    assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "trajectory.meta.json").read_text())
    assert meta["termination"] == "diverged"
    assert meta["final_loss"] is None and meta["final_weight_norm"] is None
    last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
    assert math.isinf(float(last[1]))


class TestSweepCommand:
    def sweep_config(self):
        cfg = quad_toy_config()
        cfg["training"] = {
            "eta_lambda0_grid": [1.0, 2.5, 3.0, 8.0],
            "ntk_eval_interval": 10**6,
        }
        return cfg

    def test_rows_and_phases(self, tmp_path):
        path = write_config(tmp_path, self.sweep_config())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["eta", "eta_lambda0", "status", "phase"]
        phases = [line.split(",")[3] for line in lines[1:]]
        assert phases == ["lazy", "catapult", "catapult", "divergent"]
        divergent_row = lines[-1].split(",")
        # no final-state scalars on divergent rows
        assert divergent_row[5] == "" and divergent_row[6] == ""

    @staticmethod
    def homogenous_sweep_config():
        return {
            "model": {"family": "homogenous", "width": 64, "a_minus": 0.5,
                      "a_plus": 1.0, "init_seed": 3},
            "dataset": {"kind": "toy"},
            "training": {"eta_lambda0_grid": [1.0, 3.0, 5.0], "ntk_eval_interval": 10},
        }

    @staticmethod
    def assert_same_files(first: Path, other: Path):
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in other.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (other / name).read_bytes(), name

    def test_parallel_matches_serial(self, tmp_path):
        for family, cfg in (
            ("pure_quadratic", self.sweep_config()),
            ("homogenous", self.homogenous_sweep_config()),
        ):
            cfg["output"] = {"per_eta_trajectories": True}
            path = write_config(tmp_path, cfg, name=f"{family}.json")
            serial, parallel = tmp_path / f"{family}_s", tmp_path / f"{family}_p"
            assert main(["sweep", "--config", path, "--out", str(serial)]) == 0
            assert main(["sweep", "--config", path, "--out", str(parallel), "--jobs", "2"]) == 0
            assert (serial / "trajectory_000.csv").is_file()
            assert (serial / "sweep.meta.json").is_file()
            self.assert_same_files(serial, parallel)

    @staticmethod
    def teacher_student_sweep_config():
        return {
            "model": {"family": "pure_quadratic", "init_seed": 2},
            "dataset": {
                "kind": "teacher_student",
                "seed": 2,
                "n_psi_teacher": 40,
                "n_psi_student": 20,
                "train_size": 8,
                "test_size": 50,
            },
            "training": {"eta_lambda0_grid": [0.5, 1.5, 2.5], "ntk_eval_interval": 10},
        }

    def test_parallel_workers_do_not_rely_on_fork(self, tmp_path, monkeypatch):
        # spawned workers inherit no memory of the parent: each receives the
        # pickled experiment once, through the pool initializer, the
        # teacher-student ones with the quadratic evaluator that scores their
        # test split; the 3 rates must not pickle it 3 times over 2 workers
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import catapult.cli as cli

        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            cli,
            "ProcessPoolExecutor",
            lambda **kwargs: ProcessPoolExecutor(mp_context=spawn, **kwargs),
        )
        pickled = []
        monkeypatch.setattr(
            cli.Experiment,
            "__getstate__",
            lambda experiment: pickled.append(1) or dict(experiment.__dict__),
            raising=False,
        )
        with_bias = self.teacher_student_sweep_config()
        with_bias["model"]["family"] = "quadratic_with_bias"
        with_bias["dataset"].update({"n_phi_teacher": 6, "n_phi_student": 4})
        for family, cfg in (
            ("homogenous", self.homogenous_sweep_config()),
            ("teacher_student", self.teacher_student_sweep_config()),
            ("teacher_student_with_bias", with_bias),
        ):
            path = write_config(tmp_path, cfg, name=f"{family}.json")
            serial, parallel = tmp_path / f"{family}_s", tmp_path / f"{family}_p"
            assert main(["sweep", "--config", path, "--out", str(serial)]) == 0
            pickled.clear()
            assert main(["sweep", "--config", path, "--out", str(parallel), "--jobs", "2"]) == 0
            assert 1 <= len(pickled) <= 2, family
            self.assert_same_files(serial, parallel)
            if family.startswith("teacher_student"):
                rows = (parallel / "sweep.csv").read_text().splitlines()
                header = rows[0].split(",")
                column = header.index("test_loss_final")
                assert any(row.split(",")[column] != "" for row in rows[1:])

    @staticmethod
    def relu_sweep_config():
        return {
            "model": {"family": "homogenous", "width": 64, "a_minus": 0.0,
                      "a_plus": 1.0, "init_seed": 3},
            "dataset": {"kind": "toy_relu"},
            "training": {"eta_lambda0_grid": [1.0, 3.0, 5.0], "ntk_eval_interval": 10},
        }

    @pytest.mark.parametrize("kind", ["toy", "toy_relu"])
    def test_writers_on_one_experiment_match_the_commands(self, tmp_path, kind):
        # the scripts sweep and bound one experiment, so a sweep must leave
        # its model, and the ReLU net's frozen sign split, as it found them
        import catapult.cli as cli

        raw = self.sweep_config() if kind == "toy" else self.relu_sweep_config()
        raw["output"] = {"per_eta_trajectories": True}
        cfg = normalize_config(raw, tmp_path)
        for jobs in (1, 2):
            commands, writers = tmp_path / f"commands_{jobs}", tmp_path / f"writers_{jobs}"
            cli.cmd_sweep(cfg, commands, jobs=jobs)
            cli.cmd_bounds(cfg, commands)
            experiment = cli.resolve_experiment(cfg)
            cli.write_sweep(cfg, experiment, writers, jobs)
            cli.write_bounds(cfg, experiment, writers)
            assert (writers / "trajectory_000.csv").is_file()
            assert (writers / "bounds.json").is_file()
            self.assert_same_files(commands, writers)

    def test_sweep_assembles_the_quadratic_model_once(self, tmp_path, monkeypatch):
        # every rate trains a clone of one initialized model; a pool worker
        # (forked with the patch) that assembled its own would fail its rate
        import os

        import catapult.cli as cli

        parent = os.getpid()
        assemble = cli.assemble_quadratic
        calls = []

        def parent_only(*args):
            assert os.getpid() == parent, "a pool worker assembled the model"
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(cli, "assemble_quadratic", parent_only)
        cfg = normalize_config(self.sweep_config(), tmp_path)
        assert len(cfg["training"]["eta_lambda0_grid"]) == 4
        for jobs in (1, 2):
            calls.clear()
            cli.cmd_sweep(cfg, tmp_path / f"jobs_{jobs}", jobs=jobs)
            assert len(calls) == 1
            rows = (tmp_path / f"jobs_{jobs}" / "sweep.csv").read_text().splitlines()
            assert [row.split(",")[2] for row in rows[1:]] == ["ok"] * 4
        self.assert_same_files(tmp_path / "jobs_1", tmp_path / "jobs_2")

    def test_serial_sweep_resolves_the_experiment_once(self, tmp_path, monkeypatch):
        import catapult.cli as cli

        calls = []
        resolve = cli.resolve_experiment

        def counting(cfg):
            calls.append(cfg)
            return resolve(cfg)

        monkeypatch.setattr(cli, "resolve_experiment", counting)
        cfg = normalize_config(self.sweep_config(), tmp_path)
        cli.cmd_sweep(cfg, tmp_path / "sweep")
        assert len(calls) == 1
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + len(cfg["training"]["eta_lambda0_grid"])

    def test_per_eta_trajectories(self, tmp_path):
        cfg = self.sweep_config()
        cfg["output"] = {"per_eta_trajectories": True}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("trajectory_*.csv")) == [
            f"trajectory_{i:03d}.csv" for i in range(4)
        ]

    def test_a_raising_rate_gets_a_failed_row(self, tmp_path, monkeypatch):
        import csv

        import catapult.analysis as analysis

        cfg = self.sweep_config()
        cfg["training"]["eta_lambda0_grid"] = [1.0, 2.5, 3.0]
        cfg["output"] = {"per_eta_trajectories": True}
        path = write_config(tmp_path, cfg)
        clean = tmp_path / "clean"
        assert main(["sweep", "--config", path, "--out", str(clean)]) == 0
        failing_eta = json.loads((clean / "sweep.meta.json").read_text())["eta_grid"][1]
        train = analysis.train

        # keyed on the rate, not on a call count, so it fails the same rate
        # whichever pool worker (forked with the patch) trains it
        def flaky(model, dataset, config):
            if config.eta == failing_eta:
                raise RuntimeError("synthetic failure, mid-sweep")
            return train(model, dataset, config)

        monkeypatch.setattr(analysis, "train", flaky)
        clean_lines = (clean / "sweep.csv").read_text().splitlines()
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs_{jobs}"
            assert main(["sweep", "--config", path, "--out", str(out), "--jobs", jobs]) == 0
            lines = (out / "sweep.csv").read_text().splitlines()
            rows = list(csv.DictReader(lines))
            assert [row["status"] for row in rows] == ["ok", "failed", "ok"]
            assert rows[1]["message"] == "RuntimeError: synthetic failure, mid-sweep"
            assert rows[1]["phase"] == ""
            assert lines[2].split(",")[:2] == clean_lines[2].split(",")[:2]
            assert [lines[i] for i in (0, 1, 3)] == [clean_lines[i] for i in (0, 1, 3)]
            assert sorted(p.name for p in out.glob("trajectory_*.csv")) == [
                "trajectory_000.csv",
                "trajectory_002.csv",
            ]
            for name in ("trajectory_000.csv", "trajectory_002.csv", "sweep.meta.json"):
                assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_teacher_student_gap_is_test_minus_train(self, tmp_path):
        # the gap reuses the trajectory's final train loss; evaluating the
        # train split again through the feature map moved it by ~1e-20
        cfg = {
            "model": {"family": "quadratic_with_bias", "init_seed": 1},
            "dataset": {
                "kind": "teacher_student",
                "seed": 1,
                "n_psi_teacher": 200,
                "n_psi_student": 150,
                "n_phi_teacher": 20,
                "n_phi_student": 10,
                "test_size": 50,
                "eigen_scheme": {"kind": "pm_one"},
            },
            "training": {"eta_lambda0_grid": [0.5, 1.5, 2.5], "ntk_eval_interval": 10**6},
        }
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [row["phase"] for row in rows] != ["divergent"] * 3
        for row in rows:
            if row["phase"] != "divergent":
                train, test = float(row["train_loss_final"]), float(row["test_loss_final"])
                assert float(row["generalization_gap"]) == test - train


class TestBoundsCommand:
    def test_pure_toy_report_document(self, tmp_path):
        path = write_config(tmp_path, quad_toy_config())
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["lazy_threshold"] == pytest.approx(2.0 / doc["lambda_max_h0"])
        methods = {r["method"]: r for r in doc["reports"]}
        assert set(methods) == {"single_datapoint", "omega", "psi_eff"}
        assert methods["single_datapoint"]["proven"] is True
        assert methods["psi_eff"]["proven"] is False

    def test_zero_bias_linear_net_closed_form(self, tmp_path):
        cfg = {
            "model": {"family": "linear_net_with_bias", "width": 24, "bias0": 0.0,
                      "init_seed": 3},
            "dataset": {"kind": "toy"},
            "training": {"eta": 0.1},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        report = next(r for r in doc["reports"] if r["method"] == "single_datapoint")
        h0 = report["inputs_digest"]["h0"]
        expected = 4.0 / (h0 + 1.0)
        assert abs(report["sufficient_upper"] - expected) <= 1e-12 * expected

    def test_relu_window_edges(self, tmp_path):
        cfg = {
            "model": {"family": "homogenous", "width": 64, "a_minus": 0.0,
                      "a_plus": 1.0, "init_seed": 4},
            "dataset": {"kind": "toy"},
            "training": {"eta": 0.1},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        report = next(r for r in doc["reports"] if r["method"] == "single_datapoint")
        h0 = report["inputs_digest"]["h0"]
        assert report["catapult_lower"] == pytest.approx(2.0 / h0, rel=1e-12)
        assert report["sufficient_upper"] == pytest.approx(4.0 / h0, rel=1e-12)

    def test_relu_h0_is_the_kernel_at_the_datapoint(self, tmp_path):
        # toy_relu sits at x = 4, where the kernel is 16 times its unit value
        cfg = {
            "model": {"family": "homogenous", "width": 64, "a_minus": 0.0,
                      "a_plus": 1.0, "init_seed": 4},
            "dataset": {"kind": "toy_relu"},
            "training": {"eta": 0.1},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        report = next(r for r in doc["reports"] if r["method"] == "single_datapoint")
        assert report["inputs_digest"]["x"] == 4.0
        assert report["inputs_digest"]["h0"] == pytest.approx(doc["lambda_max_h0"], rel=1e-12)
        assert report["catapult_lower"] == pytest.approx(doc["lazy_threshold"], rel=1e-12)

    def test_vanishing_kernel_has_no_lazy_threshold(self, tmp_path):
        # width 1 at init_seed 0 draws u < 0: nothing is active on x = 4
        out = tmp_path / "bounds"
        path = write_config(tmp_path, VANISHING_KERNEL_CONFIG)
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["lambda_max_h0"] == 0.0
        assert doc["lazy_threshold"] is None
        assert doc["reports"] == []
        assert [s["method"] for s in doc["skipped"]] == ["single_datapoint", "mlp_multi"]

    def test_paired_unit_spectrum_collapses_uncertain_region(self, tmp_path):
        cfg = quad_toy_config()
        cfg["model"]["eigen_scheme"] = {"kind": "pm_one"}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        report = next(r for r in doc["reports"] if r["method"] == "single_datapoint")
        assert report["sufficient_upper"] == pytest.approx(
            report["divergence_lower"], rel=1e-12
        )


class TestCheckCommand:
    def test_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "check"
        assert main(["check", "--out", str(out), "--seed", "0"]) == 0
        doc = json.loads((out / "check.json").read_text())
        assert doc["all_passed"] is True
        names = {r["name"] for r in doc["results"]}
        assert "weight_norm_identity" in names
        assert len(names) == 9
        assert "negative_control_corrupted_zero_slope" in names
        assert "single_datapoint_window_at_datapoint" in names
        assert "omega_dual_matches_dense" in names
        assert all(r["passed"] for r in doc["results"])

    def test_negative_control_actually_detects_corruption(self):
        from catapult.selfcheck import check_negative_control_corrupted_slope

        result = check_negative_control_corrupted_slope(0)
        assert result.passed
        assert result.residual > result.threshold

    @pytest.mark.parametrize(
        "check, seed",
        [
            # on a diverging run the recursion's cubic terms overflow while
            # the recomputed values are still finite
            ("check_update_recursions_with_bias", 113),
            # a well-conditioned kernel drives the loss to 7e-16 in 20 steps
            ("check_linearized_exact_for_linear_model", 156),
            ("check_linearized_exact_for_linear_model", 192643646),
            # the draw's initial output was below 1e-2 and hid the corruption
            ("check_negative_control_corrupted_slope", 282266799),
        ],
    )
    def test_check_passes_at_seeds_where_the_check_was_flawed(self, check, seed):
        import catapult.selfcheck as selfcheck

        result = getattr(selfcheck, check)(seed)
        assert result.passed, (result.residual, result.detail)

    def test_default_suite_passes_at_many_seeds(self):
        # the benchmark runs `catapult check` at a random seed; the large
        # seeds are those where a check was once flawed (the linearized
        # predictor at 192643646, the negative control at the other four)
        from catapult.selfcheck import run_default_suite

        seeds = [*range(50), 192643646, 282266799, 525027446, 1186112100, 1966312124]
        failed = [
            (seed, result.name, result.residual)
            for seed in seeds
            for result in run_default_suite(seed)
            if not result.passed
        ]
        assert failed == []

    @pytest.mark.parametrize("name", ["bound_relu", "bound_homogenous_mlp"])
    def test_window_check_catches_unit_datapoint_formula(self, monkeypatch, name):
        # evaluating a net window at x = 1 whatever the datapoint puts the
        # lower edge off by x**2 = 16 on the toy_relu point
        import catapult.selfcheck as selfcheck
        from catapult.datasets import make_toy

        bound = getattr(selfcheck, name)
        monkeypatch.setattr(selfcheck, name, lambda net, dataset: bound(net, make_toy()))
        result = selfcheck.check_single_datapoint_windows(0)
        assert not result.passed
        assert result.residual == pytest.approx(15.0, rel=1e-12)
        assert "on toy_relu" in result.detail

    @pytest.mark.parametrize(
        "family, mutate",
        [
            # Euler's relation with degree 2 for the three-layer net
            ("deep_relu", lambda monkeypatch: monkeypatch.setattr(DeepReluNet, "degree", 2)),
            # theta.grad z without the feature term of a quadratic model
            (
                "quadratic_with_bias",
                lambda monkeypatch: monkeypatch.setattr(
                    training, "_euler_terms", lambda model, z: model.degree * z
                ),
            ),
        ],
    )
    def test_identity_check_catches_a_wrong_euler_term(self, monkeypatch, family, mutate):
        import catapult.selfcheck as selfcheck

        mutate(monkeypatch)
        result = selfcheck.check_weight_norm_identity(0)
        assert not result.passed
        assert result.residual > 1e-3
        assert f"worst: {family} at" in result.detail

    def test_omega_check_catches_a_dropped_datapoint_average(self, monkeypatch):
        # omitting the 1/D of the contraction scales lambda_max(Omega) by D;
        # invisible on one datapoint, a residual of 2 on three
        import catapult.selfcheck as selfcheck

        bound = selfcheck.bound_multi_omega

        def undivided(model):
            report = bound(model)
            report.inputs_digest["lambda_max_omega"] *= model.num_points
            return report

        monkeypatch.setattr(selfcheck, "bound_multi_omega", undivided)
        result = selfcheck.check_omega_dual(0)
        assert not result.passed
        assert result.residual == pytest.approx(2.0, rel=1e-12)
        assert "3 datapoints" in result.detail

    def test_exit_code_two_on_invariant_failure(self, monkeypatch, capsys):
        import catapult.cli as cli
        from catapult.selfcheck import CheckResult

        def broken_suite(seed):
            return [CheckResult(name="synthetic", passed=False, residual=1.0, threshold=0.0)]

        monkeypatch.setattr(cli, "run_default_suite", broken_suite)
        assert main(["check"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_reads_seed_from_config(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3}, name="check.json")
        out = tmp_path / "check"
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "check.json").read_text())
        assert doc["seed"] == 3


def small_teacher_student_config(**dataset):
    return {
        "model": {"family": "pure_quadratic"},
        "dataset": {
            "kind": "teacher_student",
            "n_psi_teacher": 8,
            "n_psi_student": 4,
            "train_size": 3,
            "test_size": 5,
            **dataset,
        },
        "training": {"eta": 0.1, "max_steps": 2},
    }


def with_model(config: dict, **model) -> dict:
    return {**config, "model": {**config["model"], **model}}


def image_config(class_a: int, class_b: int, **dataset) -> dict:
    # the class ids and the train size are checked before the (here missing) files
    paths = ("train_images", "train_labels", "test_images", "test_labels")
    return {
        "model": {"family": "deep_relu", "width": 8},
        "dataset": {
            "kind": "image_two_class",
            "format": "idx",
            "class_a": class_a,
            "class_b": class_b,
            **{key: f"missing-{key}.idx" for key in paths},
            **dataset,
        },
        "training": {"eta": 0.1},
    }


def assert_one_config_error(capsys, prefix: str):
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {prefix}"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["sweep"], "catapult sweep: the following arguments are required: --config"),
            (["sweep", "--config", "{config}", "--jobs", "abc"], "catapult sweep: argument --jobs"),
            (["sweep", "--config", "{config}", "--jobs", "0"], "--jobs: must be at least 1"),
            (["frobnicate"], "catapult: argument command: invalid choice"),
            ([], "catapult: the following arguments are required: command"),
        ],
    )
    def test_usage_error_is_config_exit(self, tmp_path, capsys, argv, prefix):
        # argparse would exit 2, the code of an invariant failure
        config = write_config(tmp_path, quad_toy_config())
        argv = [arg.format(config=config) for arg in argv]
        assert main(argv) == 1
        assert_one_config_error(capsys, prefix)

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: catapult" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "bounds", "check"])
    def test_jobs_is_a_sweep_option_only(self, tmp_path, capsys, command):
        argv = [command, "--seed", "0", "--jobs", "7"]
        if command != "check":
            argv += ["--config", write_config(tmp_path, quad_toy_config())]
        assert main(argv) == 1
        assert_one_config_error(capsys, "catapult: unrecognized arguments: --jobs 7")

    @pytest.mark.parametrize(
        "command, payload, flags, prefix",
        [
            ("check", {"seed": True}, [], "seed: expected an integer"),
            ("check", {"seed": -1}, [], "seed: must be non-negative"),
            ("check", None, ["--seed", "-1"], "--seed: must be non-negative"),
            ("sweep", quad_toy_config(), ["--seed", "-2"], "--seed: must be non-negative"),
            (
                "train",
                {**quad_toy_config(), "model": {**quad_toy_config()["model"], "init_seed": -1}},
                [],
                "model.init_seed: must be non-negative",
            ),
            ("train", small_teacher_student_config(seed=-3), [], "dataset.seed: must be non-negative"),
            ("train", small_teacher_student_config(n_psi_student=10), [], "dataset.n_psi_student:"),
            ("train", small_teacher_student_config(n_psi_teacher=9), [], "dataset.n_psi_teacher:"),
            ("train", small_teacher_student_config(n_phi_teacher=4), [], "dataset.n_phi_student:"),
            ("bounds", small_teacher_student_config(n_phi_teacher=4), [], "dataset.n_phi_student:"),
            ("train", small_teacher_student_config(d=0), [], "dataset.d: must be at least 1"),
            (
                "train",
                {
                    "model": {"family": "homogenous", "width": 0, "a_minus": 0.5, "a_plus": 1.0},
                    "dataset": {"kind": "toy"},
                    "training": {"eta": 0.1},
                },
                [],
                "model.width: must be at least 1",
            ),
            ("train", small_teacher_student_config(test_size=-1), [], "dataset.test_size:"),
            (
                "train",
                {**quad_toy_config(), "training": {"eta": math.nan}},
                [],
                "training.eta: must be a finite number",
            ),
            (
                "sweep",
                quad_toy_config(eta_lambda0_grid=[3.0, math.nan]),
                [],
                "training.eta_lambda0_grid: entries must be finite positive numbers",
            ),
            (
                "sweep",
                quad_toy_config(eta_grid=[math.inf], eta_lambda0_grid=None),
                [],
                "training.eta_grid: entries must be finite positive numbers",
            ),
            (
                "train",
                quad_toy_config(convergence_tol=math.nan),
                [],
                "training.convergence_tol: must be a finite number",
            ),
            (
                "sweep",
                {
                    "model": {"family": "homogenous", "width": 8, "a_minus": 0.5, "a_plus": math.inf},
                    "dataset": {"kind": "toy"},
                    "training": {"eta_lambda0_grid": [3.0]},
                },
                [],
                "model.a_plus: must be a finite number",
            ),
            (
                "train",
                with_model(quad_toy_config(), zeta_rule=None, zeta=-0.5),
                [],
                "model.zeta: must be non-negative",
            ),
            (
                "train",
                with_model(small_teacher_student_config(), zeta=-0.5),
                [],
                "model.zeta: must be non-negative",
            ),
            (
                "train",
                {**quad_toy_config(), "dataset": {"kind": "random", "size": 4, "half_width": 0.0}},
                [],
                "dataset.half_width: must be positive",
            ),
            (
                "train",
                small_teacher_student_config(input_half_width=-0.5),
                [],
                "dataset.input_half_width: must be positive",
            ),
            # rules that live in the records a section feeds
            ("train", with_model(quad_toy_config(), n_psi=7), [], "model.n_psi: must be a positive even number"),
            (
                "train",
                with_model(quad_toy_config(), family="quadratic_with_bias", n_phi=-1),
                [],
                "model.n_phi: must be non-negative",
            ),
            (
                "train",
                with_model(quad_toy_config(), activation="relu"),
                [],
                "model.activation: must be one of ['identity', 'tanh']",
            ),
            (
                "train",
                {**quad_toy_config(), "dataset": {"kind": "random", "size": 0}},
                [],
                "dataset.size: must be at least 1",
            ),
            (
                "train",
                small_teacher_student_config(n_psi_student=0),
                [],
                "dataset.n_psi_student: must be between 1 and n_psi_teacher",
            ),
            ("train", small_teacher_student_config(train_size=0), [], "dataset.train_size: must be at least 1"),
            (
                "train",
                small_teacher_student_config(activation="relu"),
                [],
                "dataset.activation: must be one of ['identity', 'tanh']",
            ),
            ("train", quad_toy_config(eta=0, eta_lambda0_grid=None), [], "training.eta: must be positive"),
            ("train", quad_toy_config(max_steps=0), [], "training.max_steps: must be at least 1"),
            ("train", quad_toy_config(convergence_tol=0), [], "training.convergence_tol: must be positive"),
            (
                "train",
                quad_toy_config(convergence_tol=1e-3, divergence_threshold=1e-4),
                [],
                "training.divergence_threshold: must exceed convergence_tol",
            ),
            ("train", quad_toy_config(ntk_eval_interval=0), [], "training.ntk_eval_interval: must be at least 1"),
            (
                "train",
                with_model(quad_toy_config(), eigen_scheme={"kind": "uniform", "low": 2, "high": 1}),
                [],
                "model.eigen_scheme.low: must be below high",
            ),
            (
                "train",
                small_teacher_student_config(eigen_scheme={"kind": "pm_one", "high": 2}),
                [],
                "dataset.eigen_scheme.high: must be 1 for pm_one",
            ),
            (
                "train",
                with_model(quad_toy_config(), eigen_scheme={"kind": "bogus"}),
                [],
                "model.eigen_scheme.kind: must be one of ['pm_one', 'uniform']",
            ),
            ("train", image_config(3, 3), [], "dataset.class_b: must differ from class_a"),
            ("train", image_config(12, 3), [], "dataset.class_a: must be a class id from 0 to 9"),
            ("train", image_config(3, -1), [], "dataset.class_b: must be a class id from 0 to 9"),
            # a negative size sliced off the last images; 0 ended in a traceback
            ("train", image_config(0, 1, train_size=-5), [], "dataset.train_size: must be at least 1"),
            ("train", image_config(0, 1, train_size=0), [], "dataset.train_size: must be at least 1"),
            # a number among the paths once ended in a TypeError traceback
            (
                "train",
                {
                    **image_config(0, 1),
                    "dataset": {
                        "kind": "image_two_class",
                        "format": "cifar_binary",
                        "class_a": 0,
                        "class_b": 1,
                        "train_files": [3],
                        "test_files": ["test.bin"],
                    },
                },
                [],
                "dataset.train_files: expected a non-empty list of paths",
            ),
            # fields that no family or kind reads were once dropped silently
            ("train", quad_toy_config(max_step=10), [], "training.max_step: unknown field"),
            (
                "train",
                {
                    "model": {
                        "family": "homogenous",
                        "width": 8,
                        "widht": 16,
                        "a_minus": 0.5,
                        "a_plus": 1.0,
                    },
                    "dataset": {"kind": "toy"},
                    "training": {"eta": 0.1},
                },
                [],
                "model.widht: unknown field",
            ),
            (
                "train",
                {**quad_toy_config(), "dataset": {"kind": "toy", "sede": 3}},
                [],
                "dataset.sede: unknown field",
            ),
            (
                "sweep",
                {**quad_toy_config(), "output": {"per_eta_trajectory": True}},
                [],
                "output.per_eta_trajectory: unknown field",
            ),
            (
                "train",
                with_model(quad_toy_config(), eigen_scheme={"kind": "uniform", "hihg": 3.0}),
                [],
                "model.eigen_scheme.hihg: unknown field",
            ),
            (
                "train",
                with_model(quad_toy_config(), eigen_scheme={"kind": "pm_one", "low": 0.5}),
                [],
                "model.eigen_scheme.low: must be 1 for pm_one",
            ),
            ("train", with_model(quad_toy_config(), n_phi=4), [], "model.n_phi: must be 0 for pure_quadratic"),
            # teacher-student models take their dimensions from the dataset
            (
                "bounds",
                with_model(small_teacher_student_config(), n_psi=8),
                [],
                "model.n_psi: unknown field",
            ),
            ("train", small_teacher_student_config(size=10), [], "dataset.size: unknown field"),
            ("train", {**quad_toy_config(), "output": 5}, [], "output: must be an object"),
            # a training field no record has, and a check config key other than seed
            ("train", quad_toy_config(momentum=0.9), [], "training.momentum: unknown field"),
            ("check", {"sed": 3}, [], "sed: unknown field"),
            (
                "sweep",
                quad_toy_config(eta_grid=[], eta_lambda0_grid=None),
                [],
                "training.eta_grid: expected a non-empty list",
            ),
            # rates in units of a vanishing initial kernel
            (
                "sweep",
                VANISHING_KERNEL_CONFIG,
                [],
                "training.eta_lambda0_grid: the initial kernel vanishes",
            ),
        ],
    )
    def test_config_error_names_its_field(self, tmp_path, capsys, command, payload, flags, prefix):
        # each of these once ran on, or ended in a traceback
        argv = [command, "--out", str(tmp_path / "out"), *flags]
        if payload is not None:
            argv += ["--config", write_config(tmp_path, payload)]
        assert main(argv) == 1
        assert_one_config_error(capsys, prefix)
        assert not (tmp_path / "out").exists()

    def test_data_format_error_is_io_exit(self, tmp_path):
        # files exist (so parsing succeeds) but the payload is corrupt
        bogus = tmp_path / "broken.idx"
        bogus.write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 16)
        cfg = {
            "model": {"family": "deep_relu", "width": 8},
            "dataset": {
                "kind": "image_two_class",
                "format": "idx",
                "class_a": 0,
                "class_b": 1,
                "train_images": str(bogus),
                "train_labels": str(bogus),
                "test_images": str(bogus),
                "test_labels": str(bogus),
            },
            "training": {"eta": 0.1},
        }
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 3


class TestImagePipeline:
    @pytest.mark.parametrize("depth", [0, 1])
    def test_deep_relu_sweep_on_synthetic_images(self, tmp_path, synthetic_idx_paths, depth):
        cfg = {
            "model": {"family": "deep_relu", "width": 64, "depth": depth, "init_seed": 0},
            "dataset": {
                "kind": "image_two_class",
                "format": "idx",
                "class_a": 0,
                "class_b": 1,
                "train_size": 64,
                **synthetic_idx_paths,
            },
            "training": {
                "eta_lambda0_grid": [2.5, 4.0],
                "max_steps": 4000,
                "ntk_eval_interval": 200,
            },
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "sparsity_0" in header and "accuracy" in header
        assert ("sparsity_1" in header) == (depth == 1)
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["status"] == "ok"
            if row["phase"] in ("lazy", "catapult"):
                assert float(row["accuracy"]) >= 0.9
                assert 0.0 <= float(row["sparsity_0"]) <= 1.0


class TestDepthZeroDeepRelu:
    """A depth-0 deep_relu config builds the two-layer ReLU net: the
    homogenous family with slopes (0, 1), windows included."""

    @staticmethod
    def configs(dataset: dict) -> list[dict]:
        training = {"eta_lambda0_grid": [1.0, 3.0], "max_steps": 100}
        models = (
            {"family": "deep_relu", "width": 64, "depth": 0, "init_seed": 5},
            {"family": "homogenous", "width": 64, "a_minus": 0.0, "a_plus": 1.0, "init_seed": 5},
        )
        return [{"model": model, "dataset": dataset, "training": training} for model in models]

    @staticmethod
    def image_dataset(paths: dict) -> dict:
        return {"kind": "image_two_class", "format": "idx", "class_a": 0, "class_b": 1, **paths}

    def test_resolves_to_the_same_net(self, tmp_path, synthetic_idx_paths):
        from catapult.cli import resolve_experiment
        from catapult.models import HomogenousNet

        deep, relu = (
            resolve_experiment(normalize_config(cfg, tmp_path)).model
            for cfg in self.configs(self.image_dataset(synthetic_idx_paths))
        )
        assert type(deep) is HomogenousNet and (deep.a_minus, deep.a_plus) == (0.0, 1.0)
        assert np.array_equal(deep.u, relu.u) and np.array_equal(deep.v, relu.v)

    @pytest.mark.parametrize("kind", ["image_two_class", "toy_relu"])
    def test_writes_the_same_sweep_and_windows(self, tmp_path, synthetic_idx_paths, kind):
        if kind == "toy_relu":
            dataset = {"kind": "toy_relu"}
        else:
            dataset = self.image_dataset(synthetic_idx_paths)
        outs = []
        for name, cfg in zip(("deep", "relu"), self.configs(dataset)):
            path = write_config(tmp_path, cfg, f"{name}.json")
            out = tmp_path / name
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
            assert main(["bounds", "--config", path, "--out", str(out)]) == 0
            outs.append(out)
        deep, relu = outs
        assert (deep / "sweep.csv").read_bytes() == (relu / "sweep.csv").read_bytes()
        deep_doc, relu_doc = (json.loads((out / "bounds.json").read_text()) for out in outs)
        assert deep_doc["skipped"] == relu_doc["skipped"]
        assert deep_doc["reports"] == relu_doc["reports"]
        if kind == "toy_relu":
            assert [r["method"] for r in deep_doc["reports"]] == ["single_datapoint"]
