"""Command-line reproduction harness: train, sweep, bounds, check.

One JSON configuration document describes the model family, the data source
and the training schedule; the subcommands turn it into trajectory CSVs,
per-learning-rate sweep tables, bound reports, or an invariant check run.
Every output embeds the seed, a digest of the fully normalized
configuration, and the artifact version; runs with equal digests produce
byte-identical files (no timestamps are ever written) at a fixed BLAS
thread count, which sets the floating-point summation order and is recorded
nowhere.  Floats are serialized with 17 significant digits so values
round-trip exactly; JSON writes a non-finite float as null.

Exit codes: 0 success, 1 configuration error, 2 invariant failure,
3 I/O or data-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import catapult
from catapult.analysis import SweepRecord, run_sweep_point, split_scorer
from catapult.bounds import collect_bound_reports
from catapult.datasets import (
    IMAGE_CLASSES,
    DataFormatError,
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    TeacherStudentSpec,
    assemble_quadratic,
    build_meta_features,
    load_two_class_images,
    make_random,
    make_teacher_student,
    make_toy,
    make_toy_relu,
    zeta_for,
)
from catapult.models import DeepReluNet, HomogenousNet, linear_net_with_bias_embedding
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.training import TrainConfig, Trajectory, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

# The dataset kinds each model family trains on.  Teacher-student labels come
# from a quadratic teacher, so only the quadratic families learn them; images
# feed only the nets; the linear net with bias is input-independent, so it
# trains on the single toy datapoint alone.
FAMILY_KINDS = {
    "pure_quadratic": ("toy", "toy_relu", "random", "teacher_student"),
    "quadratic_with_bias": ("toy", "toy_relu", "random", "teacher_student"),
    "linear_net_with_bias": ("toy",),
    "homogenous": ("toy", "toy_relu", "random", "image_two_class"),
    "deep_relu": ("toy", "toy_relu", "random", "image_two_class"),
}


class ConfigError(ValueError):
    """Configuration problem; the message starts with the offending field path."""


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return f"{float(value):.17g}"


def _json_fragment(value, pieces: list[str]) -> None:
    if value is None:
        pieces.append("null")
    elif isinstance(value, (bool, np.bool_)):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        # JSON has no inf or nan; CSV cells keep them, which float() reads
        pieces.append(format_float(value) if math.isfinite(value) else "null")
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)))
            pieces.append(":")
            _json_fragment(value[key], pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _json_fragment(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_json(value) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats, non-finite
    floats as null, no spaces."""
    pieces: list[str] = []
    _json_fragment(value, pieces)
    return "".join(pieces)


def config_digest(normalized: dict) -> str:
    return hashlib.sha256(dumps_json(normalized).encode()).hexdigest()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str) and any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'  # a failed rate's message
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Configuration parsing and normalization
# ---------------------------------------------------------------------------


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name)
    if value is None:
        raise ConfigError(f"{name}: section is required")
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be an object")
    return value


_REQUIRED = "__required__"
# Lower bounds a numeric field declares where it is read: (test, message)
NON_NEGATIVE = (lambda value: value >= 0, "must be non-negative")
POSITIVE = (lambda value: value > 0, "must be positive")
AT_LEAST_ONE = (lambda value: value >= 1, "must be at least 1")
# A record field's annotation, as the type its config field must have
_FIELD_KINDS = {"int": int, "float": float, "Optional[float]": float, "str": str}


def _field(section: dict, path: str, key: str, kind, default=_REQUIRED, allowed=None, bound=None):
    if key not in section or section[key] is None:
        if default == _REQUIRED:
            raise ConfigError(f"{path}.{key}: field is required")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}")
    # Python's json reads NaN and Infinity, which no numeric field accepts
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be a finite number")
    if allowed is not None and value not in allowed:
        raise ConfigError(f"{path}.{key}: must be one of {sorted(allowed)}")
    if bound is not None and not bound[0](value):
        raise ConfigError(f"{path}.{key}: {bound[1]}")
    return value


def _record(cls, section: dict, path: str, defaults: Optional[dict] = None, **given):
    """The record a config section feeds.  Every field not ``given`` is read
    from the section, in the record's order, with the record's default or
    one from ``defaults``; an eigenvalue scheme is read as its own section.
    The record's ValueError, which starts with the field's name, comes back
    as a ConfigError under the section's path."""
    values = dict(given)
    for item in dataclasses.fields(cls):
        if item.name in given:
            continue
        if item.type == "EigenScheme":
            values[item.name] = _eigen_scheme(section, path)
            continue
        default = (defaults or {}).get(item.name, item.default)
        if default is dataclasses.MISSING:
            default = _REQUIRED
        values[item.name] = _field(section, path, item.name, _FIELD_KINDS[item.type], default)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _valid_seed(value, path: str) -> int:
    # bool is an int subclass, and a negative seed cannot seed a stream; a
    # seed of 2**32 or more spans two SeedSequence words, so it would draw
    # another seed's streams (numerics.Rng)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if value < 0:
        raise ConfigError(f"{path}: must be non-negative")
    if value >= 2**32:
        raise ConfigError(f"{path}: must be below 2**32")
    return value


def _reject_unknown(section: dict, path: str, normalized: dict) -> None:
    """A raw section may carry only the fields its normalized form keeps."""
    for key in section:
        if key not in normalized:
            raise ConfigError(f"{path}.{key}: unknown field")


def _eigen_scheme(section: dict, path: str) -> EigenScheme:
    raw = section.get("eigen_scheme")
    if raw is None:
        return EigenScheme()
    path = f"{path}.eigen_scheme"
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must be an object")
    # a scheme that is given names its kind
    scheme = _record(EigenScheme, raw, path, defaults={"kind": _REQUIRED})
    _reject_unknown(raw, path, dataclasses.asdict(scheme))
    return scheme


def _normalize_model(raw: dict, dataset_cfg: dict) -> dict:
    section = _section(raw, "model")
    family = _field(section, "model", "family", str, allowed=set(FAMILY_KINDS))
    kind = dataset_cfg["kind"]
    if kind not in FAMILY_KINDS[family]:
        raise ConfigError(f"model.family: {family} does not train on {kind} datasets")
    out = {
        "family": family,
        "init_seed": _valid_seed(_field(section, "model", "init_seed", int, 0), "model.init_seed"),
    }
    with_bias = family == "quadratic_with_bias"
    if kind == "teacher_student":
        # Dimensions, eigenvalue scheme and activation come from the
        # teacher-student dataset section; the model keeps only an optional
        # coupling override.
        if with_bias != (dataset_cfg["n_phi_student"] > 0):
            raise ConfigError(
                "model.family: must match the teacher_student feature block "
                "(with_bias exactly when n_phi_student > 0)"
            )
        out["zeta"] = _field(section, "model", "zeta", float, None, bound=NON_NEGATIVE)
    elif family in ("pure_quadratic", "quadratic_with_bias"):
        spec = _record(
            MetaFeatureSpec,
            section,
            "model",
            defaults=None if with_bias else {"n_phi": 0},
            # toy inputs are one-dimensional
            d=dataset_cfg.get("d", 1),
        )
        if spec.n_phi and not with_bias:
            raise ConfigError("model.n_phi: must be 0 for pure_quadratic")
        zeta = _field(section, "model", "zeta", float, None, bound=NON_NEGATIVE)
        zeta_rule = _field(
            section, "model", "zeta_rule", str, None, allowed={"2_over_n", "1_over_n_psi"}
        )
        if (zeta is None) == (zeta_rule is None):
            raise ConfigError("model.zeta: give exactly one of zeta or zeta_rule")
        out.update(dataclasses.asdict(spec), zeta=zeta, zeta_rule=zeta_rule)
        del out["d"]  # the dataset's, not a model field
    else:
        out["width"] = _field(section, "model", "width", int, bound=AT_LEAST_ONE)
        if family == "linear_net_with_bias":
            out["bias0"] = _field(section, "model", "bias0", float, 0.0)
        elif family == "homogenous":
            out["a_minus"] = _field(section, "model", "a_minus", float)
            out["a_plus"] = _field(section, "model", "a_plus", float)
            if not 0.0 <= out["a_minus"] <= out["a_plus"]:
                raise ConfigError("model.a_minus: slopes must satisfy 0 <= a_minus <= a_plus")
        else:  # deep_relu
            out["depth"] = _field(section, "model", "depth", int, 0, {0, 1})
    _reject_unknown(section, "model", out)
    return out


def _existing_file(base_dir: Path, key: str, value: str) -> str:
    """A dataset file's path: absolute as given, relative against the
    config's directory; the file must exist."""
    path = Path(value)
    resolved = path if path.is_absolute() else (base_dir / path).resolve()
    if not resolved.exists():
        raise ConfigError(f"dataset.{key}: file does not exist: {resolved}")
    return str(resolved)


def _normalize_dataset(raw: dict, base_dir: Path) -> dict:
    section = _section(raw, "dataset")
    kind = _field(section, "dataset", "kind", str, allowed=set().union(*FAMILY_KINDS.values()))
    out = {
        "kind": kind,
        "seed": _valid_seed(_field(section, "dataset", "seed", int, 0), "dataset.seed"),
    }
    if kind == "random":
        out["d"] = _field(section, "dataset", "d", int, 1, bound=AT_LEAST_ONE)
        out["size"] = _field(section, "dataset", "size", int, bound=AT_LEAST_ONE)
        out["half_width"] = _field(section, "dataset", "half_width", float, 0.5, bound=POSITIVE)
    elif kind == "teacher_student":
        out.update(dataclasses.asdict(_record(TeacherStudentSpec, section, "dataset")))
    elif kind == "image_two_class":
        fmt = _field(section, "dataset", "format", str, allowed={"idx", "cifar_binary"})
        out["format"] = fmt
        out["class_a"] = _field(section, "dataset", "class_a", int)
        out["class_b"] = _field(section, "dataset", "class_b", int)
        for key in ("class_a", "class_b"):
            if not 0 <= out[key] < IMAGE_CLASSES:
                raise ConfigError(
                    f"dataset.{key}: must be a class id from 0 to {IMAGE_CLASSES - 1}"
                )
        if out["class_a"] == out["class_b"]:
            raise ConfigError("dataset.class_b: must differ from class_a")
        out["train_size"] = _field(section, "dataset", "train_size", int, 128, bound=AT_LEAST_ONE)
        if fmt == "idx":
            keys = ("train_images", "train_labels", "test_images", "test_labels")
            for key in keys:
                out[key] = _existing_file(base_dir, key, _field(section, "dataset", key, str))
        else:
            for key in ("train_files", "test_files"):
                value = section.get(key)
                paths = isinstance(value, list) and all(isinstance(item, str) for item in value)
                if not paths or not value:
                    raise ConfigError(f"dataset.{key}: expected a non-empty list of paths")
                out[key] = [_existing_file(base_dir, key, item) for item in value]
    _reject_unknown(section, "dataset", out)
    return out


def _normalize_training(raw: dict) -> dict:
    section = _section(raw, "training")
    grids = [
        key
        for key in ("eta", "eta_grid", "eta_lambda0_grid")
        if section.get(key) is not None
    ]
    if len(grids) != 1:
        raise ConfigError(
            "training.eta: give exactly one of eta, eta_grid, eta_lambda0_grid"
        )
    key = grids[0]
    given = {}
    if key != "eta":
        value = section[key]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"training.{key}: expected a non-empty list")
        numbers = []
        for item in value:
            numeric = isinstance(item, (int, float)) and not isinstance(item, bool)
            if not (numeric and math.isfinite(item) and item > 0):
                raise ConfigError(f"training.{key}: entries must be finite positive numbers")
            numbers.append(float(item))
        # every rate of the grid is valid, so any one checks the schedule
        given["eta"] = numbers[0]
    out = dataclasses.asdict(_record(TrainConfig, section, "training", **given))
    out.update(eta_grid=None, eta_lambda0_grid=None)
    if key != "eta":
        out.update({"eta": None, key: numbers})
    _reject_unknown(section, "training", out)
    return out


def normalize_config(
    raw: dict, base_dir: Path, seed_override: Optional[int] = None
) -> dict:
    """Validate a raw configuration document and fill in every default.

    The normalized form is what gets digested and embedded in outputs, so
    parsing it again yields an identical resolved configuration.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    known = {"model", "dataset", "training", "output"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown section")
    dataset_cfg = _normalize_dataset(raw, base_dir)
    output = raw.get("output") or {}
    if not isinstance(output, dict):
        raise ConfigError("output: must be an object")
    normalized = {
        "model": _normalize_model(raw, dataset_cfg),
        "dataset": dataset_cfg,
        "training": _normalize_training(raw),
        "output": {
            "per_eta_trajectories": _field(output, "output", "per_eta_trajectories", bool, False)
        },
    }
    _reject_unknown(output, "output", normalized["output"])
    if seed_override is not None:
        normalized["model"]["init_seed"] = int(seed_override)
        normalized["dataset"]["seed"] = int(seed_override)
    return normalized


# ---------------------------------------------------------------------------
# Experiment resolution
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Experiment:
    """Materialized dataset plus the initialized model every command starts
    from, with ``lambda0``, the top eigenvalue of the model's initial
    kernel, measured once here: sweep rates and certified windows are both
    in its units.  ``score_test(model)`` returns a model's outputs on the
    test split and the split's labels (None without a test split): the
    loaded labels for a net on images, and for a teacher-student student
    the teacher's, labelled in the pass that scores the student, so the
    split is never labelled before a sweep scores it.  It holds plain
    values only, so a pool worker receives it pickled instead of resolving
    the configuration again."""

    dataset: Dataset
    model: object
    score_test: Optional[Callable] = None
    lambda0: float = dataclasses.field(init=False)

    def __post_init__(self):
        self.lambda0 = lambda_max_symmetric(self.model.ntk(self.dataset.inputs))


def _build_dataset(section: dict) -> Dataset:
    """The dataset of a normalized dataset section of any kind but
    teacher_student, whose labels come with the teacher."""
    kind = section["kind"]
    if kind == "toy":
        return make_toy()
    if kind == "toy_relu":
        return make_toy_relu()
    if kind == "random":
        return make_random(
            section["d"], section["size"], section["half_width"], Rng(section["seed"])
        )
    # an image section holds exactly its format's path keys beside the rest
    return load_two_class_images(
        section["format"],
        section,
        section["class_a"],
        section["class_b"],
        section["train_size"],
    )


def resolve_experiment(cfg: dict) -> Experiment:
    model_cfg, ds_cfg = cfg["model"], cfg["dataset"]
    family = model_cfg["family"]
    seed = model_cfg["init_seed"]
    theta_rng = Rng(seed).child(2, 0)
    setup = None
    if ds_cfg["kind"] == "teacher_student":
        setup = make_teacher_student(
            _record(TeacherStudentSpec, ds_cfg, "dataset"), Rng(ds_cfg["seed"]).child(3)
        )
        dataset = setup.dataset
    else:
        dataset = _build_dataset(ds_cfg)

    score_test = split_scorer(dataset)  # a loaded image split, for the nets
    if family == "linear_net_with_bias":
        model = linear_net_with_bias_embedding(model_cfg["width"], theta_rng, model_cfg["bias0"])
    elif family == "deep_relu" and model_cfg["depth"] == 1:
        model = DeepReluNet.init_random(model_cfg["width"], dataset.dim, theta_rng)
    elif family in ("homogenous", "deep_relu"):
        # a depth-0 deep_relu net is the two-layer ReLU net: slopes (0, 1)
        a_minus, a_plus = model_cfg.get("a_minus", 0.0), model_cfg.get("a_plus", 1.0)
        model = HomogenousNet.init_random(
            model_cfg["width"], theta_rng, a_minus, a_plus, input_dim=dataset.dim
        )
    else:
        # The quadratic families: the student feature map of a teacher-student
        # setup, or meta-features drawn for the dataset.
        zeta = model_cfg["zeta"]
        if setup is not None:
            feature_map = setup.student_map
            if zeta is None:
                zeta = setup.zeta_student
            if setup.test_inputs is not None:
                score_test = setup.score_student
        else:
            spec = _record(MetaFeatureSpec, model_cfg, "model", d=dataset.dim)
            feature_map = build_meta_features(spec, Rng(seed).child(1))
            if zeta is None:
                zeta = zeta_for(model_cfg["zeta_rule"], spec.n_psi)
        model = assemble_quadratic(feature_map, dataset, zeta, theta_rng)
    return Experiment(dataset, model, score_test)


def resolve_eta_grid(cfg: dict, experiment: Experiment) -> list[float]:
    """Raw learning rates; rates given as eta * lambda0 divide out the
    experiment's lambda0."""
    lambda0 = experiment.lambda0
    training = cfg["training"]
    if training["eta"] is not None:
        return [training["eta"]]
    if training["eta_grid"] is not None:
        return list(training["eta_grid"])
    if not lambda0 > 0.0:
        raise ConfigError(
            "training.eta_lambda0_grid: the initial kernel vanishes (lambda0 = 0), "
            "so rates cannot be given in units of it; use eta or eta_grid"
        )
    return [value / lambda0 for value in training["eta_lambda0_grid"]]


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _trajectory_rows(trajectory: Trajectory) -> tuple[list[str], list[list]]:
    header = ["step", "loss", "weight_norm"]
    certified = trajectory.certified_norms
    if certified is not None:
        header.append("certified_norm")
    header.append("eta_lambda_max")
    lam_by_step = dict(zip(trajectory.ntk_steps.tolist(), trajectory.eta_lambda_max))
    rows = []
    for step in range(trajectory.steps_taken + 1):
        row: list = [step, trajectory.losses[step], trajectory.weight_norms[step]]
        if certified is not None:
            row.append(certified[step])
        row.append(lam_by_step.get(step))
        rows.append(row)
    return header, rows


def write_trajectory_csv(path: Path, trajectory: Trajectory) -> None:
    header, rows = _trajectory_rows(trajectory)
    write_csv(path, header, rows)


def _sweep_columns(record: SweepRecord, activation_layers: int) -> dict:
    """One sweep.csv row keyed by column: the record's fields in order, with
    its sparsity tuple spread over sparsity_0.., one per activation layer of
    the model (blank where it has none)."""
    columns = {}
    for item in dataclasses.fields(record):
        value = getattr(record, item.name)
        if item.name == "sparsity":
            layers = value or ()
            for i in range(activation_layers):
                columns[f"sparsity_{i}"] = layers[i] if i < len(layers) else None
        else:
            columns[item.name] = value
    return columns


def _base_metadata(cfg: dict, command: str) -> dict:
    return {
        "command": command,
        "version": catapult.__version__,
        "seed": cfg["model"]["init_seed"],
        "dataset_seed": cfg["dataset"]["seed"],
        "config_digest": config_digest(cfg),
        "config": cfg,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(dumps_json(payload) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(cfg: dict, out_dir: Path) -> None:
    experiment = resolve_experiment(cfg)
    etas = resolve_eta_grid(cfg, experiment)
    if len(etas) != 1:
        raise ConfigError("training.eta: the train command requires a single rate")
    eta = etas[0]
    config = _record(TrainConfig, cfg["training"], "training", eta=eta)
    trajectory = train(experiment.model, experiment.dataset, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out_dir / "trajectory.csv", trajectory)
    meta = _base_metadata(cfg, "train")
    meta.update(
        {
            "eta": eta,
            "lambda0": experiment.lambda0,
            "eta_lambda0": eta * experiment.lambda0,
            "termination": trajectory.termination,
            "steps_taken": trajectory.steps_taken,
            "final_loss": float(trajectory.losses[-1]),
            "final_weight_norm": float(trajectory.weight_norms[-1]),
        }
    )
    _write_json(out_dir / "trajectory.meta.json", meta)


def _sweep_rate(experiment: Experiment, cfg: dict, eta: float) -> tuple:
    """One rate of a sweep: train a clone of the experiment's initialized
    model, so every rate starts from the same parameters."""
    return run_sweep_point(
        experiment.model.clone,
        experiment.dataset,
        eta,
        _record(TrainConfig, cfg["training"], "training", eta=eta),
        experiment.lambda0,
        experiment.score_test,
    )


# A ``--jobs`` worker's bound rate function, set once by its initializer.
_worker_run_rate: Optional[Callable] = None


def _start_worker(run_rate: Callable) -> None:
    global _worker_run_rate
    _worker_run_rate = run_rate


def _run_worker_rate(eta: float) -> tuple:
    return _worker_run_rate(eta)


def write_sweep(cfg: dict, experiment: Experiment, out_dir: Path, jobs: int) -> None:
    """Train a clone of the experiment's model at every rate of the grid and
    write sweep.csv, sweep.meta.json and, if asked, per-rate trajectories."""
    etas = resolve_eta_grid(cfg, experiment)
    run_rate = partial(_sweep_rate, experiment, cfg)
    workers = min(jobs, len(etas))
    if workers > 1:
        # imported here: a serial sweep never loads the process pool
        from concurrent.futures import ProcessPoolExecutor

        # each worker receives the experiment once, as its initializer's
        # argument, and each task only its rate; any start method works
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(run_rate,)
        ) as pool:
            results = list(pool.map(_run_worker_rate, etas))
    else:
        results = list(map(run_rate, etas))

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [_sweep_columns(record, experiment.model.activation_layers) for record, _ in results]
    write_csv(out_dir / "sweep.csv", list(rows[0]), [list(row.values()) for row in rows])
    if cfg["output"]["per_eta_trajectories"]:
        for index, (_, trajectory) in enumerate(results):
            if trajectory is not None:
                write_trajectory_csv(out_dir / f"trajectory_{index:03d}.csv", trajectory)
    meta = _base_metadata(cfg, "sweep")
    meta.update({"lambda0": experiment.lambda0, "eta_grid": [float(e) for e in etas]})
    _write_json(out_dir / "sweep.meta.json", meta)


def write_bounds(cfg: dict, experiment: Experiment, out_dir: Path) -> None:
    """Certify the learning-rate windows of the experiment's initialized
    model and write bounds.json.  A vanishing initial kernel has no lazy
    threshold; it is written as null."""
    reports, skipped = collect_bound_reports(experiment.model, experiment.dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _base_metadata(cfg, "bounds")
    meta.update(
        {
            "lambda_max_h0": experiment.lambda0,
            "lazy_threshold": 2.0 / experiment.lambda0 if experiment.lambda0 > 0.0 else None,
            "reports": [report.to_dict() for report in reports],
            "skipped": skipped,
        }
    )
    _write_json(out_dir / "bounds.json", meta)


def cmd_sweep(cfg: dict, out_dir: Path, jobs: int = 1) -> None:
    write_sweep(cfg, resolve_experiment(cfg), out_dir, jobs)


def cmd_bounds(cfg: dict, out_dir: Path) -> None:
    write_bounds(cfg, resolve_experiment(cfg), out_dir)


def cmd_check(seed: int, out_dir: Optional[Path]) -> bool:
    # imported here: only the check command loads the check suite
    from catapult.selfcheck import run_default_suite

    results = run_default_suite(seed)
    payload = {
        "command": "check",
        "version": catapult.__version__,
        "seed": seed,
        "results": [result.to_dict() for result in results],
        "all_passed": all(result.passed for result in results),
    }
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(
            f"{status}  {result.name}: residual {format_float(result.residual)} "
            f"(threshold {format_float(result.threshold)})"
        )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "check.json", payload)
    else:
        print(dumps_json(payload))
    return payload["all_passed"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _read_json(path_text: str):
    path = Path(path_text)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config: file not found: {path}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # JSON text is UTF-8 (RFC 8259), so undecodable bytes are invalid JSON;
        # nesting deeper than the decoder's recursion limit is refused too
        raise ConfigError(f"config: invalid JSON: {exc}") from exc


def _load_config(path_text: str, seed_override: Optional[int]) -> dict:
    raw = _read_json(path_text)
    return normalize_config(raw, Path(path_text).resolve().parent, seed_override)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1): argparse's
    own exit code 2 would collide with the invariant-failure code."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="catapult",
        description=(
            "Simulate full-batch gradient descent across the lazy, catapult "
            "and divergent phases; certify learning-rate windows; run the "
            "invariant checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "sweep", "bounds", "check"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=name != "check", help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override every seed")
        if name == "sweep":
            cmd.add_argument("--jobs", type=int, default=1, help="parallel workers")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed is not None:
            _valid_seed(args.seed, "--seed")
        if args.command == "check":
            seed = 0
            if args.config is not None:
                raw = _read_json(args.config)
                if not isinstance(raw, dict):
                    raise ConfigError("config: top level must be an object")
                for key in raw:
                    if key != "seed":
                        raise ConfigError(f"{key}: unknown field")
                seed = _valid_seed(raw.get("seed", 0), "seed")
            if args.seed is not None:
                seed = args.seed
            out_dir = Path(args.out) if args.out else None
            passed = cmd_check(seed, out_dir)
            return EXIT_OK if passed else EXIT_INVARIANT
        cfg = _load_config(args.config, args.seed)
        out_dir = Path(args.out) if args.out else Path("out")
        if args.command == "train":
            cmd_train(cfg, out_dir)
        elif args.command == "sweep":
            if args.jobs < 1:
                raise ConfigError("--jobs: must be at least 1")
            cmd_sweep(cfg, out_dir, jobs=args.jobs)
        elif args.command == "bounds":
            cmd_bounds(cfg, out_dir)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
