"""Acceptance suite: every criterion as one test with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 8 needs the real two-class image files (IDX format);
point CATAPULT_MNIST_DIR at a directory containing the four standard files
to enable it, otherwise it reports SKIPPED.  Its sparsity trend is also
checked on the ReLU (4, 2) toy, which needs no files.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from catapult.analysis import linearized_predict, run_sweep_point
from catapult.bounds import (
    bound_homogenous_mlp,
    bound_mlp_multi,
    bound_multi_bias_eff,
    bound_multi_omega,
    bound_multi_psi_eff,
    bound_pure_quadratic,
    bound_quadratic_with_bias,
    bound_relu,
    omega_dense,
)
from catapult.cli import main
from catapult.datasets import (
    EigenScheme,
    MetaFeatureSpec,
    assemble_quadratic,
    build_meta_features,
    load_two_class_images,
    make_toy,
    make_toy_relu,
    zeta_for,
)
from catapult.models import HomogenousNet, QuadraticModel
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.training import TrainConfig, train, weight_norm_identity_residuals
from catapult.selfcheck import IDENTITY_RATES, identity_families
from conftest import (
    output_series,
    pure_toy_quadratic,
    random_quadratic,
    with_bias_toy_quadratic,
)

FAST = dict(ntk_eval_interval=10**9)


def verdict(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nacceptance criterion {number:2d} ({name}): PASS{suffix}")


def interior_rates(lower: float, upper: float, count: int) -> list[float]:
    return [lower + (upper - lower) * k / (count + 1) for k in range(1, count + 1)]


def test_criterion_01_weight_norm_identity_suite():
    # the toy runs at label 0 (each converges within 40 steps), then every
    # family of the self-check at non-zero labels, on several points, and
    # the degree-3 net
    started = time.time()
    toy = make_toy()
    runs = []
    for seed in range(20):
        runs += [
            (pure_toy_quadratic(48, seed=seed), toy, (3.0,)),
            (HomogenousNet.init_random(64, Rng(seed).child(1), 0.5, 1.0), toy, (3.0,)),
            (HomogenousNet.init_random(64, Rng(seed).child(2), 0.0, 1.0), toy, (3.0,)),
        ]
    for seed in range(5):
        runs += [(*case, IDENTITY_RATES) for case in identity_families(seed).values()]
    worst = 0.0
    for model, dataset, rates in runs:
        lambda0 = lambda_max_symmetric(model.ntk(dataset.inputs))
        for rate in rates:
            residuals = weight_norm_identity_residuals(model, dataset, rate / lambda0, 40)
            worst = max(worst, float(residuals.max()))
    elapsed = time.time() - started
    assert worst <= 1e-12
    assert elapsed < 10.0
    verdict(1, "weight-norm identity suite", f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_certified_window_sufficiency():
    started = time.time()
    toy = make_toy()

    def check_monotone(model, report):
        assert report.window_nonempty
        for eta in interior_rates(report.catapult_lower, report.sufficient_upper, 8):
            trajectory = train(model.clone(), toy, TrainConfig(eta=eta, **FAST))
            assert trajectory.termination == "converged"
            norms = trajectory.monotone_norms
            assert np.all(np.diff(norms) <= 1e-10 * norms[0])

    for seed in range(20):
        pure = pure_toy_quadratic(64, seed=seed, scheme=EigenScheme("uniform", 1.0, 1.2))
        check_monotone(pure, bound_pure_quadratic(pure))

        biased = with_bias_toy_quadratic(100, 10, seed=seed)
        check_monotone(biased, bound_quadratic_with_bias(biased))

        leaky = HomogenousNet.init_random(256, Rng(seed).child(3), 0.75, 1.0)
        check_monotone(leaky, bound_homogenous_mlp(leaky, toy))

        relu = HomogenousNet.init_random(128, Rng(seed).child(4), 0.0, 1.0)
        check_monotone(relu, bound_relu(relu, toy))

        # certified divergence for the two families with a kernel lower bound
        for model, report in (
            (pure, bound_pure_quadratic(pure)),
            (leaky, bound_homogenous_mlp(leaky, toy)),
        ):
            for factor in (1.05, 1.2, 1.5, 2.0):
                eta = factor * report.divergence_lower
                trajectory = train(model.clone(), toy, TrainConfig(eta=eta, **FAST))
                assert trajectory.termination == "diverged"
    elapsed = time.time() - started
    assert elapsed < 120.0
    verdict(2, "certified window sufficiency and divergence", f"{elapsed:.1f}s")


def _linear_meta_toy_factory(n: int, seed: int):
    feature_map = build_meta_features(
        MetaFeatureSpec(n, 0, 1, EigenScheme("uniform", 1.0, 2.0)), Rng(seed).child(1)
    )
    zeta = zeta_for("2_over_n", n)
    dataset = make_toy()

    def factory():
        return assemble_quadratic(feature_map, dataset, zeta, Rng(seed).child(2))

    return factory, dataset


def test_criterion_03_pure_quadratic_phase_boundary():
    started = time.time()
    factory, dataset = _linear_meta_toy_factory(1000, seed=0)
    lambda0 = float(factory().ntk()[0, 0])
    grid_normalized = np.round(np.arange(2.2, 4.601, 0.2), 10)
    config = TrainConfig(eta=1.0, **FAST)
    records = [
        run_sweep_point(factory, dataset, g / lambda0, config, lambda0)[0]
        for g in grid_normalized
    ]
    for g, record in zip(grid_normalized, records):
        assert record.status == "ok"
        if g <= 3.8:
            assert record.phase in ("lazy", "catapult"), f"rate {g} did not converge"
        if g >= 4.2:
            assert record.phase == "divergent", f"rate {g} did not diverge"
    elapsed = time.time() - started
    assert elapsed < 60.0
    verdict(3, "pure quadratic converges up to the phase boundary", f"{elapsed:.1f}s")


def test_criterion_04_homogenous_weight_norm_peak():
    started = time.time()
    dataset = make_toy()

    def factory():
        return HomogenousNet.init_random(1024, Rng(0).child(2), 0.5, 1.0)

    lambda0 = float(factory().ntk(dataset.inputs)[0, 0])
    grid_normalized = np.round(np.arange(2.25, 4.501, 0.25), 10)
    config = TrainConfig(eta=1.0, max_steps=300_000, **FAST)
    records = [
        run_sweep_point(factory, dataset, g / lambda0, config, lambda0)[0]
        for g in grid_normalized
    ]
    ratios = {}
    for g, record in zip(grid_normalized, records):
        assert record.phase in ("lazy", "catapult"), f"rate {g}: {record.phase}"
        ratios[float(g)] = record.weight_ratio

    # transient growth at 4.5 with eventual convergence
    trajectory = train(
        factory(), dataset, TrainConfig(eta=4.5 / lambda0, max_steps=300_000, **FAST)
    )
    assert trajectory.termination == "converged"
    assert trajectory.weight_norms.max() > trajectory.weight_norms[0]

    peak = max(ratios, key=ratios.get)
    assert abs(peak - 4.0) <= 0.25
    elapsed = time.time() - started
    assert elapsed < 60.0
    verdict(4, "homogenous net weight-norm peak", f"peak at {peak}, {elapsed:.1f}s")


def test_criterion_05_zero_bias_closed_form(tmp_path):
    started = time.time()
    config = {
        "model": {"family": "linear_net_with_bias", "width": 24, "bias0": 0.0,
                  "init_seed": 3},
        "dataset": {"kind": "toy"},
        "training": {"eta": 0.1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bounds"
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    report = next(r for r in doc["reports"] if r["method"] == "single_datapoint")
    h0 = report["inputs_digest"]["h0"]
    expected = 4.0 / (h0 + 1.0)
    relative = abs(report["sufficient_upper"] - expected) / expected
    elapsed = time.time() - started
    assert relative < 1e-12
    assert elapsed < 1.0
    verdict(5, "zero-bias closed form via the bounds command", f"rel err {relative:.1e}")


def test_criterion_06_multi_datapoint_cross_checks():
    started = time.time()
    # dual contraction eigenvalue against dense materialization
    for n, d_pts, seed in [(8, 3, 0), (16, 4, 1), (8, 8, 2), (32, 8, 3), (64, 8, 4), (128, 4, 5)]:
        assert n * d_pts <= 512
        model, _ = random_quadratic(n, 0, 2, d_pts, seed=seed)
        report = bound_multi_omega(model)
        lam_dense = lambda_max_symmetric(omega_dense(model))
        relative = abs(report.inputs_digest["lambda_max_omega"] - lam_dense) / lam_dense
        assert relative < 1e-12

    # every multi-datapoint bound reduces to its single-datapoint value
    for seed in range(5):
        pure = pure_toy_quadratic(32, seed=seed)
        table = bound_pure_quadratic(pure)
        assert bound_multi_omega(pure).sufficient_upper == pytest.approx(
            table.sufficient_upper, rel=1e-10
        )
        assert bound_multi_psi_eff(pure).sufficient_upper == pytest.approx(
            table.sufficient_upper, rel=1e-10
        )

        biased = with_bias_toy_quadratic(32, 8, seed=seed)
        assert bound_multi_bias_eff(biased).sufficient_upper == pytest.approx(
            bound_quadratic_with_bias(biased).sufficient_upper, rel=1e-10
        )

        leaky = HomogenousNet.init_random(64, Rng(seed).child(6), 0.5, 1.0)
        assert bound_mlp_multi(leaky, make_toy()).sufficient_upper == pytest.approx(
            bound_homogenous_mlp(leaky, make_toy()).sufficient_upper, rel=1e-10
        )
    elapsed = time.time() - started
    assert elapsed < 30.0
    verdict(6, "multi-datapoint cross-checks", f"{elapsed:.1f}s")


def test_criterion_07_linearized_predictor():
    started = time.time()
    # supercritical run on the standard linear-meta-feature setup; choose the
    # first weight seed whose initial output sits inside the validity window
    # so the comparison is non-vacuous
    n = 1000
    feature_map = build_meta_features(
        MetaFeatureSpec(n, 0, 1, EigenScheme("uniform", 1.0, 2.0)), Rng(0).child(1)
    )
    zeta = zeta_for("2_over_n", n)
    dataset = make_toy()
    threshold = 0.01 / zeta

    def model_for(seed):
        return assemble_quadratic(feature_map, dataset, zeta, Rng(seed).child(2))

    seed = next(s for s in range(500) if abs(model_for(s).outputs()[0]) < 0.8 * threshold)
    model = model_for(seed)
    h0 = float(model.ntk()[0, 0])
    eta = 3.0 / h0
    trajectory = train(model.clone(), dataset, TrainConfig(eta=eta, **FAST))
    prediction = linearized_predict(
        model, dataset, eta, horizon=trajectory.steps_taken,
        true_outputs=output_series(model, dataset, eta, trajectory.steps_taken),
    )
    horizon = prediction.validity_horizon
    assert horizon is not None and horizon >= 1
    rel = np.abs(
        prediction.predicted_losses[:horizon] - trajectory.losses[:horizon]
    ) / trajectory.losses[:horizon]
    assert rel.max() < 0.10

    # exactness for a linear model (zero coupling)
    rng = Rng(7)
    linear = QuadraticModel(
        theta=rng.child(1).normal(32),
        features=rng.child(2).normal((4, 32)),
        meta_features=np.zeros((4, 32, 32)),
        zeta=0.0,
        variant="with_bias",
    )
    from catapult.datasets import Dataset

    linear_data = Dataset(inputs=np.zeros((4, 1)), labels=rng.child(3).normal(4))
    eta_lin = 0.9 / lambda_max_symmetric(linear.ntk())
    exact = linearized_predict(linear.clone(), linear_data, eta_lin, horizon=20)
    sim = linear.clone()
    worst = 0.0
    for t in range(21):
        z = sim.outputs()
        true_loss = float(((z - linear_data.labels) ** 2).sum()) / 8.0
        worst = max(worst, abs(exact.predicted_losses[t] - true_loss) / true_loss)
        sim.apply_gd_step(None, z - linear_data.labels, eta_lin)
    assert worst < 1e-9
    elapsed = time.time() - started
    assert elapsed < 10.0
    verdict(
        7,
        "early-time linearized predictor",
        f"{horizon} valid steps, max rel {rel.max():.3f}, linear exactness {worst:.1e}",
    )


def _mnist_paths() -> dict | None:
    root = os.environ.get("CATAPULT_MNIST_DIR")
    if not root:
        return None
    directory = Path(root)
    names = {
        "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
        "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
        "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
        "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
    }
    resolved = {}
    for key, candidates in names.items():
        for candidate in candidates:
            if (directory / candidate).exists():
                resolved[key] = str(directory / candidate)
                break
        else:
            return None
    return resolved


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # tied values share the mean of the ranks they span, so a tie counts as
    # neither agreement nor disagreement; a constant series has no spread and
    # gives a NaN correlation, which fails every threshold
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + (counts - 1) / 2.0)[inverse]


def _rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def test_criterion_08_two_class_mnist_trends():
    paths = _mnist_paths()
    if paths is None:
        print(
            "\nacceptance criterion  8 (two-class MNIST trends): SKIPPED "
            "[set CATAPULT_MNIST_DIR to a directory with the four IDX files]"
        )
        pytest.skip("two-class MNIST IDX files not available")
    started = time.time()
    dataset = load_two_class_images("idx", paths, 0, 1, train_size=128)
    assert dataset.size == 128 and dataset.dim == 784
    assert dataset.test_inputs.shape[0] == 2115

    def factory():
        return HomogenousNet.init_random(1024, Rng(0).child(2), 0.0, 1.0, input_dim=784)

    lambda0 = lambda_max_symmetric(factory().ntk(dataset.inputs))
    grid = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
    config = TrainConfig(eta=1.0, max_steps=20_000, ntk_eval_interval=2000)
    records = [run_sweep_point(factory, dataset, g / lambda0, config, lambda0)[0] for g in grid]

    by_rate = dict(zip(grid, records))
    catapult = [r for r in records if r.phase == "catapult"]
    assert catapult, "no converged catapult runs"

    final_sharpness = np.array([r.final_eta_lambda_max for r in catapult])
    median_sharpness = float(np.median(final_sharpness))
    assert 1.8 <= median_sharpness <= 2.2

    for rate in (2.5, 3.0, 3.5):
        record = by_rate[rate]
        assert record.phase == "catapult" and record.weight_ratio < 1.0
    assert by_rate[6.0].phase == "catapult" and by_rate[6.0].weight_ratio > 1.0

    rates = np.array([r.eta_lambda0 for r in catapult])
    sparsities = np.array([r.sparsity[0] for r in catapult])
    correlation = _rank_correlation(rates, sparsities)
    assert correlation > 0.8

    for record in catapult:
        assert record.accuracy >= 0.95

    elapsed = time.time() - started
    assert elapsed < 900.0
    verdict(
        8,
        "two-class MNIST trends",
        f"median final sharpness {median_sharpness:.2f}, "
        f"sparsity rank corr {correlation:.2f}, {elapsed:.0f}s",
    )


def test_relu_toy_sparsity_grows_with_the_rate():
    # criterion 8's sparsity trend on the ReLU (4, 2) toy, which needs no
    # image files.  Only catapult runs that fit count: a run into the dead
    # net also converges after a spike, at loss y**2 / 2.
    dataset = make_toy_relu()
    grid = [2.25 + 0.25 * k for k in range(8)]
    config = TrainConfig(eta=1.0, max_steps=300_000, ntk_eval_interval=1_000_000)
    worst = 1.0
    for width in (256, 512, 1024):
        for seed in range(4):
            net = HomogenousNet.init_random(width, Rng(seed).child(2, 0), 0.0, 1.0)
            lambda0 = lambda_max_symmetric(net.ntk(dataset.inputs))
            records = [
                run_sweep_point(net.clone, dataset, g / lambda0, config, lambda0)[0]
                for g in grid
            ]
            fit = [r for r in records if r.phase == "catapult" and r.train_loss_final < 1e-6]
            assert len(fit) >= 5, (width, seed, len(fit))
            rates = np.array([r.eta_lambda0 for r in fit])
            sparsities = np.array([r.sparsity[0] for r in fit])
            correlation = _rank_correlation(rates, sparsities)
            assert correlation >= 0.9, (width, seed, correlation)
            assert sparsities[-1] > sparsities[0], (width, seed, sparsities)
            worst = min(worst, correlation)
    verdict(8, "ReLU toy sparsity trend", f"lowest sparsity rank corr {worst:.3f}")


def test_criterion_09_initialization_statistics():
    started = time.time()
    a_minus, a_plus, width = 0.5, 1.0, 64
    kernels = np.empty(10_000)
    norms = np.empty(10_000)
    unit = [[1.0]]
    for seed in range(10_000):
        net = HomogenousNet.init_random(width, Rng(seed), a_minus, a_plus)
        kernels[seed] = net.ntk(unit)[0, 0]
        norms[seed] = net.weight_norm()
    kernel_target = a_minus**2 + a_plus**2
    kernel_se = kernels.std(ddof=1) / math.sqrt(kernels.size)
    norm_se = norms.std(ddof=1) / math.sqrt(norms.size)
    assert abs(kernels.mean() - kernel_target) < 3.0 * kernel_se
    assert abs(norms.mean() - 2.0 * width) < 3.0 * norm_se
    elapsed = time.time() - started
    assert elapsed < 30.0
    verdict(
        9,
        "initialization statistics",
        f"kernel mean {kernels.mean():.4f} vs {kernel_target}, "
        f"norm mean {norms.mean():.1f} vs {2 * width}, {elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    config = {
        "model": {
            "family": "pure_quadratic",
            "n_psi": 64,
            "zeta_rule": "2_over_n",
            "init_seed": 0,
            "eigen_scheme": {"kind": "uniform", "low": 1.0, "high": 2.0},
        },
        "dataset": {"kind": "toy"},
        "training": {"eta_lambda0_grid": [1.0, 2.5, 3.0], "ntk_eval_interval": 1},
        "output": {"per_eta_trajectories": True},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
        outputs.append(out)
    first, second = outputs
    compared = 0
    for file in sorted(first.iterdir()):
        twin = second / file.name
        assert twin.exists()
        assert file.read_bytes() == twin.read_bytes(), file.name
        compared += 1
    digest_a = json.loads((first / "sweep.meta.json").read_text())["config_digest"]
    digest_b = json.loads((second / "sweep.meta.json").read_text())["config_digest"]
    assert digest_a == digest_b
    verdict(10, "byte-identical outputs for equal digests", f"{compared} files")
