"""A one-generator identity map stores its meta-features as (D, n) diagonals.

Every result read off the diagonal form must be the dense form's, bit for
bit: a model built from the dense view (``psi_matrices``) trains the same
trajectory and gets the same spectrum, kernel and bounds.  The checks that
test dense algebra keep a rotated, dense psi, and a toy far too large for an
n x n matrix runs through the command line.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from catapult import selfcheck
from catapult.bounds import collect_bound_reports, omega_dense
from catapult.cli import cmd_bounds, cmd_sweep, normalize_config
from catapult.datasets import (
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    assemble_quadratic,
    build_meta_features,
    make_random,
    make_toy,
    make_toy_relu,
    zeta_for,
)
from catapult.models import QuadraticModel, psi_matrices
from catapult.numerics import Rng, lambda_max_symmetric, random_orthogonal
from catapult.training import TrainConfig, train

DATASETS = {
    "x=1": make_toy,
    "x=4": make_toy_relu,
    "x=-0.5": lambda: Dataset(inputs=[[-0.5]], labels=[0.5]),
}
RATES = (1.0, 3.0, 4.5)  # eta * lambda0: lazy, catapult, divergent on the pure toy


def _diagonal_model(dataset: Dataset, n_phi: int, scheme: str, seed: int) -> QuadraticModel:
    spec = MetaFeatureSpec(64, n_phi, 1, EigenScheme(scheme))
    feature_map = build_meta_features(spec, Rng(seed).child(1))
    zeta = zeta_for("1_over_n_psi" if n_phi else "2_over_n", 64)
    model = assemble_quadratic(feature_map, dataset, zeta, Rng(seed).child(2))
    assert model.diagonal and model.meta_features.shape == (dataset.size, model.n)
    return model


def _dense_twin(model: QuadraticModel) -> QuadraticModel:
    twin = QuadraticModel(
        theta=model.theta,
        features=model.features,
        meta_features=psi_matrices(model.meta_features),
        zeta=model.zeta,
        variant=model.variant,
    )
    assert not twin.diagonal
    return twin


def _reports(model, dataset) -> tuple[list, list]:
    reports, skipped = collect_bound_reports(model, dataset)
    return [report.to_dict() for report in reports], skipped


def _assert_same_runs(diagonal, dense, dataset) -> None:
    lambda0 = lambda_max_symmetric(diagonal.ntk())
    for rate in RATES:
        config = TrainConfig(eta=rate / lambda0, max_steps=3000)
        a, b = diagonal.clone(), dense.clone()
        run_a, run_b = train(a, dataset, config), train(b, dataset, config)
        assert (run_a.termination, run_a.steps_taken) == (run_b.termination, run_b.steps_taken)
        for name in ("losses", "weight_norms", "certified_norms", "ntk_steps", "eta_lambda_max"):
            np.testing.assert_array_equal(getattr(run_a, name), getattr(run_b, name), err_msg=name)
        np.testing.assert_array_equal(a.theta, b.theta)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("scheme", ["uniform", "pm_one"])
@pytest.mark.parametrize("n_phi", [0, 6], ids=["pure", "with_bias"])
def test_one_datapoint_matches_the_dense_view(dataset, scheme, n_phi):
    ds = DATASETS[dataset]()
    model = _diagonal_model(ds, n_phi, scheme, seed=60)
    dense = _dense_twin(model)
    assert np.array_equal(model.psi_spectrum, dense.psi_spectrum)
    assert np.array_equal(model.ntk(), dense.ntk())
    assert np.array_equal(model.outputs(), dense.outputs())
    reports, skipped = _reports(model, ds)
    assert reports and (reports, skipped) == _reports(dense, ds)
    _assert_same_runs(model, dense, ds)


@pytest.mark.parametrize("n_phi", [0, 6], ids=["pure", "with_bias"])
def test_three_points_match_the_dense_view(n_phi):
    # random d = 1 data: omega and psi_eff (pure) and bias_eff (with bias)
    # read the dense view on several points
    ds = make_random(1, 3, 0.5, Rng(61))
    model = _diagonal_model(ds, n_phi, "uniform", seed=62)
    dense = _dense_twin(model)
    assert np.array_equal(model.ntk(), dense.ntk())
    reports, skipped = _reports(model, ds)
    methods = {report["method"] for report in reports}
    assert methods == ({"bias_eff"} if n_phi else {"omega", "psi_eff"})
    assert (reports, skipped) == _reports(dense, ds)
    if not n_phi:
        assert np.array_equal(omega_dense(model), omega_dense(dense))
    _assert_same_runs(model, dense, ds)


def test_feature_map_keeps_only_the_drawn_eigenvalues():
    spec = MetaFeatureSpec(10, 4, 1, EigenScheme("uniform", 1.0, 2.0))
    feature_map = build_meta_features(spec, Rng(63))
    lam = spec.eigen_scheme.draw(10, Rng(63).child(0, 0))
    assert feature_map.diagonal
    assert np.array_equal(feature_map.meta_generators, lam[None])
    phi, psi = feature_map.at([[2.0], [-0.5]])
    assert psi.shape == (2, 14)
    assert np.array_equal(psi[:, :10], np.array([[2.0], [-0.5]]) * lam)
    assert not psi[:, 10:].any() and not phi[:, :10].any()
    # every other map stays dense
    for activation, d in (("tanh", 1), ("identity", 2)):
        spec = MetaFeatureSpec(10, 4, d, EigenScheme(), activation)
        assert build_meta_features(spec, Rng(64)).meta_generators.shape == (d, 10, 10)


def test_a_projected_diagonal_map_is_rotated_dense():
    # the projector must turn the dense block: rotating the diagonals would
    # keep psi diagonal and make every rotated check trivially true
    spec = MetaFeatureSpec(12, 0, 1, EigenScheme("uniform", 1.0, 2.0))
    feature_map = build_meta_features(spec, Rng(65))
    q = random_orthogonal(12, Rng(66))
    _, psi = feature_map.project(q).at([[1.0]])
    lam = feature_map.meta_generators[0]
    expected = q @ np.diag(lam) @ q.T
    assert psi.shape == (1, 12, 12)
    assert np.allclose(psi[0], (expected + expected.T) / 2.0, rtol=0.0, atol=1e-14)


def test_rotated_check_cases_have_off_diagonal_psi(monkeypatch):
    """The window checks' rotated quadratic cases reach the bounds with a
    dense psi that has nonzero off-diagonal entries; the unrotated ones
    with stored diagonals."""
    seen = {}
    for name in ("bound_pure_quadratic", "bound_quadratic_with_bias", "bound_multi_omega"):
        bound = getattr(selfcheck, name)

        def record(model, _bound=bound, _name=name):
            seen.setdefault(_name, []).append(model)
            return _bound(model)

        monkeypatch.setattr(selfcheck, name, record)
    assert selfcheck.check_single_datapoint_windows(0).passed
    assert selfcheck.check_omega_dual(0).passed

    def kinds(models):
        off_diagonal = sum(
            not model.diagonal and np.count_nonzero(np.triu(model.meta_features[0], 1)) > 0
            for model in models
        )
        return sum(model.diagonal for model in models), off_diagonal

    # three datapoints, each diagonal and rotated; the linear net with bias
    # couples u to v off the diagonal; omega runs a d = 2 map on 3 points
    assert kinds(seen["bound_pure_quadratic"]) == (3, 3)
    assert kinds(seen["bound_quadratic_with_bias"]) == (3, 4)
    assert kinds(seen["bound_multi_omega"]) == (1, 2)


def test_large_toy_sweeps_and_bounds_without_a_square_array(tmp_path):
    # n_psi = 200,000: one n x n array would be 320 GB; the whole sweep and
    # bounds run must stay within 64 vectors of length n (it peaks near 8)
    n = 200_000
    raw = {
        "model": {"family": "pure_quadratic", "n_psi": n, "zeta_rule": "2_over_n"},
        "dataset": {"kind": "toy"},
        "training": {"eta_lambda0_grid": list(RATES)},
    }
    cfg = normalize_config(raw, tmp_path)
    tracemalloc.start()
    try:
        cmd_sweep(cfg, tmp_path / "out")
        cmd_bounds(cfg, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * 8, peak
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["lazy", "catapult", "divergent"]
    assert (tmp_path / "out" / "bounds.json").stat().st_size > 0
