"""A quadratic model's meta-features are built in place, one point at a time.

``QuadraticFeatureMap.at`` allocates the (D, n, n) array once and writes
each point's block into it; ``QuadraticModel`` checks the array one point at
a time.  At d = 1 every entry is one product, so the bits are those of a
build that forms every point's block at once, which ``_one_shot`` redoes as
the reference.  At d > 1 the generator terms are added in a fixed order:
each block is exactly symmetric, does not depend on the other points, and
agrees with the reference to 1e-14.  The build's traced peak stays within
1.25 times the meta-feature bytes.  Several points on a diagonal map get
their omega and pooled bounds in closed form, with no dense view.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from catapult.bounds import collect_bound_reports
from catapult.datasets import (
    EigenScheme,
    MetaFeatureSpec,
    TeacherStudentSpec,
    _draw_meta_features,
    assemble_quadratic,
    build_meta_features,
    make_random,
    make_teacher_student,
    zeta_for,
)
from catapult.models import QuadraticModel, psi_matrices
from catapult.numerics import Rng, random_orthogonal

# one point is the build's block: D = 1, the block, and the block plus one,
# then several points
POINTS = (1, 2, 7)
# the traced peak of a build over its meta-feature bytes; a build that held
# every point's teacher-size block at once read 3.3 to 3.9
PEAK_RATIO = 1.25


def _one_shot(feature_map, x):
    """(phi, psi) from one product over every point: each point's
    activation block at teacher size, all at once, then each projection,
    symmetrized wherever a product sums several terms."""
    blocks = np.tensordot(x, psi_matrices(feature_map.meta_generators), axes=([1], [0]))
    if feature_map.activation == "tanh":
        blocks = np.tanh(blocks)
    q = feature_map.psi_projector
    if q is not None:
        blocks = np.matmul(np.matmul(q[None], blocks), q.T[None])
    if q is not None or x.shape[1] > 1:
        blocks = (blocks + blocks.swapaxes(1, 2)) / 2.0
    n, n_psi = feature_map.n, feature_map.n_psi
    phi, psi = np.zeros((x.shape[0], n)), np.zeros((x.shape[0], n, n))
    psi[:, :n_psi, :n_psi] = blocks
    if feature_map.feature_matrix is not None:
        features = x @ feature_map.feature_matrix.T
        if feature_map.phi_projector is not None:
            features = features @ feature_map.phi_projector.T
        phi[:, n_psi:] = features
    return phi, psi


def _feature_map(d, n_phi, activation, drawn, projected):
    """A drawn map (diagonal for one identity generator) or a rotated one,
    projected to a student or not."""
    spec = MetaFeatureSpec(12, n_phi, d, EigenScheme("uniform"), activation)
    if drawn:
        feature_map = build_meta_features(spec, Rng(80))
    else:
        feature_map = _draw_meta_features(spec, Rng(80), rotate=True)
    if projected:
        phi_projector = random_orthogonal(n_phi, Rng(82))[:2] if n_phi else None
        feature_map = feature_map.project(random_orthogonal(12, Rng(81))[:8], phi_projector)
    return feature_map


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("projected", [False, True], ids=["unprojected", "projected"])
@pytest.mark.parametrize("drawn", [True, False], ids=["drawn", "rotated"])
@pytest.mark.parametrize("activation", ["identity", "tanh"])
@pytest.mark.parametrize("n_phi", [0, 3], ids=["pure", "with_bias"])
def test_one_generator_build_is_the_one_shot_build(n_phi, activation, drawn, projected, points):
    feature_map = _feature_map(1, n_phi, activation, drawn, projected)
    x = Rng(83).uniform(-0.5, 0.5, (points, 1))
    phi, psi = feature_map.at(x)
    expected_phi, expected_psi = _one_shot(feature_map, x)
    diagonals = feature_map.diagonal and not projected
    assert psi.shape[0] == points and psi.ndim == (2 if diagonals else 3)
    assert np.array_equal(phi, expected_phi)
    assert np.array_equal(psi_matrices(psi), expected_psi)


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("projected", [False, True], ids=["unprojected", "projected"])
@pytest.mark.parametrize("activation", ["identity", "tanh"])
@pytest.mark.parametrize("d", [2, 4])
def test_several_generators_build_symmetric_blocks_point_by_point(d, activation, projected, points):
    feature_map = _feature_map(d, 3, activation, True, projected)
    x = Rng(84).uniform(-0.5, 0.5, (points, d))
    phi, psi = feature_map.at(x)
    expected_phi, expected_psi = _one_shot(feature_map, x)
    assert np.array_equal(psi, psi.transpose(0, 2, 1))
    assert np.array_equal(phi, expected_phi)
    assert np.abs(psi - expected_psi).max() <= 1e-14 * np.abs(expected_psi).max()
    # a point's block is the same bits whichever points are built with it
    for a in range(points):
        assert np.array_equal(feature_map.at(x[a : a + 1])[1][0], psi[a])


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_student_build_peaks_near_its_meta_feature_bytes():
    spec = TeacherStudentSpec(
        n_psi_teacher=120, n_psi_student=90, n_phi_teacher=12, n_phi_student=10,
        train_size=32, test_size=0,
    )
    setup = make_teacher_student(spec, Rng(85))
    model, peak = _traced_peak(
        lambda: assemble_quadratic(setup.student_map, setup.dataset, setup.zeta_student, Rng(86))
    )
    assert model.meta_features.shape == (32, 100, 100) and model.variant == "with_bias"
    assert peak <= PEAK_RATIO * model.meta_features.nbytes, peak / model.meta_features.nbytes


def _relative(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("points", [2, 4, 9])
@pytest.mark.parametrize("n_phi", [0, 6], ids=["pure", "with_bias"])
def test_several_diagonal_points_bound_as_their_dense_view(n_phi, points):
    # omega's max_j sum_a mu_aj**2 and the pooled (sum_a top_a mu_aj)**2 / D
    # against the eigensolves of the dense view
    dataset = make_random(1, points, 0.5, Rng(87))
    spec = MetaFeatureSpec(200, n_phi, 1, EigenScheme("uniform"))
    model = assemble_quadratic(
        build_meta_features(spec, Rng(88)), dataset, zeta_for("1_over_n_psi", 200), Rng(89)
    )
    dense = QuadraticModel(
        model.theta, model.features, psi_matrices(model.meta_features), model.zeta, model.variant
    )
    assert model.diagonal and not dense.diagonal
    (reports, skipped), (dense_reports, dense_skipped) = (
        collect_bound_reports(m, dataset) for m in (model, dense)
    )
    assert skipped == dense_skipped
    assert [r.method for r in reports] == [r.method for r in dense_reports]
    assert {r.method for r in reports} == ({"bias_eff"} if n_phi else {"omega", "psi_eff"})
    for report, dense_report in zip(reports, dense_reports):
        key = "lambda_max_omega" if report.method == "omega" else "lambda_max_psi_eff_sq"
        assert _relative(report.inputs_digest[key], dense_report.inputs_digest[key]) <= 1e-14
        assert _relative(report.sufficient_upper, dense_report.sufficient_upper) <= 1e-14


@pytest.mark.parametrize("n_phi", [0, 6], ids=["pure", "with_bias"])
def test_several_diagonal_points_bound_without_the_dense_view(n_phi):
    # 4 points at n_psi = 2000 store 64 KB of psi; the dense view is 128 MB
    dataset = make_random(1, 4, 0.5, Rng(90))
    spec = MetaFeatureSpec(2000, n_phi, 1, EigenScheme("uniform"))
    model = assemble_quadratic(
        build_meta_features(spec, Rng(91)), dataset, zeta_for("1_over_n_psi", 2000), Rng(92)
    )
    (reports, _), peak = _traced_peak(lambda: collect_bound_reports(model, dataset))
    assert reports and peak < 5e6, peak
