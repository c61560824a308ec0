import math
import struct

import numpy as np
import pytest

from catapult.datasets import (
    OUTPUTS_AT_CHUNK,
    DataFormatError,
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    QuadraticFeatureMap,
    TeacherStudentSpec,
    assemble_quadratic,
    build_meta_features,
    load_two_class_images,
    make_random,
    make_teacher_student,
    make_toy,
    make_toy_relu,
    read_cifar_binary,
    zeta_for,
)
from catapult.models import QuadraticModel
from catapult.numerics import Rng, random_orthogonal
from catapult.training import mse_loss


def _assert_relatively_close(actual, expected):
    """Agreement to 1e-12 of the largest expected magnitude."""
    assert actual.shape == expected.shape
    if expected.size:
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


class TestToyDatasets:
    def test_unit_datapoint(self):
        ds = make_toy()
        assert ds.inputs.tolist() == [[1.0]]
        assert ds.labels.tolist() == [0.0]

    def test_positive_label_datapoint(self):
        ds = make_toy_relu()
        assert ds.inputs.tolist() == [[4.0]]
        assert ds.labels.tolist() == [2.0]

    def test_toy_loss_at_zero_output(self):
        assert mse_loss(np.zeros(1), make_toy().labels) == 0.0


class TestRandomDataset:
    def test_support_is_the_cube(self):
        ds = make_random(3, 500, 0.5, Rng(0))
        assert np.abs(ds.inputs).max() <= 0.5
        assert np.abs(ds.labels).max() <= 0.5

    def test_seed_determinism(self):
        a = make_random(2, 50, 1.0, Rng(9))
        b = make_random(2, 50, 1.0, Rng(9))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_coordinate_means_center(self):
        ds = make_random(2, 10_000, 0.5, Rng(1))
        sigma = 0.5 / math.sqrt(3.0)  # stdev of U[-1/2, 1/2] scaled
        assert np.abs(ds.inputs.mean(axis=0)).max() < 3.0 * sigma / math.sqrt(10_000)


class TestMetaFeatureConstruction:
    def test_unit_input_reproduces_generator(self):
        spec = MetaFeatureSpec(8, 0, 1, EigenScheme("uniform", 1.0, 2.0))
        fm = build_meta_features(spec, Rng(2))
        _, psi = fm.at([[1.0]])
        assert np.array_equal(psi[0], fm.meta_generators[0])
        spectrum = np.sort(np.linalg.eigvalsh(psi[0]))
        assert np.abs(spectrum - np.sort(fm.meta_eigenvalues[0])).max() < 1e-10

    def test_uniform_scheme_is_exactly_paired(self):
        scheme = EigenScheme("uniform", 1.0, 2.0)
        lam = scheme.draw(10, Rng(3))
        half = 5
        assert np.all(lam[:half] >= 1.0) and np.all(lam[:half] < 2.0)
        assert np.array_equal(lam[half:], -lam[:half])
        assert float(np.sum(lam[:half] + lam[half:])) == 0.0

    def test_tanh_saturates_large_entries(self):
        spec = MetaFeatureSpec(16, 0, 1, EigenScheme("uniform", 1.0, 2.0), activation="tanh")
        fm = build_meta_features(spec, Rng(4))
        _, psi = fm.at([[50.0]])
        # mathematically tanh stays inside (-1, 1); in floats the saturated
        # entries round to exactly one
        assert np.abs(psi).max() <= 1.0
        assert np.abs(psi).max() > 0.99

    def test_meta_features_exactly_symmetric(self):
        spec = MetaFeatureSpec(12, 0, 3, EigenScheme("pm_one"), activation="tanh")
        fm = build_meta_features(spec, Rng(5))
        _, psi = fm.at(Rng(6).normal((7, 3)))
        assert np.array_equal(psi, psi.transpose(0, 2, 1))

    def test_block_split_orthogonality_is_exact(self):
        spec = MetaFeatureSpec(16, 4, 2, EigenScheme("pm_one"))
        fm = build_meta_features(spec, Rng(7))
        phi, psi = fm.at(Rng(8).normal((5, 2)))
        overlap = np.einsum("aij,bj->abi", psi, phi)
        assert np.abs(overlap).max() <= 1e-12

    def test_odd_meta_dimension_rejected(self):
        with pytest.raises(ValueError):
            MetaFeatureSpec(7, 0, 1, EigenScheme("pm_one"))

    def test_scheme_high_defaults_by_kind(self):
        assert EigenScheme() == EigenScheme("uniform", 1.0, 2.0)
        assert EigenScheme("pm_one").high == 1.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "bogus"}, "kind: must be one of"),
            ({"kind": "pm_one", "high": 2.0}, "high: must be 1 for pm_one"),
            ({"kind": "uniform", "low": 2.0, "high": 1.0}, "low: must be below high"),
        ],
    )
    def test_scheme_errors_name_their_field(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            EigenScheme(**kwargs)

    def test_outputs_at_matches_materialized_model(self):
        spec = MetaFeatureSpec(16, 4, 2, EigenScheme("uniform", 1.0, 2.0))
        fm = build_meta_features(spec, Rng(9))
        # two whole blocks, then a partial one
        assert 2 * OUTPUTS_AT_CHUNK < 37 < 3 * OUTPUTS_AT_CHUNK
        x = Rng(10).uniform(-0.5, 0.5, (37, 2))
        ds = Dataset(inputs=x, labels=np.zeros(37))
        zeta = zeta_for("1_over_n_psi", 16)
        model = assemble_quadratic(fm, ds, zeta, Rng(11))
        streamed = fm.outputs_at(model.theta, zeta, x)
        _assert_relatively_close(streamed, model.outputs())

    @pytest.mark.parametrize(
        "points", [0, 1, OUTPUTS_AT_CHUNK, OUTPUTS_AT_CHUNK + 1],
        ids=["empty", "one", "one_block", "one_block_and_one"],
    )
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("projected", [False, True], ids=["full", "projected"])
    def test_outputs_at_agrees_at_block_edges(self, points, d, activation, projected):
        # the packed upper-triangle contraction against the model built on
        # the full meta-feature matrices, at and around the block boundary
        spec = MetaFeatureSpec(20, 6, d, EigenScheme("uniform", 1.0, 2.0), activation)
        fm = build_meta_features(spec, Rng(21))
        if projected:
            fm = fm.project(random_orthogonal(20, Rng(22))[:12], random_orthogonal(6, Rng(23))[:4])
        x = Rng(24).uniform(-0.5, 0.5, (points, d))
        zeta = zeta_for("1_over_n_psi", fm.n_psi)
        if points:
            ds = Dataset(inputs=x, labels=np.zeros(points))
            model = assemble_quadratic(fm, ds, zeta, Rng(25))
        else:  # a Dataset needs a point: assemble_quadratic's model by hand
            model = QuadraticModel(Rng(25).normal(fm.n), *fm.at(x), zeta)
        streamed = fm.outputs_at(model.theta, zeta, x)
        assert streamed.shape == (points,)
        _assert_relatively_close(streamed, model.outputs())

    def test_outputs_at_forms_no_full_activation_block(self, monkeypatch):
        spec = MetaFeatureSpec(24, 4, 1, EigenScheme("uniform", 1.0, 2.0), "tanh")
        fm = build_meta_features(spec, Rng(26))
        x = Rng(27).uniform(-0.5, 0.5, (OUTPUTS_AT_CHUNK + 3, 1))
        theta = Rng(28).normal(fm.n)
        expected = QuadraticModel(theta, *fm.at(x), 0.5).outputs()

        def refuse(self, x):
            raise AssertionError("outputs_at formed an m x m activation block")

        monkeypatch.setattr(QuadraticFeatureMap, "_activations_at", refuse)
        _assert_relatively_close(fm.outputs_at(theta, 0.5, x), expected)

    @pytest.mark.parametrize("n_phi", [0, 6], ids=["pure", "with_bias"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    def test_outputs_at_folds_the_projector(self, n_phi, d, activation):
        # the projected meta-features Q T Q^T are never formed: outputs_at
        # contracts T with w = Q^T theta instead, on a point count that is
        # not a multiple of the block size
        spec = MetaFeatureSpec(24, n_phi, d, EigenScheme("uniform", 1.0, 2.0), activation)
        fm = build_meta_features(spec, Rng(16))
        fm = fm.project(
            random_orthogonal(24, Rng(17))[:14],
            random_orthogonal(n_phi, Rng(18))[:4] if n_phi else None,
        )
        x = Rng(19).uniform(-0.5, 0.5, (37, d))
        ds = Dataset(inputs=x, labels=np.zeros(37))
        zeta = zeta_for("1_over_n_psi", fm.n_psi)
        model = assemble_quadratic(fm, ds, zeta, Rng(20))
        expected = model.outputs()
        streamed = fm.outputs_at(model.theta, zeta, x)
        _assert_relatively_close(streamed, expected)


class TestTeacherStudent:
    def test_identity_projection_when_dims_match(self):
        spec = TeacherStudentSpec(
            n_psi_teacher=16, n_psi_student=16, d=1, train_size=4, test_size=2,
            activation="identity", eigen_scheme=EigenScheme("pm_one"),
        )
        setup = make_teacher_student(spec, Rng(12))
        phi_s, psi_s = setup.student_map.at(setup.dataset.inputs)
        _, psi_t = setup.teacher_map.at(setup.dataset.inputs)
        q = setup.student_map.psi_projector
        # square orthogonal projector: student features are a rotation of the
        # teacher's, so spectra agree even though entries differ
        assert q.shape == (16, 16)
        s_spec = np.sort(np.linalg.eigvalsh(psi_s[0]))
        t_spec = np.sort(np.linalg.eigvalsh(psi_t[0]))
        assert np.abs(s_spec - t_spec).max() < 1e-8

    def test_projector_rows_orthonormal(self):
        spec = TeacherStudentSpec(
            n_psi_teacher=32, n_psi_student=20, d=1, train_size=4, test_size=2,
            eigen_scheme=EigenScheme("pm_one"),
        )
        setup = make_teacher_student(spec, Rng(13))
        q = setup.student_map.psi_projector
        assert q.shape == (20, 32)
        assert np.abs(q @ q.T - np.eye(20)).max() < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [
            TeacherStudentSpec(
                n_psi_teacher=16, n_psi_student=8, d=2, train_size=6, test_size=3,
                activation="identity", eigen_scheme=EigenScheme("pm_one"),
            ),
            # a test split longer than one block of outputs_at
            TeacherStudentSpec(
                n_psi_teacher=16, n_psi_student=8, n_phi_teacher=6, n_phi_student=4,
                d=1, train_size=6, test_size=2 * OUTPUTS_AT_CHUNK + 5, activation="tanh",
            ),
        ],
        ids=["identity_d2", "tanh_with_bias_d1"],
    )
    def test_labels_come_from_the_teacher(self, spec):
        setup = make_teacher_student(spec, Rng(14))
        ds = setup.dataset
        # the teacher model materialized on each split, at the teacher weights
        for inputs, labels in ((ds.inputs, ds.labels), (ds.test_inputs, ds.test_labels)):
            phi, psi = setup.teacher_map.at(inputs)
            teacher = QuadraticModel(setup.theta_teacher, phi, psi, setup.zeta_teacher)
            assert np.allclose(labels, teacher.outputs(), rtol=0.0, atol=1e-12)

    def test_large_scale_instance_is_well_conditioned(self):
        # rank-500 teacher projected to a rank-400 student on 32 points
        spec = TeacherStudentSpec(
            n_psi_teacher=500, n_psi_student=400, d=1, train_size=32, test_size=16,
            activation="tanh", eigen_scheme=EigenScheme("pm_one"),
        )
        setup = make_teacher_student(spec, Rng(1).child(3))
        model = assemble_quadratic(
            setup.student_map, setup.dataset, setup.zeta_student, Rng(1).child(2)
        )
        outputs = model.outputs()
        assert np.isfinite(outputs).all()
        assert np.abs(setup.dataset.labels).max() < 10.0  # labels stay order one

    def test_student_cannot_exceed_teacher(self):
        with pytest.raises(ValueError):
            TeacherStudentSpec(n_psi_teacher=8, n_psi_student=16)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # an empty student once ended in a ZeroDivisionError in its coupling
            ({"n_psi_student": 0}, "n_psi_student: must be between 1 and n_psi_teacher"),
            # a non-positive width once reached numpy's uniform draw
            ({"input_half_width": 0.0}, "input_half_width: must be positive"),
            ({"input_half_width": -0.5}, "input_half_width: must be positive"),
            ({"d": 0}, "d: must be at least 1"),
            ({"activation": "relu"}, "activation: must be one of"),
        ],
    )
    def test_spec_errors_name_their_field(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            TeacherStudentSpec(**{"n_psi_teacher": 8, "n_psi_student": 4, **kwargs})


class TestIdxLoader:
    def test_roundtrip_and_split_sizes(self, synthetic_idx_paths):
        ds = load_two_class_images("idx", synthetic_idx_paths, 0, 1, train_size=100)
        assert ds.size == 100
        assert ds.dim == 64
        assert ds.test_inputs.shape == (120, 64)
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_first_matching_images_in_file_order(self, synthetic_idx_paths):
        from catapult.datasets import read_idx_images, read_idx_labels

        ds = load_two_class_images("idx", synthetic_idx_paths, 0, 1, train_size=10)
        raw_images = read_idx_images(synthetic_idx_paths["train_images"])
        raw_labels = read_idx_labels(synthetic_idx_paths["train_labels"])
        mask = (raw_labels == 0) | (raw_labels == 1)
        expected = raw_images[mask][:10].astype(float) / 255.0
        assert np.array_equal(ds.inputs, expected)

    @pytest.mark.parametrize("train_size", [0, -5])
    def test_rejects_a_non_positive_train_size(self, synthetic_idx_paths, train_size):
        # a negative size once sliced off the last matching images instead
        with pytest.raises(ValueError, match="train_size must be at least 1"):
            load_two_class_images("idx", synthetic_idx_paths, 0, 1, train_size=train_size)

    def test_image_magic_mismatch(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataFormatError, match="byte 0"):
            from catapult.datasets import read_idx_images

            read_idx_images(bad)

    def test_truncated_image_file(self, tmp_path):
        bad = tmp_path / "trunc.idx"
        bad.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        from catapult.datasets import read_idx_images

        with pytest.raises(DataFormatError, match="truncated"):
            read_idx_images(bad)

    def test_label_magic_mismatch(self, tmp_path):
        bad = tmp_path / "bad-labels.idx"
        bad.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\x00")
        from catapult.datasets import read_idx_labels

        with pytest.raises(DataFormatError, match="magic"):
            read_idx_labels(bad)

    def test_insufficient_matching_images(self, synthetic_idx_paths):
        with pytest.raises(DataFormatError, match="available"):
            load_two_class_images("idx", synthetic_idx_paths, 0, 1, train_size=1000)

    def test_unknown_class_id_with_offset(self, tmp_path):
        bad = tmp_path / "bad-class.idx"
        bad.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 17]))
        from catapult.datasets import read_idx_labels

        with pytest.raises(DataFormatError, match="unknown class id 17 at byte 10"):
            read_idx_labels(bad)


class TestCifarLoader:
    @staticmethod
    def write_records(path, labels, rng):
        with open(path, "wb") as fh:
            for label in labels:
                pixels = (rng.uniform(0.0, 1.0, 3072) * 255).astype(np.uint8)
                fh.write(bytes([label]) + pixels.tobytes())

    def test_record_layout(self, tmp_path):
        rng = Rng(15)
        train = tmp_path / "batch_1.bin"
        test = tmp_path / "test.bin"
        self.write_records(train, [0, 1, 2, 0, 1, 1, 0, 1], rng.child(0))
        self.write_records(test, [1, 0, 3, 0], rng.child(1))
        paths = {"train_files": [str(train)], "test_files": [str(test)]}
        ds = load_two_class_images("cifar_binary", paths, 0, 1, train_size=6)
        assert ds.dim == 3072
        assert ds.size == 6
        assert ds.test_inputs.shape == (3, 3072)
        assert ds.labels[0] == -1.0 and ds.labels[1] == 1.0

    def test_trailing_bytes_rejected(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * (3073 + 10))
        with pytest.raises(DataFormatError, match="byte 3073"):
            read_cifar_binary([bad])

    def test_unknown_class_id_with_offset(self, tmp_path):
        bad = tmp_path / "badlabel.bin"
        record = bytes([11]) + b"\x00" * 3072
        bad.write_bytes(b"\x01" + b"\x00" * 3072 + record)
        with pytest.raises(DataFormatError, match="unknown class id 11 at byte 3073"):
            read_cifar_binary([bad])


class TestDatasetValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros((3, 2)), labels=np.zeros(2))

    def test_rejects_non_finite_labels(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros((1, 1)), labels=[np.inf])

    def test_test_split_must_be_complete(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros((1, 1)), labels=[0.0], test_inputs=np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "test_inputs, test_labels, match",
        [
            (np.zeros((5, 1)), np.zeros(3), "test inputs and labels must agree"),
            (np.zeros((0, 1)), np.zeros(0), "test inputs and labels must agree"),
            (np.zeros((3, 2)), np.zeros(3), "test inputs have dimension 2, train inputs 1"),
            (np.zeros((3, 1)), [0.0, np.nan, 1.0], "test labels must be finite"),
            (np.zeros((3, 1)), [0.0, np.inf, 1.0], "test labels must be finite"),
        ],
        ids=["count_mismatch", "empty", "input_dimension", "nan_label", "inf_label"],
    )
    def test_test_split_is_checked_as_the_train_split(self, test_inputs, test_labels, match):
        with pytest.raises(ValueError, match=match):
            Dataset(
                inputs=np.zeros((2, 1)),
                labels=[0.0, 1.0],
                test_inputs=test_inputs,
                test_labels=test_labels,
            )
