"""The verifier flags bad sweep rows, broken bound invariants and reruns
that do not reproduce, and a failing `catapult check`."""

import json
from pathlib import Path

import verify

SWEEP_HEADER = (
    "eta,eta_lambda0,status,phase,steps_taken,final_eta_lambda_max,weight_ratio,"
    "train_loss_final,test_loss_final,generalization_gap,accuracy,message"
)


def _bounds_payload(lambda0=2.0, omega=0.5, power_tol=1e-6):
    # One-datapoint pure model: zeta**2 * lambda_max_psi_sq = 0.5 exactly.
    return {
        "lambda_max_h0": lambda0,
        "reports": [
            {
                "method": "single_datapoint",
                "catapult_lower": 1.0,
                "inputs_digest": {"zeta": 0.5, "lambda_max_psi_sq": 2.0},
                "notes": [],
            },
            {
                "method": "omega",
                "catapult_lower": 1.0,
                "inputs_digest": {
                    "lambda_max_omega": omega,
                    "power_tol": power_tol,
                    "power_iterations": 10000,
                },
                "notes": [],
            },
        ],
        "skipped": [],
    }


def _write_outputs(directory: Path, bounds=None, rows=None) -> Path:
    directory.mkdir(parents=True)
    rows = rows or [
        "0.5,1,ok,lazy,3,1.0,0.9,1e-9,,,,",
        "2.25,4.5,ok,divergent,7,,,,,,,",
    ]
    (directory / "sweep.csv").write_text("\n".join([SWEEP_HEADER, *rows]) + "\n")
    (directory / "bounds.json").write_text(json.dumps(bounds or _bounds_payload()))
    (directory / "trajectory_000.csv").write_text("step,loss\n0,1.0\n")
    return directory


def _failed(ops):
    return [op for op in ops if not op.ok]


def test_clean_outputs_pass(tmp_path):
    _write_outputs(tmp_path / "rep_0" / "cfg")
    ops, reproducible = verify.verify_outputs([tmp_path / "rep_0"], ["cfg"])
    assert reproducible
    assert len(ops) == 4  # two rows, two reports
    assert _failed(ops) == []


def test_hand_corrupted_bounds_json_is_flagged(tmp_path):
    out = _write_outputs(tmp_path / "rep_0" / "cfg")
    payload = json.loads((out / "bounds.json").read_text())
    payload["reports"][0]["catapult_lower"] = 16.0
    (out / "bounds.json").write_text(json.dumps(payload))

    ops, _ = verify.verify_outputs([tmp_path / "rep_0"], ["cfg"])
    failed = _failed(ops)
    assert [op.id for op in failed] == ["cfg/bounds/single_datapoint#0"]
    assert "= 32.0, expected 2" in failed[0].reason
    assert "4^2" in failed[0].reason


def test_product_tolerance_is_relative_1e_12(tmp_path):
    payload = _bounds_payload(lambda0=2.0 * (1 + 1e-14))
    _write_outputs(tmp_path / "ok" / "cfg", bounds=payload)
    assert _failed(verify.check_bounds(tmp_path / "ok" / "cfg" / "bounds.json", "cfg")) == []
    payload = _bounds_payload(lambda0=2.0 * (1 + 1e-11))
    _write_outputs(tmp_path / "bad" / "cfg", bounds=payload)
    assert len(_failed(verify.check_bounds(tmp_path / "bad" / "cfg" / "bounds.json", "cfg"))) == 2


def test_omega_beyond_power_tol_is_flagged(tmp_path):
    within = _bounds_payload(omega=0.5 * (1 - 5e-7))
    beyond = _bounds_payload(omega=0.5 * (1 - 5e-6))
    _write_outputs(tmp_path / "within" / "cfg", bounds=within)
    _write_outputs(tmp_path / "beyond" / "cfg", bounds=beyond)
    assert _failed(verify.check_bounds(tmp_path / "within" / "cfg" / "bounds.json", "c")) == []
    failed = _failed(verify.check_bounds(tmp_path / "beyond" / "cfg" / "bounds.json", "c"))
    assert [op.id for op in failed] == ["c/bounds/omega#1"]
    assert "beyond power_tol" in failed[0].reason


def test_non_identical_rerun_fails_every_operation(tmp_path):
    _write_outputs(tmp_path / "rep_0" / "cfg")
    second = _write_outputs(tmp_path / "rep_1" / "cfg")
    (second / "trajectory_000.csv").write_text("step,loss\n0,1.0000000000000002\n")

    ops, reproducible = verify.verify_outputs(
        [tmp_path / "rep_0", tmp_path / "rep_1"], ["cfg"]
    )
    assert not reproducible
    assert len(_failed(ops)) == len(ops) == 4
    assert "trajectory_000.csv" in ops[0].reason


def test_missing_file_in_rerun_counts_as_difference(tmp_path):
    _write_outputs(tmp_path / "rep_0" / "cfg")
    second = _write_outputs(tmp_path / "rep_1" / "cfg")
    (second / "trajectory_000.csv").unlink()
    assert verify.differing_files(tmp_path / "rep_0" / "cfg", second) == ["trajectory_000.csv"]


def test_failed_and_non_finite_rows_are_flagged(tmp_path):
    rows = [
        "0.5,1,failed,,,,,,,,,ValueError: boom",
        "1.0,2,ok,catapult,9,nan,0.9,1e-9,,,,",
        "1.5,3,ok,non_converged,100,1.0,0.9,0.1,,,,",
    ]
    out = _write_outputs(tmp_path / "rep_0" / "cfg", rows=rows)
    ops = verify.check_sweep(out / "sweep.csv", "cfg")
    assert [op.ok for op in ops] == [False, False, True]
    assert "status=failed" in ops[0].reason
    assert "final_eta_lambda_max" in ops[1].reason


def test_failing_catapult_check_is_one_failed_operation():
    stdout = (
        "pass  zero_coupling_kernel_frozen: residual 0 (threshold 0)\n"
        "FAIL  linearized_predictor_exact_at_zero_coupling: residual 2.2e-09 "
        "(threshold 1e-09)\n"
    )
    assert verify.check_selfcheck(0, "pass  a: residual 0 (threshold 0)\n").ok
    op = verify.check_selfcheck(2, stdout)
    assert (op.id, op.ok) == ("catapult_check", False)
    assert op.reason == (
        "exit 2: linearized_predictor_exact_at_zero_coupling: residual 2.2e-09 (threshold 1e-09)"
    )
