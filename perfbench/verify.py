"""Output verifier: turns a run's output directories into pass/fail operations.

An operation is one swept rate (a `sweep.csv` row) or one bound report (an
entry of `bounds.json`).  It fails when

* its sweep row is not `status=ok`, or a converged row (lazy or catapult)
  lacks finite final values;
* its bound report breaks `catapult_lower * lambda_max_h0 == 2` to a relative
  1e-12, where `lambda_max_h0` is the top eigenvalue of the kernel the
  simulator measures on the dataset;
* on a one-datapoint pure model, its omega report's `lambda_max_omega` is
  farther than the report's `power_tol` (relative) from the exact value
  zeta**2 * lambda_max_psi_sq, which the single-datapoint report carries;
* a repetition of the same config did not reproduce the first one byte for
  byte (then every operation of that config fails).

`catapult check` is one more operation, which fails when the command exits
non-zero; its reason names every self-check that failed.

Pure Python, no numpy: the orchestrator imports it without loading BLAS.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

PRODUCT_RTOL = 1e-12
CONVERGED_PHASES = ("lazy", "catapult")
KNOWN_PHASES = CONVERGED_PHASES + ("divergent", "non_converged")
FINAL_COLUMNS = ("final_eta_lambda_max", "weight_ratio", "train_loss_final")
OPTIONAL_FINAL_COLUMNS = ("test_loss_final", "generalization_gap", "accuracy")


@dataclass
class Operation:
    id: str
    ok: bool = True
    reason: str = ""

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reason = f"{self.reason}; {reason}" if self.reason else reason


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_sweep(path: Path, label: str) -> list[Operation]:
    """One operation per sweep row."""
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    ops = []
    for row in rows:
        op = Operation(f"{label}/sweep/eta_lambda0={row['eta_lambda0']}")
        if row["status"] != "ok":
            op.fail(f"status={row['status']}: {row.get('message', '')}")
        phase = row["phase"]
        if phase not in KNOWN_PHASES:
            op.fail(f"unknown phase {phase!r}")
        if phase in CONVERGED_PHASES:
            bad = [c for c in FINAL_COLUMNS if not _finite(row[c])]
            bad += [c for c in OPTIONAL_FINAL_COLUMNS if row.get(c) and not _finite(row[c])]
            if bad:
                op.fail(f"converged ({phase}) but non-finite {', '.join(bad)}")
        ops.append(op)
    return ops


def _product_reason(product: float) -> str:
    reason = f"catapult_lower * lambda_max_h0 = {product!r}, expected 2"
    ratio = product / 2.0
    root = round(math.sqrt(ratio)) if ratio > 0 else 0
    if root > 1 and math.isclose(ratio, root * root, rel_tol=1e-9):
        reason += (
            f" (ratio {root * root} = {root}^2: the window's h0 is the kernel "
            f"at input 1, not at the datapoint of scale {root})"
        )
    return reason


def check_bounds(path: Path, label: str) -> list[Operation]:
    """One operation per bound report."""
    payload = json.loads(path.read_text())
    lambda0 = float(payload["lambda_max_h0"])
    reports = payload["reports"]
    ops = []
    for index, report in enumerate(reports):
        op = Operation(f"{label}/bounds/{report['method']}#{index}")
        product = float(report["catapult_lower"]) * lambda0
        if not abs(product - 2.0) <= PRODUCT_RTOL * 2.0:
            op.fail(_product_reason(product))
        ops.append(op)

    single = [r for r in reports if r["method"] == "single_datapoint"]
    exact = None
    if single and "lambda_max_psi_sq" in single[0]["inputs_digest"]:
        digest = single[0]["inputs_digest"]
        exact = float(digest["zeta"]) ** 2 * float(digest["lambda_max_psi_sq"])
    for op, report in zip(ops, reports):
        if report["method"] != "omega" or exact is None:
            continue
        digest = report["inputs_digest"]
        value = float(digest["lambda_max_omega"])
        tol = float(digest["power_tol"])
        off = abs(value - exact) / exact
        if not off <= tol:
            op.fail(
                f"lambda_max_omega {value!r} is {off:.3g} (relative) from the exact "
                f"zeta^2 * lambda_max_psi_sq {exact!r}, beyond power_tol {tol:g} "
                f"after {digest['power_iterations']} iterations"
            )
    return ops


def check_selfcheck(returncode: int, stdout: str) -> Operation:
    """One operation for a `catapult check` run, from its exit code and the
    `FAIL  <name>: residual ...` lines it prints."""
    op = Operation("catapult_check")
    if returncode != 0:
        failing = [
            line.split(None, 1)[1] for line in stdout.splitlines() if line.startswith("FAIL")
        ]
        op.fail(f"exit {returncode}: " + ("; ".join(failing) or "no FAIL line printed"))
    return op


def differing_files(first: Path, other: Path) -> list[str]:
    """Names of files that differ between two output directories (including
    files present in only one of them)."""
    names = {p.name for p in first.iterdir()} | {p.name for p in other.iterdir()}
    return sorted(
        name
        for name in names
        if not (first / name).is_file()
        or not (other / name).is_file()
        or (first / name).read_bytes() != (other / name).read_bytes()
    )


def verify_outputs(rep_dirs: list[Path], labels: list[str]) -> tuple[list[Operation], bool]:
    """Check the first repetition's outputs and compare every later repetition
    with it byte for byte.  Returns the operations and whether every
    repetition reproduced the first."""
    ops: list[Operation] = []
    reproducible = True
    for label in labels:
        first = rep_dirs[0] / label
        config_ops = check_sweep(first / "sweep.csv", label)
        config_ops += check_bounds(first / "bounds.json", label)
        for rep in rep_dirs[1:]:
            differ = differing_files(first, rep / label)
            if differ:
                reproducible = False
                for op in config_ops:
                    op.fail(f"{rep.name} differs from {rep_dirs[0].name} in {', '.join(differ)}")
        ops.extend(config_ops)
    return ops, reproducible
