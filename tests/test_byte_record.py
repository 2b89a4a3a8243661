"""The CLI prints the committed bytes: ``tools/byte_report.py`` run on ``src``
gives the record in ``tests/data/byte_record.json``, job by job.

Each job's exit code, stderr, and the stdout and CSV digests outside its
``blas`` key hold in any environment; one test checks them again under the
Sandybridge kernels of OpenBLAS, so that split is measured, not assumed.  The
digests under ``blas`` (``analyze`` and ``tables`` stdout, the CSV's
``envelope`` column) come from an SVD whose last bits follow the CPU kernels
OpenBLAS picks, so they hold in the environment the record names (Python,
numpy, the BLAS and those kernels); elsewhere that test is skipped, naming
both, and never passes on bytes it did not compare.  After a change that is
meant to move bytes, regenerate the record with

    python3 tools/byte_report.py src > tests/data/byte_record.json
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "data" / "byte_record.json"
COMMITTED = json.loads(RECORD.read_text(encoding="utf-8"))


def byte_report(**env) -> dict:
    """The record of ``src``, made in a child process whose two passes must agree."""
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_report.py"), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=300, env=os.environ | env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def fresh() -> dict:
    return byte_report()


def differences(old: dict, new: dict, blas: bool = False) -> list[str]:
    """Each job and field in which two records' jobs differ, with old -> new: every
    field but ``blas``, or with ``blas`` that one."""
    lines = [f"{name}: only in the {where} record" for where, a, b in (("committed", old, new), ("fresh", new, old))
             for name in a if name not in b]
    for name in old.keys() & new.keys():
        lines += [f"{name}: {field} {was!r} -> {new[name][field]!r}" for field, was in old[name].items()
                  if (field == "blas") == blas and new[name][field] != was]
    return sorted(lines)


def expect_no(lines: list[str]) -> None:
    if lines:
        pytest.fail("\n".join(lines), pytrace=False)


def test_cli_bytes_match_the_committed_record(fresh):
    expect_no(differences(COMMITTED["jobs"], fresh["jobs"]))


def test_blas_decided_bytes_match_in_the_recorded_environment(fresh):
    if fresh["environment"] != COMMITTED["environment"]:
        pytest.skip(f"the record was made in {COMMITTED['environment']}, this run is in {fresh['environment']}")
    expect_no(differences(COMMITTED["jobs"], fresh["jobs"], blas=True))


def test_bytes_outside_blas_hold_on_other_cpu_kernels(fresh):
    openblas = fresh["environment"]["openblas"]
    if openblas is None or "DYNAMIC_ARCH" not in openblas.split() or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"OPENBLAS_CORETYPE cannot pick x86-64 kernels here: {openblas} on {platform.machine()}")
    other = byte_report(OPENBLAS_CORETYPE="Sandybridge")
    assert "Sandybridge" in other["environment"]["openblas"].split(), other["environment"]
    expect_no(differences(COMMITTED["jobs"], other["jobs"]))
