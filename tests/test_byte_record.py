"""The CLI prints the committed bytes: ``tools/byte_report.py`` run on ``src``
gives the record in ``tests/data/byte_record.json``, job by job.

The record holds in the environment it names (Python, numpy, the BLAS and the
CPU kernels OpenBLAS chose).  In another environment the test is skipped,
naming both, and never passes on bytes it did not compare.  After a change
that is meant to move bytes, regenerate the record with

    python3 tools/byte_report.py src > tests/data/byte_record.json
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "data" / "byte_record.json"


def differences(old: dict, new: dict) -> list[str]:
    """Each job and field in which two records' jobs differ, with stderr old -> new."""
    lines = [f"{name}: only in the {where} record" for where, a, b in (("committed", old, new), ("fresh", new, old))
             for name in a if name not in b]
    for name in old.keys() & new.keys():
        lines += [f"{name}: {field} {was!r} -> {new[name][field]!r}" for field, was in old[name].items()
                  if new[name][field] != was]
    return sorted(lines)


def test_cli_bytes_match_the_committed_record():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_report.py"), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    committed, fresh = json.loads(RECORD.read_text(encoding="utf-8")), json.loads(run.stdout)
    if fresh["environment"] != committed["environment"]:
        pytest.skip(f"the record was made in {committed['environment']}, this run is in {fresh['environment']}")
    if lines := differences(committed["jobs"], fresh["jobs"]):
        pytest.fail("\n".join(lines), pytrace=False)
