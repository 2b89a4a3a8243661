"""Fuzzing the CLI's JSON inputs: any document ends in exit 0, 2 or 3, never a traceback."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from corruptlab.cli import main  # noqa: E402
from corruptlab.errors import SizeGuardExceeded, guard  # noqa: E402

from helpers import DOCUMENTS, patch_guards, role_argv  # noqa: E402


def scalars(integers):
    """A JSON scalar, with integers drawn from ``integers``."""
    return (st.none() | st.booleans() | integers | st.floats()
            | st.text(max_size=4) | st.sampled_from(["-1", "+1", "t0", "a0", "binary_label_noise"]))


# Integers of any size.  Every CLI path refuses sizes past its guards, but a
# large integer under a guard would make an example slow, so the test lowers
# every guard's bound to ``_BOUND`` through the one guard helper: each
# example's work is bounded by its counts, not by a clock.
_SCALARS = scalars(st.integers())

#: The most any guard admits while the documents are fuzzed.
_BOUND = 10**4


def _low(count, bound, what, error=SizeGuardExceeded):
    guard(count, min(bound, _BOUND), what, error)


def _paths(node, prefix=()):
    """Every path to a value inside a valid document."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_KEYS = st.sampled_from(sorted({path[-1] for doc in DOCUMENTS.values() for path in _paths(doc)
                                if path and isinstance(path[-1], str)})) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10)


@st.composite
def _mutated(draw, role):
    """A valid document with the value at one path replaced or deleted."""
    doc = json.loads(json.dumps(DOCUMENTS[role]))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(JSON_VALUES)
    return doc


@pytest.mark.parametrize("role", DOCUMENTS)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_document_exits_cleanly(role, data, tmp_path, capsys, monkeypatch):
    patch_guards(monkeypatch, _low)
    document = data.draw(JSON_VALUES | _mutated(role))
    path = tmp_path / f"{role}.json"
    path.write_text(json.dumps(document))
    code = main(role_argv(role, tmp_path, str(path)))
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") == (code != 0), err


_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_it():
    pass
"""


def test_failing_property_shows_its_example_and_the_session_goes_on(tmp_path):
    # under the repo's warning filters, hypothesis's failure report must not end the session
    (tmp_path / "test_probe.py").write_text(_PROBE)
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ini), "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in run.stdout and "Falsifying example" in run.stdout, run.stdout + run.stderr
