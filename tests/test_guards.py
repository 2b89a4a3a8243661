"""Every size guard goes through ``errors.guard``, and runs only after the
input it counts is checked: bad input exits 2 even past a guard."""

import ast
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corruptlab import catalog, cli, divergence, planner, reconstruct
from corruptlab.cli import main
from corruptlab.errors import CapacityGuardExceeded, SizeGuardExceeded, guard

from helpers import patch_guards
from test_cli import MALFORMED, REFUSED, document_argv

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import byte_report  # noqa: E402

GUARD_EXCEPTIONS = {"SizeGuardExceeded", "CapacityGuardExceeded"}


def test_no_module_but_errors_constructs_a_guard_exception():
    built = []
    for path in sorted((ROOT / "src" / "corruptlab").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
            name = getattr(target, "id", getattr(target, "attr", None))
            if name in GUARD_EXCEPTIONS:
                built.append(f"{path.name}:{node.lineno}")
    assert built == []


class TestHelper:
    def test_admits_its_bound_and_refuses_one_past(self):
        guard(4, 4, "entries")
        with pytest.raises(SizeGuardExceeded, match="^entries 5 exceeds guard 4$"):
            guard(5, 4, "entries")

    def test_raises_the_error_it_is_given(self):
        with pytest.raises(CapacityGuardExceeded, match="^scaled capacity 7/2 exceeds guard 3$"):
            guard(Fraction(7, 2), 3, "scaled capacity", CapacityGuardExceeded)

    def test_shows_a_long_count_by_its_power_of_ten(self):
        with pytest.raises(SizeGuardExceeded, match=r"^sample size ~1e400 exceeds guard 10$"):
            guard(10**400, 10, "sample size")

    def test_every_module_with_a_guard_calls_it(self, monkeypatch):
        assert patch_guards(monkeypatch, guard) == [
            "corruptlab.catalog", "corruptlab.cli", "corruptlab.kernels", "corruptlab.planner", "corruptlab.simlab"]


class Heavy(Exception):
    """Raised in place of a command's heavy work."""


def _heavy(*args, **kwargs):
    raise Heavy


#: The work each command does once its input is checked and counted: the
#: stacked statistics of ``analyze`` and ``tables`` (which first builds its
#: kernels), the pair pass of ``lecam``, the curves of ``simulate``.  The
#: plan's DP is held by the planner's own guards below.
HEAVY_WORK = [(catalog, "build_kernels"), (reconstruct, "statistics"), (divergence, "alpha"), (cli, "risk_curve"),
              (cli, "fastrate_curve")]


@pytest.fixture(scope="module")
def edge_directory(tmp_path_factory):
    """The byte record's edge documents, written once."""
    edge = tmp_path_factory.mktemp("edge")
    for name, document in byte_report.EDGE_DOCUMENTS.items():
        (edge / name).write_text(json.dumps(document))
    return edge


def _argv(case, directory, edge):
    source, name = case.split("/", 1)
    if source == "malformed":
        return document_argv(*MALFORMED[name], directory)
    if source == "refused":
        return REFUSED[name][1](directory)
    return [str(edge / a) if a.endswith((".json", ".csv")) else a for a in byte_report.EDGE_JOBS[name]]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except Heavy:
        code = "heavy work"
    capsys.readouterr()
    return code


CASES = [*(f"malformed/{c}" for c in MALFORMED), *(f"refused/{c}" for c in REFUSED),
         *(f"edge/{c}" for c in byte_report.EDGE_JOBS)]


def _guards_off(monkeypatch):
    """Switch every guard off.  The class count and the scaled capacity size
    the next step itself (``catalog.spaces`` lists the classes' labels to
    check a config's domain, and ``planner._scaled`` floors the capacity to
    an integer), so past their bounds the guards of ``catalog`` and
    ``planner`` raise :class:`Heavy`."""
    def off(count, bound, what, error=SizeGuardExceeded):
        pass

    def held(count, bound, what, error=SizeGuardExceeded):
        if count > bound:
            raise Heavy

    patch_guards(monkeypatch, off)
    monkeypatch.setattr(catalog, "guard", held)
    monkeypatch.setattr(planner, "guard", held)


@pytest.mark.parametrize("case", CASES)
def test_bad_input_exits_two_whatever_the_guards(case, tmp_path, capsys, monkeypatch, edge_directory):
    for module, name in HEAVY_WORK:
        monkeypatch.setattr(module, name, _heavy)
    argv = _argv(case, tmp_path, edge_directory)
    with monkeypatch.context() as off:
        _guards_off(off)
        unguarded = _outcome(argv, capsys)
    if unguarded == 2:
        assert _outcome(argv, capsys) == 2

