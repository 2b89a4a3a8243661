"""``tools/codelines.py``: code lines of one source, and the report on two trees."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import codelines  # noqa: E402

FIXTURE = '''"""A module docstring,
on two lines."""

import math


# a comment line
def scaled(x):
    """A function docstring."""
    text = """a string
    that is no docstring"""
    total = x + \\
        math.pi
    return (total *
            len(text))
'''


def test_code_lines_of_the_fixture():
    assert codelines.code_lines(FIXTURE) == 8  # lines 4, 8 and 10 to 15


def test_code_lines_leave_out_what_is_not_code():
    assert codelines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert codelines.code_lines("x = 1\n") == 1


def test_report_on_two_trees(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "pkg").mkdir(parents=True)
    (new / "pkg").mkdir(parents=True)
    (old / "pkg" / "mod.py").write_text(FIXTURE)
    (new / "pkg" / "mod.py").write_text(FIXTURE + "y = 2\n")
    (old / "gone.py").write_text("a = 1\nb = 2\n")
    (new / "added.py").write_text('"""Docstring."""\nc = 3\n')
    assert codelines.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "added.py        -      1     +1",
        "gone.py         2      -     -2",
        "pkg/mod.py      8      9     +1",
        "total          10     10     +0",
    ]


def test_report_wants_two_directories(capsys):
    assert codelines.main(["only-one"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "python3 tools/codelines.py OLD_DIR NEW_DIR\n")
