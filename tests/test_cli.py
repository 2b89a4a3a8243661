"""End-to-end CLI: JSON in, JSON/CSV out, stable bytes, exit codes."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import corruptlab
from corruptlab import bounds, catalog, cli, divergence, errors, kernels, planner, reconstruct, simlab
from corruptlab.cli import _grid, main
from corruptlab.kernels import Space, identity, kernel_to_json, replicate
from corruptlab.reconstruct import loss_to_json, zero_one_loss

from helpers import DOCUMENTS, asym_noise, binary_noise, role_argv


def grid_points(grid) -> list:
    """Every point of a ``tables --grid``, listed."""
    point, count = _grid(grid)
    return [point(k) for k in range(count)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def coin_problem_file(tmp_path):
    thetas = ["0.4", "0.6"]
    problem = {
        "thetas": thetas,
        "actions": [f"{a / 10:.1f}" for a in range(11)],
        "loss": [[abs(t - a / 10) for a in range(11)] for t in (0.4, 0.6)],
        "experiment": {
            "from": thetas,
            "to": ["tails", "heads"],
            "matrix": [[0.6, 0.4], [0.4, 0.6]],
        },
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def factorizations(monkeypatch):
    """Records, per stacked SVD call, the number of matrices it factorizes."""
    calls = []
    original = reconstruct.left_inverses

    def counting(matrices):
        calls.append(math.prod(matrices.shape[:-2]))
        return original(matrices)

    monkeypatch.setattr(reconstruct, "left_inverses", counting)
    return calls


@pytest.fixture
def simlab_calls(monkeypatch):
    """Counts calls of simlab's sample-level functions, of its stream constructor,
    of its reading of a new stream's state, of its re-keying of a stream and of
    its scoring pass, from a thread that holds no stream yet."""
    monkeypatch.setattr(simlab, "_streams", threading.local())
    calls = dict.fromkeys(("sample", "corrupt", "erm", "_generator", "_fresh_state", "_rekey", "_erm_rows"), 0)

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simlab, name, counting(name, getattr(simlab, name)))
    return calls


class TestAnalyze:
    def test_identity_kernel(self, tmp_path, capsys):
        path = write_json(tmp_path, "k.json", kernel_to_json(identity(Space(["a", "b"]))))
        code, out, _ = run(capsys, "analyze", "--kernel", path)
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == 1.0 and report["lambda"] == 0.0
        assert report["reconstructible"] is True and report["row_norm"] == 1.0

    def test_binary_noise_with_loss(self, tmp_path, capsys):
        t = asym_noise(0.1, 0.2)
        kpath = write_json(tmp_path, "k.json", kernel_to_json(t))
        lpath = write_json(tmp_path, "l.json", loss_to_json(zero_one_loss(t.domain)))
        code, out, _ = run(capsys, "analyze", "--kernel", kpath, "--loss", lpath)
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == pytest.approx(0.7, abs=1e-12)
        assert report["corrected_sup"] == pytest.approx(0.9 / 0.7, abs=1e-9)

    def test_non_reconstructible_reports_null(self, tmp_path, capsys):
        t = asym_noise(0.5, 0.5)
        kpath = write_json(tmp_path, "k.json", kernel_to_json(t))
        lpath = write_json(tmp_path, "l.json", loss_to_json(zero_one_loss(t.domain)))
        code, out, _ = run(capsys, "analyze", "--kernel", kpath, "--loss", lpath)
        assert code == 0
        report = json.loads(out)
        assert report["reconstructible"] is False
        assert report["row_norm"] is None and report["corrected_sup"] is None

    @pytest.mark.parametrize("matrix", [[[0.9, 0.2], [0.1, 0.8]], [[0.5, 0.5], [0.5, 0.5]]],
                             ids=["reconstructible", "not-reconstructible"])
    def test_loss_on_other_outcomes_exits_two(self, matrix, tmp_path, capsys):
        kpath = write_json(tmp_path, "k.json", {"from": ["p", "q"], "to": ["x", "y"], "matrix": matrix})
        lpath = write_json(tmp_path, "l.json", loss_to_json(zero_one_loss(Space(["p", "q", "r"]))))
        code, out, err = run(capsys, "analyze", "--kernel", kpath, "--loss", lpath)
        assert (code, out) == (2, "") and "loss outcomes" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--kernel", str(path))
        assert code == 2 and "JSON" in err

    def test_invalid_kernel_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "k.json",
                          {"from": ["a"], "to": ["x", "y"], "matrix": [[0.5], [0.4]]})
        code, _, err = run(capsys, "analyze", "--kernel", str(path))
        assert code == 2 and err

    @pytest.mark.parametrize("sigmas", [(0.1, 0.2), (0.5, 0.5)], ids=["reconstructible", "singular"])
    def test_one_elimination_per_kernel(self, sigmas, tmp_path, capsys, factorizations):
        t = asym_noise(*sigmas)
        kpath = write_json(tmp_path, "k.json", kernel_to_json(t))
        lpath = write_json(tmp_path, "l.json", loss_to_json(zero_one_loss(t.domain)))
        code, out, _ = run(capsys, "analyze", "--kernel", kpath, "--loss", lpath)
        assert code == 0 and factorizations == [1]
        assert json.loads(out)["reconstructible"] is (sigmas != (0.5, 0.5))

    def test_residual_failure_still_exits_two(self, tmp_path, capsys, monkeypatch):
        # full rank, so only the left-inverse residual check can refuse it
        monkeypatch.setattr(reconstruct, "RESIDUAL_ATOL", 0.0)
        path = write_json(tmp_path, "k.json", kernel_to_json(binary_noise(0.2)))
        code, out, err = run(capsys, "analyze", "--kernel", path)
        assert code == 2 and out == ""
        assert err.startswith("error: matrix is not a left inverse") and err.count("\n") == 1

    @pytest.mark.parametrize("t", [
        catalog.build_kernel(catalog.make_spec(catalog.SYMMETRIC, sigma=0.2, classes=3)),
        replicate(binary_noise(0.2), 6)], ids=["3x3", "64-columns"])
    def test_residual_is_checked_before_alpha(self, t, tmp_path, capsys, monkeypatch):
        # both checks fail: the residual's comes first, as in tables, so bad input exits 2, not 3
        monkeypatch.setattr(reconstruct, "RESIDUAL_ATOL", 0.0)
        monkeypatch.setattr(divergence, "ALPHA_CONSISTENCY_ATOL", -1.0)
        path = write_json(tmp_path, "k.json", kernel_to_json(t))
        code, out, err = run(capsys, "analyze", "--kernel", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: matrix is not a left inverse: residual ") and err.count("\n") == 1


def tables_one_point_at_a_time(family, grid, classes=3) -> str:
    """The stdout of ``tables``, the oracle of its stacked pass: per grid point
    a kernel, its pseudoinverse, alpha and the norms, each on its own."""
    names = catalog.FAMILIES[family].params
    lines = [cli.TABLE_HEADER]
    for sigma in grid_points(grid):
        spec = catalog.make_spec(family, **{key: classes if key == "classes" else sigma for key in names})
        kernel = catalog.build_kernel(spec)
        closed = catalog.closed_form_stats(spec)
        try:
            rec = reconstruct.pseudoinverse(kernel)
            numeric = (divergence.alpha(kernel), reconstruct.op_norm_row_sum(rec),
                       reconstruct.corrected_sup_norm(rec, zero_one_loss(kernel.domain)))
        except errors.RankDeficient:
            numeric = (divergence.alpha(kernel), None, None)
        cells = list(zip((closed.alpha, closed.row_norm, closed.corrected01_norm), numeric))
        diffs = [abs(c - n) for c, n in cells if c is not None and n is not None]
        lines.append(",".join([repr(float(sigma)),
                               *("" if v is None else repr(float(v)) for cell in cells for v in cell),
                               "" if not diffs else repr(max(diffs)),
                               "" if numeric[1] is not None else "non-reconstructible"]))
    return "\n".join(lines) + "\n"


def work_per_point(family, classes=3):
    """The work ``tables`` counts for one point of ``family``: m(m-1)k/2 + m^2 k for k x m kernels."""
    _, k, m = catalog.build_kernels(family, *(classes if key == "classes" else np.zeros(0)
                                              for key in catalog.FAMILIES[family].params))[2].shape
    return m * (m - 1) * k // 2 + m * m * k


class TestTables:
    def test_binary_symmetric_row(self, capsys):
        code, out, _ = run(capsys, "tables", "--family", "binary_label_noise",
                           "--grid", "0:0.45:0.05")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("param,alpha_closed,alpha_numeric")
        row = dict(zip(lines[0].split(","), [l for l in lines if l.startswith("0.2,")][0].split(",")))
        assert float(row["alpha_closed"]) == pytest.approx(0.6, abs=1e-12)
        assert float(row["alpha_numeric"]) == pytest.approx(0.6, abs=1e-12)
        assert float(row["max_abs_diff"]) <= 1e-12

    def test_partial_labels_numeric_only(self, capsys):
        code, out, _ = run(capsys, "tables", "--family", "partial_labels",
                           "--grid", "0.3:0.3:0.1")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["alpha_closed"]) == pytest.approx(0.7, abs=1e-12)
        assert cells["row_norm_closed"] == "" and cells["corrected01_closed"] == ""
        assert cells["row_norm_numeric"] != ""

    def test_non_reconstructible_point_flagged(self, capsys):
        code, out, _ = run(capsys, "tables", "--family", "binary_label_noise",
                           "--grid", "0.4:0.6:0.1")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        flagged = [r for r in rows if r.endswith("non-reconstructible")]
        assert len(flagged) == 1 and flagged[0].startswith("0.5,")
        clean_rows = [r for r in rows if not r.endswith("non-reconstructible")]
        assert all(r.split(",")[4] != "" for r in clean_rows)  # numeric row norm present

    def test_unknown_family_exits_two(self, capsys):
        for grid in ("0:0.4:0.1", "1:0:0.1"):  # the family is checked before an empty grid
            code, out, err = run(capsys, "tables", "--family", "nope", "--grid", grid)
            assert code == 2 and out == "" and "family" in err

    @pytest.mark.parametrize("family", catalog.FAMILIES)
    def test_every_family_sweeps_grid(self, family, capsys):
        code, out, err = run(capsys, "tables", "--family", family, "--grid", "0.1:0.3:0.1")
        lines = out.strip().split("\n")
        assert code == 0 and err == "" and lines[0] == cli.TABLE_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["0.1", "0.2", "0.3"]

    def test_bad_grid_exits_two(self, capsys):
        code, _, err = run(capsys, "tables", "--family", "partial_labels", "--grid", "0-1-2")
        assert code == 2

    @pytest.mark.parametrize("family", ["binary_label_noise", "symmetric_label_noise"])
    def test_one_elimination_per_grid_point(self, family, capsys, monkeypatch, factorizations):
        # one stacked factorization per chunk of the grid, holding each of its points once
        code, out, _ = run(capsys, "tables", "--family", family, "--grid", "0.4:0.6:0.1")
        assert code == 0 and factorizations == [len(out.strip().split("\n")) - 1] == [3]
        factorizations.clear()
        monkeypatch.setattr(cli, "STACK_CHUNK_ENTRIES", 2 * work_per_point(family) + 1)
        assert run(capsys, "tables", "--family", family, "--grid", "0.4:0.6:0.1")[:2] == (0, out)
        assert factorizations == [2, 1]

    @staticmethod
    def kernels_built(monkeypatch) -> list:
        """Records the number of kernels each stacked build makes."""
        built, original = [], catalog.build_kernels

        def counting(name, *values):
            stack = original(name, *values)
            built.append(len(stack[2]))
            return stack

        monkeypatch.setattr(catalog, "build_kernels", counting)
        return built

    @pytest.mark.parametrize("family, grid, classes", [
        *((family, "0:1:0.0005", 3) for family in catalog.FAMILIES),
        ("binary_label_noise", "0.45:0.55:0.0001", 3), ("symmetric_label_noise", "0.6:0.7:0.0001", 3),
        ("symmetric_label_noise", "0:1:0.001", 4), ("symmetric_label_noise", "0:1:0.001", 7),
        ("symmetric_label_noise", "0:1:0.1", 50), ("symmetric_label_noise", "0:1:0.05", 46),
        ("symmetric_label_noise", "0:1:0.1", 100)],
        ids=[*catalog.FAMILIES, "binary-about-0.5", "symmetric-about-2/3", "4-classes", "7-classes",
             "50-classes-screened", "46-classes-in-stacks-of-7", "100-classes"])
    def test_stacked_pass_prints_the_one_point_bytes(self, family, grid, classes, capsys):
        argv = ["tables", "--family", family, "--grid", grid, "--classes", str(classes)]
        assert run(capsys, *argv) == (0, tables_one_point_at_a_time(family, grid, classes), "")

    @pytest.mark.parametrize("family", catalog.FAMILIES)
    def test_chunks_print_the_bytes_of_one_pass(self, family, capsys, monkeypatch, factorizations):
        expected = tables_one_point_at_a_time(family, "0:1:0.01")
        factorizations.clear()
        monkeypatch.setattr(cli, "STACK_CHUNK_ENTRIES", 7 * work_per_point(family))
        assert run(capsys, "tables", "--family", family, "--grid", "0:1:0.01") == (0, expected, "")
        assert factorizations == [7] * 14 + [3]  # 101 points in chunks of 7

    @pytest.mark.parametrize("residual_atol, alpha_atol", [(0.0, 1e-9), (1e-9, -1.0), (0.0, -1.0)],
                             ids=["residual", "alpha", "both"])
    @pytest.mark.parametrize("grid, classes", [("0.1:0.3:0.1", 3), ("0:0.2:0.1", 50)],
                             ids=["3-classes", "50-classes"])
    def test_first_failing_point_raises_the_one_point_error(self, residual_atol, alpha_atol, grid, classes,
                                                            capsys, monkeypatch):
        monkeypatch.setattr(reconstruct, "RESIDUAL_ATOL", residual_atol)
        monkeypatch.setattr(divergence, "ALPHA_CONSISTENCY_ATOL", alpha_atol)
        with pytest.raises(errors.CorruptLabError) as caught:
            tables_one_point_at_a_time(catalog.SYMMETRIC, grid, classes)
        prefix = "error: " if isinstance(caught.value, errors.InvalidInput) else "numerical failure: "
        assert run(capsys, *_tables(grid, classes)) == (2 if prefix == "error: " else 3, "",
                                                         f"{prefix}{caught.value}\n")

    def test_work_guard_admits_its_bound(self, capsys, monkeypatch):
        built = self.kernels_built(monkeypatch)
        monkeypatch.setattr(cli, "TABLE_WORK_GUARD", 3 * work_per_point(catalog.SYMMETRIC, 10))
        code, out, err = run(capsys, *_tables("0:0.2:0.1", 10))
        assert (code, err, len(out.split("\n"))) == (0, "", 5) and sum(built) == 3

    @pytest.mark.parametrize("grid, classes", [("0:0.3:0.1", 10), ("0:0.99:0.00001", 1000)],
                             ids=["one-point-past", "99001-points-of-1000-classes"])
    def test_work_guard_refuses_past_its_bound(self, grid, classes, capsys, monkeypatch):
        built = self.kernels_built(monkeypatch)
        if classes == 10:
            monkeypatch.setattr(cli, "TABLE_WORK_GUARD", 3 * work_per_point(catalog.SYMMETRIC, 10))
        points, per_point = _grid(grid)[1], work_per_point(catalog.SYMMETRIC, classes)
        code, out, err = run(capsys, *_tables(grid, classes))
        assert (code, out) == (3, "") and sum(built) == 0
        assert err == (f"numerical failure: tables work, {points} points x {per_point} entries = "
                       f"{points * per_point} exceeds guard {cli.TABLE_WORK_GUARD}\n")

    @pytest.mark.parametrize("classes", [1, 1000])
    def test_empty_grid_prints_the_header_whatever_the_classes(self, classes, capsys):
        assert run(capsys, *_tables("1:0:0.1", classes)) == (0, cli.TABLE_HEADER + "\n", "")

    def test_every_point_is_checked_before_any_kernel(self, capsys, monkeypatch):
        # 1.1 is refused before any kernel is built, so before the residual check fails at 0.9
        built = self.kernels_built(monkeypatch)
        monkeypatch.setattr(reconstruct, "RESIDUAL_ATOL", 0.0)
        code, out, err = run(capsys, *_tables("0.9:1.2:0.1"))
        assert (code, out, err) == (2, "", "error: sigma must be in [0, 1], got 1.1\n") and sum(built) == 0
        code, out, err = run(capsys, *_tables("0.1:0.3:0.1"))
        assert (code, out) == (2, "") and err.startswith("error: matrix is not a left inverse: residual ")

    @pytest.mark.parametrize("grid, first", [("-0.5:1.5:0.1", -0.5), ("-0.5:0.5:0.1", -0.5), ("0.5:1.5:0.1", 1.1),
                                             ("0.5:1e6:1e-6", 1.000001)])
    def test_the_first_failing_point_raises(self, grid, first, capsys):
        # the last grid has ~10^12 points: its first failing point is found without listing them
        assert run(capsys, *_tables(grid)) == (2, "", f"error: sigma must be in [0, 1], got {first}\n")

    @pytest.mark.parametrize("grid", ["0:0.45:0.05", "0.4:0.6:0.1", "0.3:0.3:0.1", "1:0:0.1",
                                      "-1:1:0.03", "0.2:0.499999999999:0.1", "0.3:0.999999999999:0.1",
                                      "0.5:0.5:2e-17"])
    def test_grid_points_match_unbounded_loop(self, grid):
        # 0.2:0.49.. and 0.3:0.99.. end where (end - start) / step rounds one point
        # short; 0.5:0.5:2e-17 steps below the float spacing at 0.5, so points repeat
        start, end, step = map(float, grid.split(":"))
        expected, k = [], 0
        while start + k * step <= end + 1e-12:
            expected.append(round(start + k * step, 12))
            k += 1
        assert grid_points(grid) == expected

    @pytest.mark.parametrize("grid, last", [("0:0.5:1e-320", 0.500000000001), ("-1e308:1e308:1e-300", 1e308)])
    def test_grid_past_sys_maxsize_points_is_counted_in_the_reals(self, grid, last):
        # ~5e319 and ~2e608 points: neither the count nor its last index fits a double
        start, end, step = (Fraction(float(p)) for p in grid.split(":"))
        point, count = _grid(grid)
        assert count == (Fraction(float(end) + 1e-12) - start) // step + 1 > sys.maxsize
        assert (point(0), point(count - 1)) == (float(start), last)


class TestPlan:
    def test_plan_report(self, tmp_path, capsys):
        offers = [
            {"name": "A", "alpha": 0.9, "cost": {"num": 3, "den": 1}, "corrected_sup": 2.0},
            {"name": "B", "alpha": 0.5, "cost": {"num": 1, "den": 1}, "corrected_sup": 1.0},
        ]
        path = write_json(tmp_path, "offers.json", offers)
        code, out, _ = run(capsys, "plan", "--offers", path, "--budget", "10")
        assert code == 0
        report = json.loads(out)
        assert report["greedy"]["counts"] == {"B": 10}
        assert report["exact"]["objective"] == pytest.approx(5.0, abs=1e-12)
        assert report["ranking_lower"] == ["B", "A"]
        assert report["ranking_upper"] == ["B", "A"]

    def test_missing_sup_reports_null_upper(self, tmp_path, capsys):
        offers = [{"name": "A", "alpha": 0.9, "cost": {"num": 1, "den": 1}}]
        path = write_json(tmp_path, "offers.json", offers)
        code, out, _ = run(capsys, "plan", "--offers", path, "--budget", "5")
        assert code == 0
        assert json.loads(out)["ranking_upper"] is None

    def test_fractional_budget(self, tmp_path, capsys):
        offers = [{"name": "A", "alpha": 0.7, "cost": {"num": 1, "den": 2}}]
        path = write_json(tmp_path, "offers.json", offers)
        code, out, _ = run(capsys, "plan", "--offers", path, "--budget", "7/2")
        assert code == 0
        assert json.loads(out)["exact"]["counts"] == {"A": 7}

    def test_bad_budget_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "offers.json",
                          [{"name": "A", "alpha": 0.7, "cost": {"num": 1, "den": 1}}])
        code, _, err = run(capsys, "plan", "--offers", path, "--budget", "ten")
        assert code == 2

    def test_unknown_offer_key_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "offers.json",
                          [{"name": "B", "alpha": 0.5, "cost": 1, "corected_sup": 9.0}])
        code, out, err = run(capsys, "plan", "--offers", path, "--budget", "10")
        assert code == 2 and out == ""
        assert err == ('error: offer 0 has unknown key "corected_sup"; '
                       'known: alpha, corrected_sup, cost, name\n')

    @pytest.mark.parametrize("budget, shown", [("-3", "-3"), ("-0.5" + "0" * 100, "-1/2"),
                                               ("-1e100000", "-~1e100000"), ("-1e10000000", "-~1e10000000"),
                                               ("-2.5e10000000", "-~2e10000000")])
    def test_negative_budget_message(self, budget, shown, tmp_path, capsys):
        # past the decimal context's exponents the budget is never made a Fraction; the words stay
        path = write_json(tmp_path, "offers.json", DOCUMENTS["offers"])
        code, out, err = run(capsys, "plan", "--offers", path, f"--budget={budget}")
        assert (code, out, err) == (2, "", f"error: budget must be >= 0, got {shown}\n")

    def test_tiny_budget_is_fast(self, tmp_path, capsys):
        # 1e-999999 is 0 in the costs' unit; reading the budget is the only work that grows with its digits
        path = write_json(tmp_path, "offers.json", DOCUMENTS["offers"])
        start = time.perf_counter()
        code, out, _ = run(capsys, "plan", "--offers", path, "--budget", "1e-999999")
        elapsed = time.perf_counter() - start
        assert (code, out) == run(capsys, "plan", "--offers", path, "--budget", "1e-5")[:2]
        assert code == 0 and elapsed < 1.0

    def test_tiny_budget_builds_no_power_of_its_exponent(self, tmp_path, capsys):
        # below one unit of the costs, 1/12, a decimal plans as 0, at any exponent, and below
        # -1e-30 it is refused with the planner's message, in far less time than Fraction
        # takes to build its denominator 10**999999
        path = write_json(tmp_path, "offers.json", [{"name": "A", "alpha": 0.5, "cost": {"num": 1, "den": 12}},
                                                    {"name": "B", "alpha": 0.7, "cost": {"num": 5, "den": 12}}])
        start = time.perf_counter()
        Fraction("1e-999999")
        fraction_s = time.perf_counter() - start
        zero = run(capsys, "plan", "--offers", path, "--budget", "0")
        refused = "error: budget must be >= 0, got -~1e{}\n"
        for budget, expected in {"1e-999999": zero, "0e-999999": zero, "12e-999990": zero, "1e-10000000": zero,
                                 "1e-999999999999999999": zero,
                                 "-1e-999999": (2, "", refused.format(-999999)),
                                 "-12e-999990": (2, "", refused.format(-999989))}.items():
            start = time.perf_counter()
            result = run(capsys, "plan", "--offers", path, f"--budget={budget}")
            plan_s = time.perf_counter() - start
            assert result == expected
            assert plan_s < fraction_s / 4, (budget, plan_s, fraction_s)

    @pytest.mark.parametrize("budget", ["1e-5", "0.00001", "0.08", "0.0833", "0.08333333333333334", "0.084",
                                        "0.25", "25e-2", "1e-1", "-0.0", "0e-50", "3.5"])
    def test_decimal_budget_plans_as_its_ratio(self, budget, tmp_path, capsys):
        # a ratio skips the decimal reading, so the two agree also near one unit, 1/12
        path = write_json(tmp_path, "offers.json", [{"name": "A", "alpha": 0.5, "cost": {"num": 1, "den": 12}},
                                                    {"name": "B", "alpha": 0.7, "cost": {"num": 5, "den": 12}}])
        ratio = Fraction(budget)
        result = run(capsys, "plan", "--offers", path, "--budget", budget)
        assert result == run(capsys, "plan", "--offers", path, "--budget", f"{ratio.numerator}/{ratio.denominator}")
        assert result[0] == 0

    @pytest.mark.parametrize("budget, rounded", [("10.000001", "10"), ("12.3456789", "12"), ("999.99999", "999")])
    def test_budget_digits_past_the_costs_unit(self, budget, rounded, tmp_path, capsys):
        # the budget is read in the costs' unit and rounded down; scaled by its own
        # denominator it would pass the capacity guard
        path = write_json(tmp_path, "offers.json", [{"name": "A", "alpha": 0.5, "cost": 3},
                                                    {"name": "B", "alpha": 0.7, "cost": 5}])
        code, out, err = run(capsys, "plan", "--offers", path, "--budget", budget)
        assert (code, out, err) == run(capsys, "plan", "--offers", path, "--budget", rounded)
        assert code == 0

    def test_capacity_guard_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path, "offers.json",
                          [{"name": "A", "alpha": 0.7, "cost": {"num": 1, "den": 10**6}}])
        code, _, err = run(capsys, "plan", "--offers", path, "--budget", "100")
        assert code == 3 and "capacity" in err.lower()


    @pytest.mark.parametrize("past", [0, 1], ids=["at-the-bound", "one-past"])
    def test_work_guard_counts_width_times_passes(self, past, tmp_path, capsys, monkeypatch):
        # costs 41, 43 and 47 at density 1/64: W = 40 * 47 = 1,880 over 3 passes
        path = write_json(tmp_path, "offers.json", [{"name": n, "alpha": c / 64, "cost": c}
                                                    for n, c in (("b", 41), ("c", 43), ("d", 47))])
        monkeypatch.setattr(planner, "PLAN_WORK_GUARD", 1880 * 3 - past)
        if past:
            monkeypatch.setattr(planner, "_best", lambda *args: pytest.fail("the DP ran past the guard"))
        code, out, err = run(capsys, "plan", "--offers", path, "--budget", "1999")
        if past:
            assert (code, out, err) == (3, "", "numerical failure: exact-plan work, width 1880 x 3 offers = 5640 "
                                                "exceeds guard 5639\n")
        else:
            assert (code, err) == (0, "") and json.loads(out)["exact"]["spend"] == {"num": 1999, "den": 1}


class TestSimulate:
    @pytest.fixture
    def config_file(self, tmp_path):
        config = {
            "clean": {"space": ["-1", "+1"], "weights": [0.3, 0.7]},
            "loss": loss_to_json(zero_one_loss(Space(["-1", "+1"]))),
            "corruption": {"family": "binary_label_noise",
                           "params": {"sigma_neg": 0.25, "sigma_pos": 0.25}},
            "sample_sizes": [25, 50],
            "trials": 20,
            "seed": 777,
        }
        return write_json(tmp_path, "config.json", config)

    def test_writes_csv(self, tmp_path, capsys, config_file):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "simulate", "--config", config_file, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "n,mean_excess_risk,std_error,envelope"
        assert len(lines) == 3

    def test_fast_rate_mode(self, tmp_path, capsys):
        config = {
            "clean": {"space": ["-1", "+1"], "weights": [0.0, 1.0]},
            "loss": loss_to_json(zero_one_loss(Space(["-1", "+1"]))),
            "corruption": {"family": "binary_label_noise",
                           "params": {"sigma_neg": 0.2, "sigma_pos": 0.2}},
            "sample_sizes": [2, 4, 8],
            "trials": 50,
            "seed": 101,
        }
        path = write_json(tmp_path, "fast.json", config)
        out_path = tmp_path / "fast.csv"
        code, out, _ = run(capsys, "simulate", "--config", path,
                           "--out", str(out_path), "--mode", "fast-rate")
        assert code == 0
        report = json.loads(out)
        assert "mean_ratio" in report and out_path.exists()

    def simulate_counting(self, mode, sizes, trials, tmp_path, capsys, simlab_calls):
        config = DOCUMENTS["config"] | {"clean": {"space": ["-1", "+1"], "weights": [0.0, 1.0]},
                                        "sample_sizes": sizes, "trials": trials}
        path = write_json(tmp_path, "config.json", config)
        code, _, err = run(capsys, "simulate", "--config", path, "--out", str(tmp_path / "out.csv"),
                           "--mode", mode)
        assert code == 0, err
        return simlab_calls

    @pytest.mark.parametrize("mode", ["standard", "fast-rate"])
    def test_draws_counts_not_samples(self, mode, tmp_path, capsys, simlab_calls):
        # the thread's one generator made and its state read at its first curve, no stream of the
        # curve's own, re-keyed once per (n, trial) cell, no outcome drawn one by one, and one
        # scoring pass for the 21 cells of all three sample sizes
        calls = self.simulate_counting(mode, [10, 20, 40], 7, tmp_path, capsys, simlab_calls)
        assert calls == {"sample": 0, "corrupt": 0, "erm": 0, "_generator": 0, "_fresh_state": 1, "_rekey": 3 * 7,
                         "_erm_rows": 1}

    @pytest.mark.parametrize("mode", ["standard", "fast-rate"])
    def test_scores_once_per_chunk(self, mode, tmp_path, capsys, simlab_calls):
        # a sample size of more cells than SCORE_CHUNK_ENTRIES allows at 2 outcomes and 2 actions
        # is drawn and scored in two passes
        trials = simlab.SCORE_CHUNK_ENTRIES // 2 + 1
        calls = self.simulate_counting(mode, [10], trials, tmp_path, capsys, simlab_calls)
        assert calls == {"sample": 0, "corrupt": 0, "erm": 0, "_generator": 0, "_fresh_state": 1, "_rekey": trials,
                         "_erm_rows": 2}

    #: Corruptions of 2 clean outcomes, by the number of corrupted outcomes they give.
    CORRUPTIONS = {2: DOCUMENTS["config"]["corruption"],
                   3: {"family": "semi_supervised", "params": {"sigma_neg": 0.5, "sigma_pos": 0.6}},
                   4: {"kernel": {"from": ["-1", "+1"], "to": ["a", "b", "c", "d"],
                                  "matrix": [[0.7, 0.1], [0.1, 0.7], [0.1, 0.1], [0.1, 0.1]]}}}

    @pytest.mark.parametrize("outcomes", CORRUPTIONS)
    @pytest.mark.parametrize("past", [0, 1], ids=["at-the-bound", "one-past"])
    def test_work_guard_counts_corrupted_outcomes(self, outcomes, past, tmp_path, capsys, monkeypatch,
                                                  simlab_calls):
        # 3 sizes x 7 trials = 21 cells of 2 actions
        work = 21 * outcomes * 2
        monkeypatch.setattr(simlab, "CELL_WORK_GUARD", work - past)
        config = _sized_config([10, 20, 40], 7) | {"corruption": self.CORRUPTIONS[outcomes]}
        out_path = tmp_path / "out.csv"
        code, out, err = run(capsys, "simulate", "--config", write_json(tmp_path, "config.json", config),
                             "--out", str(out_path))
        if past:
            assert (code, out, simlab_calls["_rekey"], out_path.exists()) == (3, "", 0, False)
            assert err == (f"numerical failure: simulate work, 21 cells x {outcomes} outcomes x 2 actions = {work} "
                           f"exceeds guard {work - 1}\n")
        else:
            assert (code, out, err, simlab_calls["_rekey"], len(out_path.read_text().split("\n"))) == (
                0, "", "", 21, 5)

    @pytest.mark.parametrize("corruption", [
        {"family": "symmetric_label_noise", "params": {"sigma": 0.2, "classes": 3}},
        {"kernel": {"from": ["a", "b"], "to": ["-1", "+1"], "matrix": [[0.8, 0.3], [0.2, 0.7]]}},
    ], ids=["3-classes", "foreign-kernel"])
    @pytest.mark.parametrize("past", ["no-guard", "sample-size", "cells", "work"])
    def test_foreign_domain_exits_two_before_any_guard(self, corruption, past, tmp_path, capsys, monkeypatch,
                                                       simlab_calls):
        # the clean distribution has 2 labels: bad input, whatever the sizes
        sizes, trials = {"sample-size": ([10, 10**9], 2), "cells": ([10, 20], 10**6 + 1)}.get(past, ([10, 20], 2))
        if past == "work":
            monkeypatch.setattr(simlab, "CELL_WORK_GUARD", 1)
        config = _sized_config(sizes, trials) | {"corruption": corruption}
        code, out, err = run(capsys, "simulate", "--config", write_json(tmp_path, "config.json", config),
                             "--out", str(tmp_path / "out.csv"))
        assert (code, out, err) == (2, "", "error: loss outcomes must match the corruption's domain\n")
        assert simlab_calls["_rekey"] == 0 and not (tmp_path / "out.csv").exists()

    def test_guard_bounds_cells_not_draws(self, tmp_path, capsys):
        # 11 cells of 10^7 draws each, 1.1e8 draws in all: one multinomial call per cell
        path = write_json(tmp_path, "config.json", _sized_config([10**7], 11))
        out_path = tmp_path / "out.csv"
        code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_path))
        assert (code, out, err) == (0, "", "")
        assert out_path.read_text().split("\n")[1].startswith("10000000,")

    def test_weights_within_tolerance_of_one(self, tmp_path, capsys):
        # a Dist may sum to 1 + 5e-10; the draw must not refuse it
        config = DOCUMENTS["config"] | {
            "clean": {"space": ["-1", "+1"], "weights": [1 + 5e-10, 0.0]},
            "corruption": {"family": "binary_label_noise", "params": {"sigma_neg": 0.0, "sigma_pos": 0.0}}}
        path = write_json(tmp_path, "config.json", config)
        out_path = tmp_path / "out.csv"
        code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_path))
        assert (code, out, err) == (0, "", "")
        assert out_path.read_text().split("\n")[1].startswith("10,0.0,0.0,")

    def test_unknown_corruption_parameter_exits_two(self, tmp_path, capsys):
        config = DOCUMENTS["config"] | {
            "corruption": {"family": "symmetric_label_noise", "params": {"sigma": 0.2, "clases": 7}}}
        path = write_json(tmp_path, "config.json", config)
        code, out, err = run(capsys, "simulate", "--config", path, "--out", str(tmp_path / "out.csv"))
        assert (code, out) == (2, "")
        assert err == ('error: symmetric_label_noise params has unknown key "clases"; '
                       'known: classes, sigma\n')
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("mode", ["standard", "fast-rate"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_two(self, mode, target, tmp_path, capsys):
        config = DOCUMENTS["config"] | {"clean": {"space": ["-1", "+1"], "weights": [0.0, 1.0]}}
        path = write_json(tmp_path, "config.json", config)
        out = tmp_path / "missing" / "out.csv" if target == "missing-directory" else tmp_path
        code, stdout, err = run(capsys, "simulate", "--config", path, "--out", str(out), "--mode", mode)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_non_separable_fast_rate_exits_two(self, tmp_path, capsys, config_file):
        code, _, err = run(capsys, "simulate", "--config", config_file,
                           "--out", str(tmp_path / "x.csv"), "--mode", "fast-rate")
        assert code == 2 and "separable" in err


class TestLecam:
    def test_replicated_coin(self, capsys, coin_problem_file):
        code, out, _ = run(capsys, "lecam", "--problem", coin_problem_file,
                           "--theta1", "0", "--theta2", "1", "--n", "2")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.03, abs=1e-12)
        assert report["rho"] == pytest.approx(0.2, abs=1e-12)

    def test_corrupted_coin(self, tmp_path, capsys, coin_problem_file):
        noise = {"from": ["tails", "heads"], "to": ["tails", "heads"],
                 "matrix": [[0.75, 0.25], [0.25, 0.75]]}
        kpath = write_json(tmp_path, "noise.json", noise)
        code, out, _ = run(capsys, "lecam", "--problem", coin_problem_file,
                           "--theta1", "0.4", "--theta2", "0.6", "--n", "5",
                           "--kernel", kpath)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.025, abs=1e-12)
        assert report["alpha"] == pytest.approx(0.5, abs=1e-12)

    def test_mixed_sources(self, tmp_path, capsys, coin_problem_file):
        mix = [
            {"count": 10, "alpha": 0.7},
            {"count": 6, "alpha": 0.5},
        ]
        mpath = write_json(tmp_path, "mix.json", mix)
        code, out, _ = run(capsys, "lecam", "--problem", coin_problem_file,
                           "--theta1", "0", "--theta2", "1", "--mix", mpath)
        assert code == 0
        assert json.loads(out)["effective_count"] == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["replicated", "kernel", "mix"])
    def test_each_bound_evaluated_once(self, mode, tmp_path, capsys, coin_problem_file, monkeypatch):
        calls = []
        original = bounds.lecam_replicated

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(bounds, "lecam_replicated", counting)  # corrupted and mixed call it
        monkeypatch.setattr(cli, "lecam_replicated", counting)
        noise = {"from": ["tails", "heads"], "to": ["tails", "heads"], "matrix": [[0.9, 0.1], [0.1, 0.9]]}
        extra = {"replicated": [],
                 "kernel": ["--kernel", write_json(tmp_path, "noise.json", noise)],
                 "mix": ["--mix", write_json(tmp_path, "mix.json", [{"count": 20, "alpha": 0.5}])]}[mode]
        code, out, _ = run(capsys, "lecam", "--problem", coin_problem_file,
                           "--theta1", "0", "--theta2", "1", "--n", "10", *extra)
        report = json.loads(out)
        assert code == 0 and len(calls) == 1
        assert report["unclamped"] < 0.0 and report["value"] == 0.0

    def test_kernel_alpha_computed_once(self, tmp_path, capsys, coin_problem_file, monkeypatch):
        calls = []
        original = divergence.alpha

        def counting(kernel):
            calls.append(kernel)
            return original(kernel)

        monkeypatch.setattr(divergence, "alpha", counting)
        noise = {"from": ["tails", "heads"], "to": ["tails", "heads"], "matrix": [[0.9, 0.1], [0.1, 0.9]]}
        code, out, _ = run(capsys, "lecam", "--problem", coin_problem_file, "--theta1", "0",
                           "--theta2", "1", "--kernel", write_json(tmp_path, "noise.json", noise))
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["alpha"] == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("flag", ["--kernel", "--mix"])
    def test_wrong_space_corruption_exits_two(self, flag, tmp_path, capsys, coin_problem_file):
        kernel = binary_noise(0.1)  # corrupts -1/+1, not the coin's tails/heads
        document = kernel_to_json(kernel) if flag == "--kernel" else [
            {"count": 10, "alpha": 0.7}, {"count": 6, "kernel": kernel_to_json(kernel)}]
        code, out, err = run(capsys, "lecam", "--problem", coin_problem_file, "--theta1", "0",
                             "--theta2", "1", flag, write_json(tmp_path, "corruption.json", document))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "output space" in err and err.count("\n") == 1

    def test_bad_theta_exits_two(self, capsys, coin_problem_file):
        code, _, err = run(capsys, "lecam", "--problem", coin_problem_file,
                           "--theta1", "0.5", "--theta2", "0.6")
        assert code == 2


# -- malformed documents --------------------------------------------------------

def changed(role: str, path: tuple, value):
    """The valid document of `role` with the value at `path` replaced."""
    doc = json.loads(json.dumps(DOCUMENTS[role]))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


_SYMMETRIC = {"family": "symmetric_label_noise", "params": {"sigma": 0.2, "classes": "x"}}

#: (role, document or raw file bytes).  Each raised out of `main` or ended
#: with the wrong outcome before every document was read through one schema.
MALFORMED = {
    "from-int": ("kernel", changed("kernel", ("from",), 5)),
    "loss-actions-int": ("loss", changed("loss", ("actions",), 3)),
    "problem-actions-int": ("problem", changed("problem", ("actions",), 3)),
    "trials-string": ("config", changed("config", ("trials",), "5")),
    "sample-sizes-int": ("config", changed("config", ("sample_sizes",), 5)),
    "seed-string": ("config", changed("config", ("seed",), "x")),
    "sigma-string": ("config", changed("config", ("corruption", "params", "sigma_neg"), "x")),
    "classes-string": ("config", changed("config", ("corruption",), _SYMMETRIC)),
    "sigma-list": ("config", changed("config", ("corruption", "params", "sigma_neg"), [1])),
    "offer-alpha-string": ("offers", changed("offers", (0, "alpha"), "x")),
    "offer-sup-string": ("offers", changed("offers", (0, "corrected_sup"), "x")),
    "thetas-int": ("problem", changed("problem", ("thetas",), 5)),
    "mix-count-string": ("mix", changed("mix", (0, "count"), "x")),
    "mix-alpha-string": ("mix", changed("mix", (0, "alpha"), "x")),
    "mix-sup-string": ("mix", changed("mix", (1, "corrected_sup"), "x")),
    # accepted silently, or exit 3
    "trials-fraction": ("config", changed("config", ("trials",), 2.5)),
    "trials-true": ("config", changed("config", ("trials",), True)),
    "sample-sizes-fraction": ("config", changed("config", ("sample_sizes",), [10.7, 20])),
    "from-nested-lists": ("kernel", changed("kernel", ("from",), [["-1"], ["+1"]])),
    "boolean-matrix": ("kernel", changed("kernel", ("matrix",), [[True, False], [False, True]])),
    "cost-true": ("offers", changed("offers", (1, "cost"), True)),
    "boolean-among-numbers": ("kernel", changed("kernel", ("matrix",), [[True, 0.0], [0.0, 1]])),
    "boolean-weight": ("config", changed("config", ("clean", "weights"), [False, 1.0])),
    "params-unknown-key": ("config", changed("config", ("corruption", "params", "sigma"), 0.2)),
    "offer-unknown-key": ("offers", changed("offers", (0, "corected_sup"), 9.0)),
    "mix-unknown-key": ("mix", changed("mix", (0, "corected_sup"), 9.0)),
    "corruption-kernel-unknown-key": ("config", changed("config", ("corruption",),
                                                        {"kernel": DOCUMENTS["kernel"], "sigma": 0.2})),
    "nan-kernel": ("kernel", changed("kernel", ("matrix", 0, 0), float("nan"))),
    # files that json.load cannot decode into a document
    "invalid-utf8": ("kernel", b'\xff\xfe{"from": []}'),
    "nested-too-deeply": ("kernel", b"[" * 100_000 + b"]" * 100_000),
    "integer-past-digit-limit": ("kernel", b'{"matrix": [[' + b"1" * 5000 + b"]]}"),
}


def document_argv(role, document, directory):
    """CLI arguments that read `document` (an object or raw bytes) as `role`."""
    path = Path(directory) / f"{role}.json"
    path.write_bytes(document if isinstance(document, bytes) else json.dumps(document).encode())
    return role_argv(role, directory, str(path))


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_document_exits_two(case, tmp_path, capsys):
    role, document = MALFORMED[case]
    code, out, err = run(capsys, *document_argv(role, document, tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _symmetric_config(classes):
    return changed("config", ("corruption",),
                   {"family": "symmetric_label_noise", "params": {"sigma": 0.2, "classes": classes}})


def _sized_config(sample_sizes, trials):
    return changed("config", ("sample_sizes",), sample_sizes) | {"trials": trials}


def _classes_config(classes, trials):
    """Symmetric noise on `classes` labels, uniform labels, the zero-one loss, 2 sample sizes."""
    labels = [str(i + 1) for i in range(classes)]
    return _symmetric_config(classes) | {"clean": {"space": labels, "weights": [1 / classes] * classes},
                                         "loss": loss_to_json(zero_one_loss(Space(labels))),
                                         "sample_sizes": [10, 20], "trials": trials}


def _tables(grid, classes=3):
    return ["tables", "--family", "symmetric_label_noise", f"--grid={grid}", "--classes", str(classes)]


def _plan(budget):
    return lambda d: [*document_argv("offers", DOCUMENTS["offers"], d)[:-2], f"--budget={budget}"]


def _lecam(role, *extra):
    return lambda d: [*document_argv(role, DOCUMENTS[role], d), *extra]


def _one_offer(**changes):
    offer = {"name": "A", "alpha": 0.5, "cost": 1} | changes
    return lambda d: [*document_argv("offers", [offer], d)[:-2], "--budget=0"]


#: Malformed decision problems: the hypotheses, actions and loss are checked
#: as a LossTable's, and only the order of the hypotheses by the problem itself.
BAD_PROBLEMS = {
    "problem-no-hypotheses": {"thetas": []},
    "problem-no-actions": {"actions": []},
    "problem-loss-shape": {"loss": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]},
    "problem-repeated-hypothesis": {"thetas": ["t0", "t0"]},
    "problem-hypotheses-out-of-order": {"thetas": ["t1", "t0"]},
}


def _bad_problem(case):
    return lambda d: document_argv("problem", DOCUMENTS["problem"] | BAD_PROBLEMS[case], d)


#: (exit code, argv for a directory).  Malformed decision problems, counts
#: past a float's range and sizes past a guard; each of the latter used to
#: hang, raise out of `main` or print non-JSON.
REFUSED = {
    **{case: (2, _bad_problem(case)) for case in BAD_PROBLEMS},
    "n-inf": (2, _lecam("problem", "--n", "inf")),
    "n-inf-with-mix": (2, _lecam("mix", "--n", "inf")),
    "n-negative-with-mix": (2, _lecam("mix", "--n", "-1")),
    "n-nan-with-kernel": (2, lambda d: [*_lecam("problem", "--n", "nan")(d),
                                         "--kernel", str(d / "valid-kernel.json")]),
    "kernel-with-mix": (2, lambda d: [*_lecam("problem", "--kernel", str(d / "valid-kernel.json"))(d),
                                      "--mix", str(d / "absent-mix.json")]),
    "mix-count-10**400": (2, lambda d: document_argv("mix", changed("mix", (0, "count"), 10**400), d)),
    "mix-effective-count-inf": (2, lambda d: document_argv("mix", [{"count": 10**308, "alpha": 1.0}] * 2, d)),
    "config-classes-10**400": (3, lambda d: document_argv("config", _symmetric_config(10**400), d)),
    "config-classes-10**9": (3, lambda d: document_argv("config", _symmetric_config(10**9), d)),
    "tables-classes-10**9": (3, lambda d: _tables("0.1:0.2:0.1", 10**9)),
    "tables-sigma-2-classes-10**9": (2, lambda d: _tables("2:3:0.5", 10**9)),
    "tables-last-sigma-3-classes-10**9": (2, lambda d: _tables("0.5:3:0.5", 10**9)),
    "tables-first-sigma--0.5-classes-10**9": (2, lambda d: _tables("-0.5:0.5:0.5", 10**9)),
    "tables-work-past-guard": (3, lambda d: _tables("0:0.99:0.00001", 1000)),
    "grid-nan": (2, lambda d: _tables("0:nan:0.1")),
    "grid-inf": (2, lambda d: _tables("0:inf:0.1")),
    "grid-step-1e-300": (3, lambda d: _tables("0:0.1:1e-300")),
    "grid-repeats-past-guard": (3, lambda d: _tables("0.9:0.9:1e-17")),
    "sample-size-10**9": (3, lambda d: document_argv("config", _sized_config([10, 10**9], 3), d)),
    "sample-size-10**400": (3, lambda d: document_argv("config", _sized_config([10, 10**400], 3), d)),
    "trials-10**9": (3, lambda d: document_argv("config", _sized_config([10, 20], 10**9), d)),
    "trials-10**400": (3, lambda d: document_argv("config", _sized_config([10, 20], 10**400), d)),
    "cells-10**6+1": (3, lambda d: document_argv("config", _sized_config([10], 10**6 + 1), d)),
    "work-10**6-cells-of-11-classes": (3, lambda d: document_argv("config", _classes_config(11, 5 * 10**5), d)),
    "plan-work-11-equally-dense-offers": (3, lambda d: [*document_argv("offers", [
        {"name": f"s{i}", "alpha": (3163 + i) / 2**14, "cost": 3163 + i} for i in range(11)], d)[:-1], "1e7"]),
    "budget-1e300": (3, lambda d: [*document_argv("offers", DOCUMENTS["offers"], d)[:-1], "1e300"]),
    "budget-1e400": (3, lambda d: [*document_argv("offers", DOCUMENTS["offers"], d)[:-1], "1e400"]),
    "budget-1e5000": (3, _plan("1e5000")),
    "budget--1e5000": (2, _plan("-1e5000")),
    "budget-1e10000000": (3, _plan("1e10000000")),
    "budget--1e10000000": (2, _plan("-1e10000000")),
    "budget--1e999999": (2, _plan("-1e999999")),
    "budget-1e99999999999999999999999": (2, _plan("1e99999999999999999999999")),
    "budget-1e999999999999999999": (3, _plan("1e999999999999999999")),
    "budget--1e999999999999999999": (2, _plan("-1e999999999999999999")),
    "budget-1/0": (2, _plan("1/0")),
    "budget-inf": (2, _plan("inf")),
    "grid-non-numeric": (2, lambda d: _tables("0:x:0.1")),
    "grid-step-0": (2, lambda d: _tables("0:1:0")),
    "kernel-file-missing": (2, lambda d: ["analyze", "--kernel", str(d / "absent-kernel.json")]),
    "cost-den-0": (2, _one_offer(cost={"num": 1, "den": 0})),
    "cost-1/10**400": (2, _one_offer(cost={"num": 1, "den": 10**400})),
    "cost-10**400": (2, _one_offer(cost=10**400)),
    "corrected-sup-1e200": (2, _one_offer(corrected_sup=1e200)),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_input_exits_cleanly(case, tmp_path, capsys, monkeypatch):
    expected, argv = REFUSED[case]

    def no_kernel(spec):
        raise AssertionError("a guard must trip before a catalog kernel is built")

    def no_kernels(name, *values):
        stack = build_kernels(name, *values)
        assert not len(stack[2]), "a guard must trip before a catalog kernel is built"
        return stack

    def no_sample(*args):
        raise AssertionError("a guard must trip before anything is drawn")

    build_kernels = catalog.build_kernels
    monkeypatch.setattr(catalog, "build_kernel", no_kernel)
    monkeypatch.setattr(catalog, "build_kernels", no_kernels)
    monkeypatch.setattr(simlab, "sample", no_sample)
    monkeypatch.setattr(simlab, "_generator", no_sample)  # the stream of every sample and corruption
    monkeypatch.setattr(simlab, "_vehicle", no_sample)  # the stream of every curve, whatever the thread holds
    argv = argv(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == expected and out == ""
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")



#: argv for a kernel document `k` in each role a kernel plays, under a directory.
KERNEL_ROLES = {
    "analyze": lambda k, d: document_argv("kernel", k, d),
    "lecam-kernel": lambda k, d: [*_lecam("problem")(d), "--kernel", write_json(d, "corruption.json", k)],
    "lecam-experiment": lambda k, d: document_argv("problem", DOCUMENTS["problem"] | {
        "experiment": k | {"from": ["t0", "t1"]}}, d),
    "lecam-mix-source": lambda k, d: document_argv("mix", [{"count": 6, "kernel": k}], d),
    "simulate-config": lambda k, d: document_argv("config", DOCUMENTS["config"] | {"corruption": {"kernel": k}}, d),
}


class TestKernelEntryGuard:
    @pytest.fixture
    def matrix_reads(self, monkeypatch):
        """The matrices a Kernel reads, one entry per matrix."""
        reads = []
        refused_by, description, read = kernels.MATRIX
        monkeypatch.setattr(kernels, "MATRIX", (refused_by, description, lambda v: reads.append(1) or read(v)))
        return reads

    @pytest.mark.parametrize("role", KERNEL_ROLES)
    def test_admits_a_kernel_at_its_bound(self, role, tmp_path, capsys, monkeypatch, matrix_reads):
        monkeypatch.setattr(kernels, "PRODUCT_ENTRY_GUARD", 4)
        code, _, err = run(capsys, *KERNEL_ROLES[role](DOCUMENTS["kernel"], tmp_path))
        assert (code, err) == (0, "")
        assert matrix_reads

    @pytest.mark.parametrize("role", KERNEL_ROLES)
    def test_refuses_one_entry_past_before_reading_the_matrix(self, role, tmp_path, capsys, monkeypatch,
                                                              matrix_reads):
        # the guard comes after the matrix is read and checked: labels two
        # entries past it exit 3 with a valid matrix and 2 with a malformed one
        monkeypatch.setattr(kernels, "PRODUCT_ENTRY_GUARD", 3)
        assert run(capsys, *KERNEL_ROLES[role](DOCUMENTS["kernel"], tmp_path)) == (
            3, "", "numerical failure: kernel entries, 2x2 = 4 exceeds guard 3\n")
        assert matrix_reads
        monkeypatch.setattr(kernels, "PRODUCT_ENTRY_GUARD", 4)  # the other documents' kernels are 2x2
        malformed = DOCUMENTS["kernel"] | {"to": ["a", "b", "c"], "matrix": [[1.0]]}
        assert run(capsys, *KERNEL_ROLES[role](malformed, tmp_path)) == (
            2, "", "error: kernel matrix has shape (1, 1), expected (3, 2)\n")

    def test_refuses_1001_columns_of_1000_rows(self, tmp_path, capsys, matrix_reads):
        # refused once the matrix is read: as bad input when it is malformed,
        # by the guard when it is a kernel
        labels = {"from": [f"x{i}" for i in range(1001)], "to": [f"y{i}" for i in range(1000)]}
        for matrix, message in ((
                [[1.0]], "error: kernel matrix has shape (1, 1), expected (1000, 1001)\n"), (
                "nope", 'error: kernel "matrix" must be a list of equal-length rows of finite numbers\n'), (
                [[int(i == j % 1000) for j in range(1001)] for i in range(1000)],
                "numerical failure: kernel entries, 1000x1001 = 1001000 exceeds guard 1000000\n")):
            code, out, err = run(capsys, *KERNEL_ROLES["analyze"](labels | {"matrix": matrix}, tmp_path))
            assert (code, out, err) == (2 if message.startswith("error") else 3, "", message)
        assert len(matrix_reads) == 3


#: The exit code of each error class; RankDeficient is bad input like its base.
EXIT_CODES = {
    **dict.fromkeys(["LengthMismatch", "NegativeWeight", "NotNormalized", "SpaceMismatch", "NotReconstructible",
                     "RankDeficient", "InvalidParameter", "IndexOutOfRange", "MissingStatistic", "UnknownOutcome",
                     "EmptySample", "PreconditionFailed", "UnknownFamily", "ParseError"], 2),
    **dict.fromkeys(["SizeGuardExceeded", "CapacityGuardExceeded", "InternalInconsistency",
                     "DivergedObjective"], 3),
}


def test_every_error_has_one_exit_base():
    bases = (errors.CorruptLabError, errors.InvalidInput, errors.NumericalFailure)
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.CorruptLabError) and c not in bases]
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_CODES)
    for cls in classes:
        assert issubclass(cls, errors.InvalidInput) != issubclass(cls, errors.NumericalFailure), cls


@pytest.mark.parametrize("name", EXIT_CODES)
def test_exit_code_follows_error_type(name, capsys, monkeypatch):
    def failing(args):
        raise getattr(errors, name)("detail")

    monkeypatch.setattr(cli, "cmd_plan", failing)
    code, out, err = run(capsys, "plan", "--offers", "offers.json", "--budget", "1")
    assert code == EXIT_CODES[name] and out == ""
    assert err == ("error: detail\n" if code == 2 else "numerical failure: detail\n")


#: Text that would break a message over lines, and how a message shows it.
BREAKING = {"newline": ("x\ny", "x\\ny"), "carriage-return": ("x\ry", "x\\ry"),
            "line-separator": ("x\u2028y", "x\\u2028y"), "next-line": ("x\x85y", "x\\u0085y")}


@pytest.mark.parametrize("case", BREAKING)
def test_unknown_key_message_stays_on_one_line(case, tmp_path, capsys):
    key, shown = BREAKING[case]
    path = write_json(tmp_path, "offers.json", [{"name": "A", "alpha": 0.5, "cost": 1, key: 1}])
    assert run(capsys, "plan", "--offers", path, "--budget", "1") == (
        2, "", f'error: offer 0 has unknown key "{shown}"; known: alpha, corrected_sup, cost, name\n')


@pytest.mark.parametrize("case", BREAKING)
@pytest.mark.parametrize("content, message", [(None, "cannot read {}: "), ("{", "{} is not valid JSON: "),
                                               ("NaN", "{} is not valid JSON: NaN is not a number")],
                         ids=["missing", "bad-syntax", "nan"])
def test_path_in_message_stays_on_one_line(case, content, message, tmp_path, capsys):
    name, shown = BREAKING[case]
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "analyze", "--kernel", str(path))
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("error: " + message.format(str(tmp_path / shown)))


def test_unwritable_out_path_stays_on_one_line(tmp_path, capsys):
    config = write_json(tmp_path, "config.json", DOCUMENTS["config"])
    code, out, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "no\ndir" / "out.csv"))
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {tmp_path}/no\\ndir/out.csv: ")


def child_env():
    """The environment of a child process that imports this corruptlab."""
    src = str(Path(corruptlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def main_in_child(argv):
    """Exit code, stdout and stderr of `argv` run by `main` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "corruptlab.cli", *argv], capture_output=True, text=True,
                          env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


#: Command lines the parser refuses, with the start of the one line printed for each.
USAGE_ERRORS = {
    "no-subcommand": ([], "the following arguments are required: command"),
    "missing-option": (["analyze"], "the following arguments are required: --kernel"),
    "bad-choice": (["simulate", "--config", "c", "--out", "o", "--mode", "fast"], "argument --mode: invalid choice"),
    "unknown-flag-holding-a-newline": (["analyze", "--kernel", "k", "--x\ny"], "unrecognized arguments: --x\\ny"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_prints_one_line_and_exits_two(case, capsys):
    argv, start = USAGE_ERRORS[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {start}") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    captured = capsys.readouterr()
    assert (caught.value.code, captured.err) == (0, "") and captured.out.startswith("usage: corruptlab")


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    kernel = write_json(tmp_path, "kernel.json", DOCUMENTS["kernel"])
    calls = [["analyze"], ["analyze", "--kernel", kernel], ["plan", "--budget", "1"]]
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    seen, parsers_built = [], []
    for argv in calls:
        built.clear()
        code = main(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
        parsers_built.append(len(built))
    assert parsers_built[1:] == [0, 0]  # the first call builds one unless an earlier test did
    assert [code for code, _, _ in seen] == [2, 0, 2]
    assert seen == [main_in_child(argv) for argv in calls]


def test_command_looked_up_at_each_call(tmp_path, capsys, monkeypatch):
    kernel = write_json(tmp_path, "kernel.json", DOCUMENTS["kernel"])
    assert run(capsys, "analyze", "--kernel", kernel)[0] == 0  # the parser exists from here on
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: 7)
    assert run(capsys, "analyze", "--kernel", kernel) == (7, "", "")


@pytest.mark.parametrize("role", DOCUMENTS)
def test_a_valid_call_parses_its_argv_once(role, tmp_path, capsys, monkeypatch):
    argv = role_argv(role, tmp_path, write_json(tmp_path, f"{role}.json", DOCUMENTS[role]))
    entered = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        entered.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run(capsys, *argv)[0] == 0
    assert entered == [f"corruptlab {argv[0]}"]  # the subcommand's parser alone


#: Command lines, with ``K`` for a valid kernel file, that ``main`` parses as
#: the top-level parser does: refused, answered with help, or run.
TOP_LEVEL_CASES = {
    **{case: argv for case, (argv, _) in USAGE_ERRORS.items()},
    "help": ["-h"],
    "help-long": ["--help"],
    "help-after-subcommand": ["analyze", "-h"],
    "help-after-options": ["analyze", "--kernel", "K", "--he"],
    "abbreviation": ["analyze", "--ker", "K"],
    "equals": ["analyze", "--kernel=K"],
    "double-dash-first": ["analyze", "--", "--kernel", "K"],
    "double-dash-last": ["analyze", "--kernel", "K", "--"],
    "double-dash-before-subcommand": ["--", "analyze", "--kernel", "K"],
    "unknown-flag-before-subcommand": ["--x", "analyze", "--kernel", "K"],
    "subcommand-abbreviation": ["ana", "--kernel", "K"],
    "valid": ["analyze", "--kernel", "K"],
    "tuple": ("analyze", "--kernel", "K"),
    "sys-argv": None,
}


@pytest.mark.parametrize("case", TOP_LEVEL_CASES)
def test_main_answers_as_the_top_level_parser(case, tmp_path, capsys, monkeypatch):
    kernel = write_json(tmp_path, "kernel.json", DOCUMENTS["kernel"])
    argv = TOP_LEVEL_CASES[case]
    if argv is None:  # main reads sys.argv
        monkeypatch.setattr(sys, "argv", ["corruptlab", "analyze", "--kernel", kernel])
    else:
        argv = type(argv)(kernel if a == "K" else a for a in argv)

    def answer():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    direct = answer()
    monkeypatch.setattr(cli.build_parser(), "commands", {})  # every argv now goes through the top-level parser
    assert answer() == direct


@pytest.mark.parametrize("role", DOCUMENTS)
def test_valid_documents_exit_zero(role, tmp_path, capsys):
    path = write_json(tmp_path, f"{role}.json", DOCUMENTS[role])
    code, _, err = run(capsys, *role_argv(role, tmp_path, path))
    assert code == 0, err


# What a console-script wrapper generated from [project.scripts] does, with the
# target module and function passed in as the first two arguments.
_WRAPPER = (
    "import importlib, sys\n"
    "module, func = sys.argv[1:3]\n"
    "sys.argv = ['corruptlab', *sys.argv[3:]]\n"
    "sys.exit(getattr(importlib.import_module(module), func)())\n"
)


def analyze_in_process(tmp_path, capsys):
    """Run `analyze` on the identity kernel through `main`; return argv and stdout bytes."""
    path = write_json(tmp_path, "k.json", kernel_to_json(identity(Space(["a", "b"]))))
    argv = ["analyze", "--kernel", path]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return argv, out.encode()


def test_console_script_installed(tmp_path, capsys):
    """The declared `corruptlab` entry point, called as its script would call it,
    exits 0 and prints the same bytes as `main`; no installed executable needed."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["corruptlab"]
    module, _, func = target.partition(":")
    argv, expected = analyze_in_process(tmp_path, capsys)
    proc = subprocess.run([sys.executable, "-c", _WRAPPER, module, func, *argv],
                          capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["alpha"] == 1.0
    assert proc.stdout == expected


@pytest.mark.skipif(shutil.which("corruptlab") is None,
                    reason="corruptlab console script not installed")
def test_console_script_on_path(tmp_path, capsys):
    argv, expected = analyze_in_process(tmp_path, capsys)
    proc = subprocess.run([shutil.which("corruptlab"), *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
