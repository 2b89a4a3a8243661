"""End-to-end CLI: JSON in, JSON/CSV out, stable bytes, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corruptlab
from corruptlab import bounds, catalog, cli, divergence, errors, reconstruct, simlab
from corruptlab.cli import _parse_grid, main
from corruptlab.kernels import Space, identity, kernel_to_json
from corruptlab.reconstruct import loss_to_json, zero_one_loss

from helpers import DOCUMENTS, asym_noise, binary_noise, role_argv


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
    """Records one entry per SVD of a kernel."""
    calls = []
    original = reconstruct._svd

    def counting(t):
        calls.append(t.matrix.shape)
        return original(t)

    monkeypatch.setattr(reconstruct, "_svd", counting)
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

    def test_byte_stable(self, tmp_path, capsys):
        path = write_json(tmp_path, "k.json", kernel_to_json(binary_noise(0.2)))
        _, out1, _ = run(capsys, "analyze", "--kernel", path)
        _, out2, _ = run(capsys, "analyze", "--kernel", path)
        assert out1 == out2

    @pytest.mark.parametrize("sigmas", [(0.1, 0.2), (0.5, 0.5)], ids=["reconstructible", "singular"])
    def test_one_elimination_per_kernel(self, sigmas, tmp_path, capsys, factorizations):
        t = asym_noise(*sigmas)
        kpath = write_json(tmp_path, "k.json", kernel_to_json(t))
        lpath = write_json(tmp_path, "l.json", loss_to_json(zero_one_loss(t.domain)))
        code, out, _ = run(capsys, "analyze", "--kernel", kpath, "--loss", lpath)
        assert code == 0 and len(factorizations) == 1
        assert json.loads(out)["reconstructible"] is (sigmas != (0.5, 0.5))

    def test_residual_failure_still_exits_two(self, tmp_path, capsys, monkeypatch):
        # full rank, so only the left-inverse residual check can refuse it
        monkeypatch.setattr(reconstruct, "RESIDUAL_ATOL", 0.0)
        path = write_json(tmp_path, "k.json", kernel_to_json(binary_noise(0.2)))
        code, out, err = run(capsys, "analyze", "--kernel", path)
        assert code == 2 and out == ""
        assert err.startswith("error: matrix is not a left inverse") and err.count("\n") == 1


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
    def test_one_elimination_per_grid_point(self, family, capsys, factorizations):
        code, out, _ = run(capsys, "tables", "--family", family, "--grid", "0.4:0.6:0.1")
        assert code == 0 and len(factorizations) == len(out.strip().split("\n")) - 1 == 3

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
        assert _parse_grid(grid) == expected


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

    def test_capacity_guard_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path, "offers.json",
                          [{"name": "A", "alpha": 0.7, "cost": {"num": 1, "den": 10**6}}])
        code, _, err = run(capsys, "plan", "--offers", path, "--budget", "100")
        assert code == 3 and "capacity" in err.lower()


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

    def test_rerun_byte_identical(self, tmp_path, capsys, config_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--config", config_file, "--out", str(a))
        run(capsys, "simulate", "--config", config_file, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

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

    def test_unknown_flag_rejected(self, coin_problem_file):
        with pytest.raises(SystemExit):
            main(["lecam", "--problem", coin_problem_file, "--theta1", "0",
                  "--theta2", "1", "--frobnicate"])


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


def _tables(grid, classes=3):
    return ["tables", "--family", "symmetric_label_noise", "--grid", grid, "--classes", str(classes)]


def _lecam(role, *extra):
    return lambda d: [*document_argv(role, DOCUMENTS[role], d), *extra]


#: (exit code, argv for a directory).  Counts past a float's range and sizes
#: past a guard; each used to hang, raise out of `main` or print non-JSON.
REFUSED = {
    "n-inf": (2, _lecam("problem", "--n", "inf")),
    "n-inf-with-mix": (2, _lecam("mix", "--n", "inf")),
    "n-negative-with-mix": (2, _lecam("mix", "--n", "-1")),
    "n-nan-with-kernel": (2, lambda d: [*_lecam("problem", "--n", "nan")(d),
                                         "--kernel", str(d / "valid-kernel.json")]),
    "mix-count-10**400": (2, lambda d: document_argv("mix", changed("mix", (0, "count"), 10**400), d)),
    "mix-effective-count-inf": (2, lambda d: document_argv("mix", [{"count": 10**308, "alpha": 1.0}] * 2, d)),
    "config-classes-10**400": (3, lambda d: document_argv("config", _symmetric_config(10**400), d)),
    "config-classes-10**9": (3, lambda d: document_argv("config", _symmetric_config(10**9), d)),
    "tables-classes-10**9": (3, lambda d: _tables("0.1:0.2:0.1", 10**9)),
    "grid-nan": (2, lambda d: _tables("0:nan:0.1")),
    "grid-inf": (2, lambda d: _tables("0:inf:0.1")),
    "grid-step-1e-300": (3, lambda d: _tables("0:0.1:1e-300")),
    "grid-repeats-past-guard": (3, lambda d: _tables("0.9:0.9:1e-17")),
    "sample-size-10**9": (3, lambda d: document_argv("config", _sized_config([10, 10**9], 3), d)),
    "sample-size-10**400": (3, lambda d: document_argv("config", _sized_config([10, 10**400], 3), d)),
    "trials-10**9": (3, lambda d: document_argv("config", _sized_config([10, 20], 10**9), d)),
    "trials-10**400": (3, lambda d: document_argv("config", _sized_config([10, 20], 10**400), d)),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_input_exits_cleanly(case, tmp_path, capsys, monkeypatch):
    expected, argv = REFUSED[case]

    def no_kernel(spec):
        raise AssertionError("a guard must trip before a catalog kernel is built")

    def no_sample(*args):
        raise AssertionError("a guard must trip before anything is drawn")

    monkeypatch.setattr(catalog, "build_kernel", no_kernel)
    monkeypatch.setattr(simlab, "sample", no_sample)
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == expected and out == ""
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")



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
    src = str(Path(corruptlab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WRAPPER, module, func, *argv],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=pythonpath))
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
