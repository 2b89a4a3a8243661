"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time
from fractions import Fraction

import numpy as np

from corruptlab.bounds import (
    DecisionProblem,
    bernstein_constant,
    eta_compatibility,
    lecam_corrupted,
    lecam_replicated,
)
from corruptlab.catalog import (
    binary_label_noise,
    build_kernel,
    partial_labels,
    semi_supervised,
    symmetric_label_noise,
)
from corruptlab.cli import main as cli_main
from corruptlab.divergence import KL, VARIATIONAL, alpha, f_divergence, lambda_coeff, sdpi_check, variational
from corruptlab.kernels import (
    Dist,
    Kernel,
    Space,
    compose,
    identity,
    kernel_to_json,
    point_mass,
    pushforward,
)
from corruptlab.planner import SourceOffer, exact_plan, greedy_plan
from corruptlab.reconstruct import (
    LossTable,
    corrected_loss,
    corrected_sup_norm,
    is_reconstructible,
    op_norm_row_sum,
    pseudoinverse,
    zero_one_loss,
)
from corruptlab.simlab import (
    ExperimentConfig,
    fastrate_curve,
    gradient_check,
    log_loss,
    risk_curve,
)

from helpers import asym_noise, binary_noise, random_kernel, separable_instance_problem

GRID = [round(0.05 * i, 2) for i in range(10)]  # 0, 0.05, ..., 0.45


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {description}: {status}{suffix}")
    assert ok, f"criterion {number} failed {suffix}"


def test_criterion_01_binary_noise_table():
    start = time.monotonic()
    worst = 0.0
    for s_neg in GRID:
        for s_pos in GRID:
            if abs(1.0 - s_neg - s_pos) < 1e-12:
                continue
            t = build_kernel(binary_label_noise(s_neg, s_pos))
            rec = pseudoinverse(t)
            gap = abs(1.0 - s_neg - s_pos)
            closed_alpha = gap
            closed_row = max(1 - s_neg + s_pos, 1 - s_pos + s_neg) / gap
            closed_sup = max(1 - s_neg, 1 - s_pos, s_neg, s_pos) / gap
            worst = max(
                worst,
                abs(alpha(t) - closed_alpha),
                abs(op_norm_row_sum(rec) - closed_row),
                abs(corrected_sup_norm(rec, zero_one_loss(t.domain)) - closed_sup),
            )
    elapsed = time.monotonic() - start
    report(1, "binary label noise closed forms", worst <= 1e-9 and elapsed < 1.0,
           f"worst diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_three_class_table():
    start = time.monotonic()
    worst = 0.0
    for sigma in GRID:
        t = build_kernel(symmetric_label_noise(3, sigma))
        rec = pseudoinverse(t)
        gap = abs(2.0 - 3.0 * sigma)
        worst = max(
            worst,
            abs(op_norm_row_sum(rec) - (2 + sigma) / gap),
            abs(corrected_sup_norm(rec, zero_one_loss(t.domain)) - 2 * max(sigma, 1 - sigma) / gap),
            abs(alpha(t) - abs(1 - 1.5 * sigma)),
        )
    elapsed = time.monotonic() - start
    report(2, "three-class symmetric closed forms", worst <= 1e-9 and elapsed < 1.0,
           f"worst diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_partial_labels():
    start = time.monotonic()
    worst_alpha = 0.0
    worst_residual = 0.0
    for sigma in GRID:
        t = build_kernel(partial_labels(sigma))
        worst_alpha = max(worst_alpha, abs(alpha(t) - (1.0 - sigma)))
        rec = pseudoinverse(t)
        worst_residual = max(worst_residual,
                             float(np.abs(rec.matrix @ t.matrix - np.eye(3)).max()))
    elapsed = time.monotonic() - start
    report(3, "partial labels contraction and left inverse",
           worst_alpha <= 1e-12 and worst_residual <= 1e-9 and elapsed < 1.0,
           f"alpha diff {worst_alpha:.2e}, residual {worst_residual:.2e}")


def test_criterion_04_semi_supervised():
    worst_sym = 0.0
    for sigma in GRID[1:]:
        spec = semi_supervised(sigma, sigma)
        t = build_kernel(spec)
        worst_sym = max(worst_sym, abs(alpha(t) - sigma),
                        abs(op_norm_row_sum(pseudoinverse(t)) - 1.0 / sigma))
    worst_asym = 0.0
    for s1 in GRID[1:]:
        for s2 in GRID[1:]:
            worst_asym = max(worst_asym,
                             abs(alpha(build_kernel(semi_supervised(s1, s2))) - max(s1, s2)))
    # the printed symmetric corrected-0-1 norm has a suspect denominator;
    # compare and report the discrepancy without failing on it
    sigma = 0.25
    t = build_kernel(semi_supervised(sigma, sigma))
    numeric = corrected_sup_norm(pseudoinverse(t), zero_one_loss(t.domain))
    printed = (1 - 2 * sigma + 2 * sigma**2) / (2 * sigma + 3 * sigma - 5 * sigma**2)
    print(f"  note: symmetric semi-supervised corrected-0-1 norm at sigma={sigma}: "
          f"numeric {numeric:.6f} vs printed form {printed:.6f} "
          f"(difference {abs(numeric - printed):.3e}, reported only)")
    report(4, "semi-supervised closed forms",
           worst_sym <= 1e-9 and worst_asym <= 1e-12,
           f"sym diff {worst_sym:.2e}, asym diff {worst_asym:.2e}")


def test_criterion_05_strong_data_processing_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20250501)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        t = random_kernel(rng, m, k)
        p = Dist(t.domain, rng.dirichlet(np.ones(m)))
        q = Dist(t.domain, rng.dirichlet(np.ones(m)))
        ok = ok and sdpi_check(t, p, q, VARIATIONAL).holds
        ok = ok and sdpi_check(t, p, q, KL).holds
    # attainment: the worst column pair realizes alpha exactly under V
    attained = True
    for _ in range(50):
        t = random_kernel(rng, 3, 4)
        pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        i, j = max(pairs, key=lambda ij: variational(t.column(ij[0]), t.column(ij[1])))
        di, dj = point_mass(t.domain, t.domain.labels[i]), point_mass(t.domain, t.domain.labels[j])
        lhs = f_divergence(pushforward(t, di), pushforward(t, dj), VARIATIONAL)
        attained = attained and abs(lhs - alpha(t) * 1.0) <= 1e-12
    elapsed = time.monotonic() - start
    report(5, "strong data processing inequality suite", ok and attained and elapsed < 5.0,
           f"{elapsed:.2f}s")


def test_criterion_06_alpha_identities():
    rng = np.random.default_rng(20250601)
    worst_identity = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        t = random_kernel(rng, m, int(rng.integers(2, 6)))
        pairwise = max(
            variational(t.column(i), t.column(j))
            for i in range(m) for j in range(i + 1, m)
        )
        worst_identity = max(worst_identity, abs((1.0 - lambda_coeff(t)) - pairwise))
    composition_ok = True
    for _ in range(300):
        t1 = random_kernel(rng, 3, 4)
        t2 = Kernel(t1.codomain, Space(["z0", "z1", "z2"]),
                    rng.dirichlet(np.ones(3), size=4).T)
        composition_ok = composition_ok and \
            alpha(compose(t2, t1)) <= alpha(t2) * alpha(t1) + 1e-9
    worst_2x2 = 0.0
    space = Space(["a", "b"])
    for _ in range(300):
        m1 = rng.dirichlet(np.ones(2), size=2).T
        m2 = rng.dirichlet(np.ones(2), size=2).T
        t1, t2 = Kernel(space, space, m1), Kernel(space, space, m2)
        # brute-force sharpness: alpha of a 2x2 stochastic matrix is |det|
        worst_2x2 = max(worst_2x2,
                        abs(alpha(t1) - abs(np.linalg.det(m1))),
                        abs(alpha(compose(t2, t1)) - alpha(t2) * alpha(t1)))
    report(6, "contraction coefficient identities",
           worst_identity <= 1e-12 and composition_ok and worst_2x2 <= 1e-9,
           f"identity diff {worst_identity:.2e}, 2x2 diff {worst_2x2:.2e}")


def test_criterion_07_unbiasedness():
    start = time.monotonic()
    rng = np.random.default_rng(20250701)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 4))
        t = random_kernel(rng, m, int(rng.integers(m, 6)))
        rec = pseudoinverse(t)
        loss = LossTable(t.domain, ["a0", "a1", "a2"], rng.uniform(-1, 1, size=(m, 3)))
        tilde = corrected_loss(rec, loss)
        p = Dist(t.domain, rng.dirichlet(np.ones(m)))
        clean = p.weights @ loss.values
        noisy = (t.matrix @ p.weights) @ tilde.values
        worst = max(worst, float(np.abs(clean - noisy).max()))
    elapsed = time.monotonic() - start
    report(7, "corrected-loss unbiasedness", worst <= 1e-9 and elapsed < 2.0,
           f"worst diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_08_sandwich():
    rng = np.random.default_rng(20250801)
    ok = True
    done = 0
    while done < 500:
        m = int(rng.integers(2, 4))
        t = random_kernel(rng, m, int(rng.integers(m, 6)))
        if not is_reconstructible(t):
            continue
        rec = pseudoinverse(t)
        a = alpha(t)
        norm = op_norm_row_sum(rec)
        ok = ok and (a > 0.0) and (1.0 / a <= norm + 1e-9)
        loss = LossTable(t.domain, ["a0", "a1"], rng.uniform(-2, 2, size=(m, 2)))
        ok = ok and corrected_sup_norm(rec, loss) <= norm * loss.sup_norm + 1e-9
        done += 1
    report(8, "norm sandwich (1/alpha <= op norm, sup transfer)", ok)


def test_criterion_09_lecam_identity():
    rng = np.random.default_rng(20250901)
    worst = 0.0
    for _ in range(200):
        thetas = ("t0", "t1", "t2")
        problem = DecisionProblem(
            thetas, ("a0", "a1", "a2", "a3"),
            rng.uniform(0, 1, size=(3, 4)),
            Kernel(Space(thetas), Space(["o0", "o1", "o2"]),
                   rng.dirichlet(np.ones(3), size=3).T),
        )
        t = Kernel(problem.experiment.codomain, Space(["y0", "y1"]),
                   rng.dirichlet(np.ones(2), size=3).T)
        n = float(rng.integers(1, 40))
        worst = max(worst, abs(
            lecam_corrupted(problem, t, 0, 1, n)
            - lecam_replicated(problem, 0, 1, alpha(t) * n)))
    # worked coin example: rho = 0.2, V = 0.2, alpha = 0.5, n = 5
    thetas = ("0.4", "0.6")
    coin = DecisionProblem(
        thetas, tuple(f"{a / 10:.1f}" for a in range(11)),
        [[abs(t - a / 10) for a in range(11)] for t in (0.4, 0.6)],
        Kernel(Space(thetas), Space(["tails", "heads"]), [[0.6, 0.4], [0.4, 0.6]]),
    )
    noise = Kernel(coin.experiment.codomain, coin.experiment.codomain,
                   [[0.75, 0.25], [0.25, 0.75]])
    coin_value = lecam_corrupted(coin, noise, 0, 1, 5)
    report(9, "corrupted Le Cam equals replicated at effective count",
           worst <= 1e-12 and abs(coin_value - 0.025) <= 1e-12,
           f"identity diff {worst:.2e}, coin value {coin_value:.6f}")


def test_criterion_10_knapsack():
    start = time.monotonic()
    rng = np.random.default_rng(20251001)

    def brute_force(offers, budget):
        best = 0.0

        def recurse(i, remaining, value):
            nonlocal best
            if i == len(offers):
                best = max(best, value)
                return
            cost = offers[i].unit_cost
            for n in range(int(remaining // cost) + 1):
                recurse(i + 1, remaining - cost * n, value + offers[i].alpha * n)

        recurse(0, Fraction(budget), 0.0)
        return best

    exact_ok = True
    for _ in range(40):
        count = int(rng.integers(1, 5))
        offers = [SourceOffer(f"s{i}", float(np.round(rng.uniform(0.05, 1), 3)),
                              Fraction(int(rng.integers(1, 8))))
                  for i in range(count)]
        for budget in range(0, 31):
            got = exact_plan(offers, budget).objective
            want = brute_force(offers, budget)
            exact_ok = exact_ok and abs(got - want) <= 1e-9
    greedy_ok = True
    for _ in range(1000):
        count = int(rng.integers(1, 5))
        offers = [SourceOffer(f"s{i}", float(np.round(rng.uniform(0.05, 1), 3)),
                              Fraction(int(rng.integers(1, 8))))
                  for i in range(count)]
        budget = int(max(o.unit_cost for o in offers)) + int(rng.integers(0, 25))
        greedy_ok = greedy_ok and \
            greedy_plan(offers, budget).objective >= 0.5 * exact_plan(offers, budget).objective - 1e-12
    elapsed = time.monotonic() - start
    report(10, "knapsack exactness and greedy guarantee",
           exact_ok and greedy_ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_11_monte_carlo_envelope():
    start = time.monotonic()
    rng = np.random.default_rng(20251101)
    space = Space(["-1", "+1"])
    loss = LossTable(space, [f"a{i}" for i in range(10)], rng.uniform(0, 1, size=(2, 10)))
    config = ExperimentConfig(
        clean_dist=Dist(space, [0.3, 0.7]),
        loss=loss,
        corruption=binary_label_noise(0.25, 0.25),
        sample_sizes=(25, 100, 400, 1600),
        trials=200,
        seed=20251102,
    )
    curve = risk_curve(config)
    ok = all(row.mean_excess_risk <= row.envelope for row in curve.rows)
    elapsed = time.monotonic() - start
    detail = "; ".join(f"n={r.n}: {r.mean_excess_risk:.4f} <= {r.envelope:.4f}"
                       for r in curve.rows)
    report(11, "PAC-Bayes envelope dominates corrected ERM", ok and elapsed < 60.0, detail)


def test_criterion_12_fast_rate_signature():
    start = time.monotonic()
    # Bernstein constant of the clean separable pair is exactly 1
    clean, loss, corruption = separable_instance_problem()
    bern = bernstein_constant(clean, loss)

    # compatibility constant matches the closed form for binary label noise
    s_neg = s_pos = 0.2
    t = asym_noise(s_neg, s_pos)
    eta = eta_compatibility(zero_one_loss(t.domain), pseudoinverse(t))
    closed = max(((1 + s_neg - s_pos) / (1 - s_neg - s_pos)) ** 2,
                 ((1 + s_pos - s_neg) / (1 - s_neg - s_pos)) ** 2)
    corrected = corrected_loss(pseudoinverse(t), zero_one_loss(t.domain))
    brute = 0.0
    for z in range(2):
        for a1 in range(2):
            for a2 in range(2):
                clean_sq = (zero_one_loss(t.domain).values[z, a1]
                            - zero_one_loss(t.domain).values[z, a2]) ** 2
                corr_sq = max((corrected.values[zz, a1] - corrected.values[zz, a2]) ** 2
                              for zz in range(2) if t.matrix[zz, z] > 0)
                if clean_sq > 1e-12:
                    brute = max(brute, corr_sq / clean_sq)
    eta_ok = abs(eta - closed) <= 1e-9 and abs(eta - brute) <= 1e-12

    config = ExperimentConfig(
        clean_dist=clean,
        loss=loss,
        corruption=corruption,
        sample_sizes=(50, 100, 200, 400, 800),
        trials=300,
        seed=20251201,
    )
    fast = fastrate_curve(config)
    ratio_ok = fast.mean_ratio <= 0.75
    elapsed = time.monotonic() - start
    report(12, "fast-rate signature under label noise",
           bern == 1.0 and eta_ok and ratio_ok and elapsed < 120.0,
           f"bernstein {bern}, eta {eta:.6f} vs closed {closed:.6f}, "
           f"mean ratio {fast.mean_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_13_convexity_preservation():
    rng = np.random.default_rng(20251301)
    psi = log_loss()
    midpoint_ok = True
    for t in (build_kernel(binary_label_noise(0.2, 0.1)),
              build_kernel(partial_labels(0.3))):
        rec = pseudoinverse(t)
        w = rng.dirichlet(np.ones(len(t.codomain)))
        linear = rec.matrix @ w

        def g(v):
            return float(linear @ v) + psi.psi(v)

        dim = len(t.domain)
        for _ in range(1000):
            v1 = rng.normal(0, 3, dim)
            v2 = rng.normal(0, 3, dim)
            midpoint_ok = midpoint_ok and \
                g(0.5 * (v1 + v2)) <= 0.5 * (g(v1) + g(v2)) + 1e-9
    worst_gradient = 0.0
    for t in (build_kernel(binary_label_noise(0.2, 0.1)),
              build_kernel(partial_labels(0.3))):
        for _ in range(20):
            worst_gradient = max(worst_gradient,
                                 gradient_check(psi, t, rng.normal(0, 2, len(t.domain))))
    report(13, "corrected canonical objective stays convex",
           midpoint_ok and worst_gradient <= 1e-6,
           f"worst gradient error {worst_gradient:.2e}")


def test_criterion_14_determinism(tmp_path, capsys):
    space = Space(["-1", "+1"])
    config = ExperimentConfig(
        clean_dist=Dist(space, [0.3, 0.7]),
        loss=zero_one_loss(space),
        corruption=binary_label_noise(0.25, 0.25),
        sample_sizes=(25, 50),
        trials=25,
        seed=20251401,
    )
    csv_ok = risk_curve(config).to_csv() == risk_curve(config).to_csv()

    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps(kernel_to_json(binary_noise(0.2))))
    outputs = []
    for _ in range(2):
        code = cli_main(["analyze", "--kernel", str(kernel_path)])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    tables = []
    for _ in range(2):
        code = cli_main(["tables", "--family", "binary_label_noise", "--grid", "0:0.45:0.05"])
        assert code == 0
        tables.append(capsys.readouterr().out)
    report(14, "byte-identical reruns at fixed seed",
           csv_ok and outputs[0] == outputs[1] and tables[0] == tables[1])
