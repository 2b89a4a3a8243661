"""Shared builders for the test suite."""

import importlib
import json
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import corruptlab
from corruptlab import errors, planner, simlab
from corruptlab.kernels import Dist, Kernel, Space, identity, parallel_product, product_space
from corruptlab.reconstruct import LossTable, corrected_loss


def binary_noise(sigma):
    """Symmetric binary label noise as an explicit kernel."""
    space = Space(["-1", "+1"])
    return Kernel(space, space, [[1 - sigma, sigma], [sigma, 1 - sigma]])


def asym_noise(s_neg, s_pos):
    space = Space(["-1", "+1"])
    return Kernel(space, space, [[1 - s_neg, s_pos], [s_neg, 1 - s_pos]])


def constant_kernel(domain, column):
    to = Space([f"y{i}" for i in range(len(column))])
    matrix = np.tile(np.asarray(column, dtype=float)[:, None], (1, len(domain)))
    return Kernel(domain, to, matrix)


def random_kernel(rng, m, k):
    """Columns drawn from a flat Dirichlet, full support, seeded."""
    return Kernel(
        Space([f"x{i}" for i in range(m)]),
        Space([f"y{i}" for i in range(k)]),
        rng.dirichlet(np.ones(k), size=m).T,
    )


def random_dist(rng, space):
    return Dist(space, rng.dirichlet(np.ones(len(space))))


def separable_instance_problem():
    """Separable binary-label classification over 8 instances.

    Outcomes are instance/label pairs with deterministic labels; actions are
    the true classifier plus every one-instance flip; the corruption flips
    only the label coordinate.
    """
    m = 8
    instances = Space([f"x{i}" for i in range(m)])
    labels = Space(["-1", "+1"])
    outcomes = product_space([instances, labels])
    truth = ["+1" if i % 2 == 0 else "-1" for i in range(m)]
    weights = np.zeros(len(outcomes))
    for i in range(m):
        weights[2 * i + (1 if truth[i] == "+1" else 0)] = 1.0 / m
    clean = Dist(outcomes, weights)

    def classifier_loss(flip):
        col = np.zeros(len(outcomes))
        for i in range(m):
            predicted = truth[i] if flip != i else ("-1" if truth[i] == "+1" else "+1")
            for j, label in enumerate(("-1", "+1")):
                col[2 * i + j] = 0.0 if predicted == label else 1.0
        return col

    actions = ["bayes"] + [f"flip{i}" for i in range(m)]
    values = np.column_stack([classifier_loss(None)] + [classifier_loss(i) for i in range(m)])
    loss = LossTable(outcomes, actions, values)
    corruption = parallel_product([identity(instances), binary_noise(0.2)])
    return clean, loss, corruption


def curve_by_size(config, rec):
    """The risk curve one sample size at a time, the oracle of
    ``simlab._curve``: each size's cells are drawn and scored in passes of at
    most ``SCORE_CHUNK_ENTRIES`` within that size, and its row is written
    from that size's excess risks alone."""
    p = config.clean_dist
    table = corrected_loss(rec, config.loss)
    clean_risks = p.weights @ config.loss.values
    best = float(clean_risks.min())
    q = rec.kernel.matrix @ p.weights
    q = q / q.sum()
    kl = math.log(len(config.loss.actions))
    rng = simlab._generator(config.seed)
    fresh = simlab._fresh_state(rng)
    per_pass = max(1, simlab.SCORE_CHUNK_ENTRIES // max(len(q), len(table.actions)))
    rows = []
    for n_idx, n in enumerate(config.sample_sizes):
        cells = range(n_idx * config.trials, (n_idx + 1) * config.trials)
        passes = (cells[i:i + per_pass] for i in range(0, len(cells), per_pass))
        chosen = np.concatenate([simlab.erm_indices(np.array([simlab._rekey(rng, fresh, key).multinomial(n, q)
                                                              for key in simlab._trial_seeds(config.seed, part)]),
                                                    table)
                                 for part in passes])
        excess = clean_risks[chosen] - best
        stderr = float(excess.std(ddof=1) / math.sqrt(len(excess))) if len(excess) > 1 else 0.0
        rows.append(simlab.RiskPoint(n, float(excess.mean()), stderr, table.sup_norm * math.sqrt(2.0 * kl / n)))
    return simlab.RiskCurve(tuple(rows))


def gilmore_gomory_plan(offers, budget):
    """The exact plan with its DP over the Gilmore-Gomory width alone,
    min(capacity, (c_b - 1) * c_max), scanned by ``np.maximum.accumulate``
    and filled in floats (the oracle of ``planner.exact_plan``): the plan,
    the DP's cells and the width."""
    ordered, costs, capacity, scale = planner._scaled(offers, budget)
    b = next((i for i, c in enumerate(costs) if c <= capacity), 0)
    c_b, alpha_b = costs[b], ordered[b].alpha
    width = min(capacity, (c_b - 1) * max((c for c in costs if c <= capacity), default=0))
    best = np.zeros(width + 1)
    pick = np.full(width + 1, -1, np.min_scalar_type(-len(costs)))
    for k, (c, o) in enumerate(zip(costs, ordered)):
        if c > width:
            continue
        rows = -(-(width + 1) // c)
        flat = np.full(rows * c, -math.inf)
        flat[:width + 1] = best
        scan, steps = flat.reshape(rows, c), np.arange(rows + 1.0) * o.alpha
        scan -= steps[:-1, None]
        np.maximum.accumulate(scan, axis=0, out=scan)
        scan += steps[1:, None]
        buys = flat[:width + 1 - c]
        pick[c:][buys > best[c:]] = k
        np.maximum(best[c:], buys, out=best[c:])
    fill = np.arange(capacity, capacity - width - 1, -1.0) if alpha_b > 0.0 else np.zeros(width + 1)
    fill //= c_b
    totals = alpha_b * fill + best
    w = int(np.argmax(totals >= totals.max() * (1.0 - planner.PLAN_TIE_RTOL)))
    counts = [0] * len(ordered)
    counts[b] = int(fill[w])
    while (k := pick[w]) >= 0:
        counts[k] += 1
        w -= costs[k]
    return planner._plan(ordered, costs, counts, scale), best, width


def fraction_width(offers, budget):
    """The exact plan's DP width with the density gap taken in Fractions (the
    oracle of ``planner.exact_plan``'s integer width): the Gilmore-Gomory
    width, cut to floor(L / (d_b - d_2)) when d_b > d_2, and 0 when b is the
    only offer the budget can buy."""
    ordered, costs, capacity, _ = planner._scaled(offers, budget)
    b = next((i for i, c in enumerate(costs) if c <= capacity), 0)
    c_b, alpha_b = costs[b], ordered[b].alpha
    others = [i for i in range(b + 1, len(costs)) if costs[i] <= capacity]
    if not others:
        return 0
    width = min(capacity, (c_b - 1) * max(c_b, *(costs[i] for i in others)))
    d_b = Fraction(alpha_b) / c_b
    gap = d_b - max(Fraction(ordered[i].alpha) / costs[i] for i in others)
    if gap > 0:
        loss = d_b * (c_b - 1) + 2 * Fraction(planner.PLAN_TIE_RTOL) * Fraction(alpha_b) * (capacity // c_b)
        width = min(width, math.floor(loss / gap))
    return width


def patch_guards(monkeypatch, replacement):
    """Put ``replacement`` in place of ``errors.guard`` in every module that
    calls it, and return the names of those modules."""
    modules = [importlib.import_module(f"corruptlab.{info.name}") for info in pkgutil.iter_modules(corruptlab.__path__)]
    modules = [module for module in modules if module is not errors and getattr(module, "guard", None) is errors.guard]
    for module in modules:
        monkeypatch.setattr(module, "guard", replacement)
    return sorted(module.__name__ for module in modules)


# -- one valid JSON document per CLI input role ------------------------------------

_KERNEL = {"from": ["-1", "+1"], "to": ["-1", "+1"], "matrix": [[0.8, 0.3], [0.2, 0.7]]}
_LOSS = {"outcomes": ["-1", "+1"], "actions": ["-1", "+1"], "values": [[0.0, 1.0], [1.0, 0.0]]}
DOCUMENTS = {
    "kernel": _KERNEL,
    "loss": _LOSS,
    "config": {
        "clean": {"space": ["-1", "+1"], "weights": [0.3, 0.7]},
        "loss": _LOSS,
        "corruption": {"family": "binary_label_noise",
                       "params": {"sigma_neg": 0.2, "sigma_pos": 0.3}},
        "sample_sizes": [10, 20],
        "trials": 3,
        "seed": 5,
    },
    "offers": [
        {"name": "A", "alpha": 0.9, "cost": {"num": 3, "den": 1}, "corrected_sup": 2.0},
        {"name": "B", "alpha": 0.5, "cost": 1},
    ],
    "problem": {"thetas": ["t0", "t1"], "actions": ["a0", "a1"], "loss": [[0.0, 1.0], [1.0, 0.0]],
                "experiment": _KERNEL | {"from": ["t0", "t1"]}},
    "mix": [{"count": 10, "alpha": 0.7}, {"count": 6, "kernel": _KERNEL, "corrected_sup": 1.5}],
}


def role_argv(role, directory, path):
    """CLI arguments that read the file `path` as the document of `role`; the
    other inputs are valid documents written under `directory`."""
    valid = {}
    for name in ("kernel", "problem"):
        valid[name] = str(Path(directory) / f"valid-{name}.json")
        Path(valid[name]).write_text(json.dumps(DOCUMENTS[name]))
    lecam = ["lecam", "--theta1", "0", "--theta2", "1"]
    return {
        "kernel": ["analyze", "--kernel", path],
        "loss": ["analyze", "--kernel", valid["kernel"], "--loss", path],
        "config": ["simulate", "--config", path, "--out", str(Path(directory) / "out.csv")],
        "offers": ["plan", "--offers", path, "--budget", "10"],
        "problem": [*lecam, "--problem", path],
        "mix": [*lecam, "--problem", valid["problem"], "--mix", path],
    }[role]
