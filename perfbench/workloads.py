"""The benchmark's four workloads.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Each draws its inputs from the
workload seed; fluxgrad sees only the generated inputs. An operation
returns an :class:`Outcome` whose digest must repeat whenever the same
operation runs again, which checks the byte-determinism contract.

Later performance claims must also hold on ``HELD_OUT_SEED``, a seed that
was not used while the benchmark was written or tuned.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import reference
from fluxgrad import divergence, evalkit, models, neflag, train
from fluxgrad.errors import NoNegativeFlux

HELD_OUT_SEED = 104729

CLITRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clitrace.py")

# The criterion-10 toy fit of the acceptance tests: dim 8, hidden (8,) tanh,
# sigmoid head; only the first four features carry the label.
TOY_WEIGHTS = np.array([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
EVAL_METHODS = ("neflag", "ig", "smoothgrad", "saliency", "random")  # the CLI default set


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: bytes
    gate_error: str | None = None


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.digest()


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _toy_fit():
    X, y = train.linear_rule_dataset(TOY_WEIGHTS, n=400, seed=5)
    return train.fit_toy_model(X, y, hidden=(8,), epochs=500, learning_rate=0.5, seed=2).model


def _field_model(seed):
    return models.random_mlp(
        8, hidden=(32,), out_dim=3, activation="tanh", seed=seed, head=models.Head("softmax", target=0)
    )


class AttrTabular:
    """Repeated ``neflag_attribute`` calls on the criterion-10 toy fit.

    Why: bound by per-call overhead, almost all ``neflag`` and single-row
    ``models`` work. A default attribution makes 80 model calls and an m=5
    one 160; the ``none`` rule accepts about half its candidates. This is
    the mechanism of ROADMAP item 2. The m=5 quarter gives the latency tail
    a structural cause, and ``none`` puts rejection to work.
    """

    name = "attr-tabular"
    ref_kernel = reference.SmallModelCalls
    op_unit = "attributions"
    work_per_op = 1
    alias = {"ops_per_s": "attributions_per_s", "latency_p50_ms": "attr_latency_p50_ms",
             "latency_tail_ms": "attr_latency_p90_ms"}
    # p90 falls inside the m=5 quarter, the tail's structural cause. On a
    # shared host p99 is set by the host's millisecond stalls, not by fluxgrad.
    tail_pct = 90
    min_ops = 1000  # at least 1,000 attributions, each operation 15 times
    warmup_ops = 8
    trace_ops = 512
    # Calls take turns through the defaults (half), normalized m=5 and none.
    CONFIGS = (
        ("sign", {}),
        ("normalized", {"step_rule": "normalized", "max_steps": 5}),
        ("sign", {}),
        ("none", {"step_rule": "none"}),
    )

    def __init__(self, seed, workdir):
        self.model = _toy_fit()
        xs, _ = train.linear_rule_dataset(TOY_WEIGHTS, n=64, seed=int(_rng(seed, 1).integers(2**31)))
        cfg_seeds = _rng(seed, 2).integers(2**31, size=len(xs))
        self.ops = []
        for i, x in enumerate(xs):
            tag, kw = self.CONFIGS[i % len(self.CONFIGS)]
            self.ops.append((tag, x, neflag.NeflagConfig(seed=int(cfg_seeds[i]), **kw)))
        self.tracer = None

    def run(self, i) -> Outcome:
        tag, x, cfg = self.ops[i]
        if self.tracer is not None:
            self.tracer.tag = tag
        try:
            amap = neflag.neflag_attribute(self.model, x, cfg)
        except NoNegativeFlux:
            return Outcome(1, 1, _digest("NoNegativeFlux"))
        finally:
            if self.tracer is not None:
                self.tracer.tag = None
        v = amap.values
        gate = None
        if v.size != self.model.dim or not np.all(np.isfinite(v)) or amap.samples_used != cfg.n_samples:
            gate = f"op {i}: map of length {v.size}, samples_used {amap.samples_used}"
        return Outcome(1, 0, _digest(v.tobytes(), amap.samples_used), gate)


class EvalImage:
    """``evalkit.benchmark`` on synthetic 28x28 images with blur replacement.

    Why: curves cost more than attribution here. Each (input, method) job
    builds 6 curves of 785 rows, 4,710 ``evaluate_batch`` rows on
    large-batch ``models`` passes, plus the scipy blur. This is where
    ROADMAP items 3a-3d show, while ``neflag`` is a small share.
    One operation is one ``benchmark`` call on one image and the five
    CLI-default methods, so it counts five jobs.
    """

    name = "eval-image"
    ref_kernel = reference.DenseForward
    op_unit = "jobs"
    work_per_op = len(EVAL_METHODS)
    alias = {"ops_per_s": "eval_jobs_per_s", "latency_p50_ms": "eval_call_latency_p50_ms",
             "latency_tail_ms": "eval_call_latency_p75_ms"}
    tail_pct = 75
    min_ops = 50
    warmup_ops = 1
    trace_ops = 8

    def __init__(self, seed, workdir):
        rng = _rng(seed, 1)
        self.model = models.random_mlp(
            784, hidden=(128,), out_dim=10, activation="softplus",
            seed=int(rng.integers(2**31)), head=models.Head("softmax", target=int(rng.integers(10))),
        )
        self.methods = {name: evalkit.make_method(name) for name in EVAL_METHODS}
        self.cfg = evalkit.EvalConfig("blur", grid=(28, 28))
        self.ops = [(_image(rng), int(rng.integers(2**31))) for _ in range(4)]

    def run(self, i) -> Outcome:
        img, bench_seed = self.ops[i]
        report = evalkit.benchmark(self.model, [img], self.methods, self.cfg, seed=bench_seed)
        failed = sum(r.samples_failed for r in report.results)
        gate = None
        for r in report.results:
            means = (r.deletion_mean, r.insertion_mean, r.difference_mean)
            if r.samples_ok + r.samples_failed != 1 or not np.all(np.isfinite(means)):
                gate = f"op {i}: method {r.method} ok={r.samples_ok} failed={r.samples_failed}"
        return Outcome(len(report.results), failed, _digest(report.json_str()), gate)


def _image(rng):
    """A smooth 28x28 image in [0, 1]: a few Gaussian blobs plus faint noise."""
    yy, xx = np.mgrid[0:28, 0:28]
    img = np.zeros((28, 28))
    for _ in range(int(rng.integers(2, 5))):
        cy, cx = rng.uniform(4, 24, size=2)
        width = rng.uniform(2.0, 5.0)
        img += rng.uniform(0.5, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
    img += 0.05 * rng.standard_normal((28, 28))
    return np.clip(img, 0.0, 1.0).ravel()


class VerifyField:
    """``divergence_theorem_report`` on a smooth dim-8 softmax MLP.

    Why: it uses ``models`` the opposite way from attr-tabular: a few huge
    ``gradient_batch`` calls, 17 rows per Monte Carlo sample, plus
    ``geometry`` ball and sphere sampling. A fused value-and-grad pass shows
    here, and so does a change that trades big-batch throughput for lower
    per-call overhead. Throughput counts Monte Carlo samples per side.
    """

    name = "verify-field"
    ref_kernel = reference.FieldGradient
    op_unit = "reports"
    alias = {"ops_per_s": "verify_samples_per_s", "latency_p50_ms": "verify_report_latency_p50_ms",
             "latency_tail_ms": "verify_report_latency_p75_ms"}
    tail_pct = 75
    min_ops = 100
    warmup_ops = 1
    trace_ops = 16
    SAMPLES = 10_000
    EPSILON = 0.5
    work_per_op = SAMPLES

    def __init__(self, seed, workdir):
        rng = _rng(seed, 1)
        self.model = _field_model(int(rng.integers(2**31)))
        self.ops = [
            (neflag.SphereSpec(0.5 * rng.standard_normal(8), self.EPSILON), int(rng.integers(2**31)))
            for _ in range(4)
        ]

    def run(self, i) -> Outcome:
        sphere, mc_seed = self.ops[i]
        report = divergence.divergence_theorem_report(self.model, sphere, samples=self.SAMPLES, seed=mc_seed)
        gate = None if report.passed else f"op {i}: verdict FAIL ({report.to_json()})"
        return Outcome(1, int(not report.passed), _digest(report.json_str()), gate)


class CliCold:
    """Sequential ``python -m fluxgrad.cli`` processes: attribute, verify, eval.

    Why: CLI users pay interpreter start, imports and JSON/CSV I/O on every
    run, so the ``cli`` layer needs its own workload. Import dominates
    (scipy alone is over half of it), which is where dropping scipy
    (ROADMAP item 3d) shows.
    """

    name = "cli-cold"
    ref_kernel = reference.ColdImport
    op_unit = "runs"
    work_per_op = 1
    alias = {"ops_per_s": "cli_runs_per_s", "latency_p50_ms": "cli_latency_p50_ms",
             "latency_tail_ms": "cli_latency_p75_ms"}
    tail_pct = 75
    min_ops = 40
    warmup_ops = 1
    trace_ops = 6
    VERIFY_SAMPLES = 4000

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = _rng(seed, 1)
        models.save_model(_toy_fit(), self._path("toy.json"))
        models.save_model(_field_model(int(rng.integers(2**31))), self._path("field.json"))
        X, y = train.linear_rule_dataset(TOY_WEIGHTS, n=9, seed=int(rng.integers(2**31)))
        np.savetxt(self._path("x.txt"), X[8:9])
        np.savetxt(self._path("c.txt"), 0.5 * rng.standard_normal((1, 8)))
        train.save_dataset_csv(self._path("data.csv"), X[:8], y[:8])
        s = [str(v) for v in rng.integers(2**31, size=3)]
        # One of each subcommand, so that each repeats often enough in a run
        # for the median of its repetitions to be a steady estimate of its cost.
        self.ops = [
            ("attribute", ["--model=toy.json", "--input=x.txt", "--method=neflag", f"--seed={s[0]}",
                           "--out=att"], ["att.json", "att.csv"]),
            ("verify", ["--model=field.json", "--input=c.txt", f"--samples={self.VERIFY_SAMPLES}",
                        f"--seed={s[1]}", "--out=ver.json"], ["ver.json"]),
            ("eval", ["--model=toy.json", "--input=data.csv", f"--seed={s[2]}", "--out=ev"], ["ev.json", "ev.csv"]),
        ]
        self.tracer = None  # set for traced passes: children run under clitrace.py

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def command(self, i):
        sub, args, _ = self.ops[i]
        if self.tracer is None:
            return [sys.executable, "-m", "fluxgrad.cli", sub, *args]
        return [sys.executable, CLITRACE, self._path("trace.json"), sub, *args]

    def run(self, i) -> Outcome:
        sub, _, outputs = self.ops[i]
        for name in outputs:
            if os.path.exists(self._path(name)):
                os.remove(self._path(name))
        res = subprocess.run(self.command(i), cwd=self.workdir, capture_output=True, timeout=120)
        if self.tracer is not None and res.returncode == 0:
            with open(self._path("trace.json")) as fh:
                self.tracer.merge(json.load(fh))
        if res.returncode != 0:
            err = res.stderr.decode(errors="replace").strip().splitlines()
            return Outcome(1, 1, _digest("exit", res.returncode), f"{sub} exited {res.returncode}: {err[-1:]}")
        blobs = []
        for name in outputs:
            with open(self._path(name), "rb") as fh:
                blobs.append(fh.read())
        return Outcome(1, 0, _digest(*blobs))


WORKLOADS = {w.name: w for w in (AttrTabular, EvalImage, VerifyField, CliCold)}
