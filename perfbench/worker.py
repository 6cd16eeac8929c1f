"""Benchmark worker: builds one workload and measures it.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; it
prints one JSON object on its last stdout line for ``run.py`` to read.

Untraced (``--trace 0``): warm up, then run the closed loop for at least
``--seconds`` seconds and at least the workload's ``min_ops`` operations,
timing the workload's reference kernel beside it (see reference.py).
Traced (``--trace 1``): run the workload's fixed ``trace_ops`` operations
four times, alternating untraced and traced. The two traced passes must
count exactly the same work; the gap between traced and untraced wall
time is the tracing overhead.
"""

import argparse
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

import reference
import tracing
from workloads import WORKLOADS

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")
HARD_CAP_S = 120.0  # stop measuring here even if min_ops is not reached
CAL_EVERY_S = 0.25  # the reference kernel is timed at least this often
PROBE_REPEATS = 5


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def machine_record(root) -> dict:
    """Machine and design record kept beside every result (not a metric)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "fluxgrad", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    try:
        import tomllib

        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
    except (ImportError, OSError, KeyError):
        deps = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fluxgrad_threads": os.environ.get("FLUXGRAD_THREADS", "unset (library default 1)"),
        "src_lines": src_lines,
        "runtime_dependencies": deps,
    }


class Checker:
    """Counts outcomes and checks that a repeated operation repeats its output."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.first = {}
        self.error = None

    def record(self, i, out):
        self.attempted += out.attempted
        self.failed += out.failed
        if out.gate_error and self.error is None:
            self.error = out.gate_error
        if self.first.setdefault(i, out.digest) != out.digest and self.error is None:
            self.error = f"op {i}: output differs between repeats of the same operation"

    def digest(self):
        return "".join(self.first[i].hex()[:16] for i in sorted(self.first))


def timed_loop(w, checker, seconds, ref):
    """Closed loop over the workload's operations.

    Returns each operation's latency and the reference kernel's time
    measured just before it (at most CAL_EVERY_S earlier).
    """
    lat, cal = [], []
    last_cal = -CAL_EVERY_S
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        now = time.perf_counter()
        if (now >= deadline and len(lat) >= w.min_ops) or now - start >= HARD_CAP_S:
            break
        if now - last_cal >= CAL_EVERY_S:
            ref_now = reference.time_s(ref)
            last_cal = time.perf_counter()
        i = len(lat) % len(w.ops)
        t0 = time.perf_counter()
        out = w.run(i)
        lat.append(time.perf_counter() - t0)
        cal.append(ref_now)
        checker.record(i, out)
    return np.asarray(lat), np.asarray(cal), time.perf_counter() - start


def one_pass(w, checker, n):
    """Run operations 0..n-1 (cycling), return wall seconds and per-op times."""
    lat = []
    start = time.perf_counter()
    for k in range(n):
        i = k % len(w.ops)
        t0 = time.perf_counter()
        out = w.run(i)
        lat.append(time.perf_counter() - t0)
        checker.record(i, out)
    return time.perf_counter() - start, lat


def process_s(argv, cwd) -> float:
    """Fastest wall time of PROBE_REPEATS runs of a process."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=cwd, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return min(times)


def warm_up(w) -> Checker:
    """Run the first ``warmup_ops`` operations, checked but not timed."""
    checker = Checker()
    for k in range(w.warmup_ops):
        checker.record(k % len(w.ops), w.run(k % len(w.ops)))
    return checker


def setup_scale() -> float:
    """Factor that takes a set-up time to the quiet-host speed of a cold import."""
    ref = reference.ColdImport()
    return ref.ref_s / reference.time_s(ref)


def run_untraced(W, args, workdir, record):
    w = W(args.seed, workdir)
    # Set-up ends here: import, model fit or build and input generation.
    # The warm-up below runs whole operations, so it is not part of set-up.
    ready = time.monotonic()
    scale = setup_scale()
    if args.setup_only:
        return {"ready": ready, "setup_scale": scale}
    checker = warm_up(w)
    ref = W.ref_kernel()
    lat, cal, wall = timed_loop(w, checker, args.seconds, ref)
    # Every latency at the reference kernel's quiet-host speed (see reference.py).
    norm = lat * (ref.ref_s / cal)
    metrics = {
        "ops_per_s": len(lat) * W.work_per_op / norm.sum(),
        "latency_p50_ms": float(np.percentile(norm, 50)) * 1e3,
        "latency_tail_ms": float(np.percentile(norm, W.tail_pct)) * 1e3,
        "peak_rss_mb": peak_rss_mb(children=W.name == "cli-cold"),
    }
    raw = {
        "ops_per_s": len(lat) * W.work_per_op / lat.sum(),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_tail_ms": float(np.percentile(lat, W.tail_pct)) * 1e3,
    }
    # How much slower than quiet the host ran, by the reference kernel: runs
    # compared with each other should have been made at similar host speed.
    slowdown = float(np.median(cal)) / ref.ref_s
    record.update(ops=len(lat), measured_s=wall, tail_pct=W.tail_pct, raw=raw, digest=checker.digest(),
                  host_slowdown=slowdown,
                  reference={"kernel": type(ref).__name__, "ref_ms": ref.ref_s * 1e3,
                             "measured_ms_min_median_max": (np.percentile(cal, [0, 50, 100]) * 1e3).tolist()})
    return {"ready": ready, "setup_scale": scale, "checker": checker, "metrics": metrics, "raw": raw,
            "host_slowdown": slowdown}


def run_traced(W, args, workdir, record):
    setup = tracing.Tracer()
    inst = tracing.Installation(setup)
    try:
        w = W(args.seed, workdir)
    finally:
        inst.remove()
    checker = warm_up(w)

    # Untraced and traced passes alternate, so drift in machine speed
    # falls on both sides of the overhead estimate.
    untraced, passes, lat = [], [], []
    for _ in range(2):
        wall, times = one_pass(w, checker, W.trace_ops)
        untraced.append(wall)
        lat += times
        t = tracing.Tracer()
        inst = tracing.Installation(t)
        w.tracer = t
        try:
            wall, _ = one_pass(w, checker, W.trace_ops)
        finally:
            w.tracer = None
            inst.remove()
        passes.append((t, wall))
    (t1, wall1), (t2, wall2) = passes
    if t1.counts != t2.counts and checker.error is None:
        diff = sorted(k for k in set(t1.counts) | set(t2.counts) if t1.counts[k] != t2.counts[k])
        checker.error = f"traced passes counted different work: {diff[:5]}"

    metrics = tracing.layer_metrics(t1)
    metrics["train.fit_toy_model.self_s"] = setup.self_s["train.fit_toy_model"]
    cli = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.attribute_ms": 0.0, "cli.verify_ms": 0.0, "cli.eval_ms": 0.0}
    if W.name == "cli-cold":
        interp = process_s([sys.executable, "-c", "pass"], workdir)
        imp = process_s([sys.executable, "-c", "import fluxgrad.cli"], workdir)
        cli["cli.interpreter_s"] = interp
        cli["cli.import_s"] = imp - interp
        for sub in ("attribute", "verify", "eval"):
            mine = [s for k, s in enumerate(lat) if w.ops[k % W.trace_ops % len(w.ops)][0] == sub]
            cli[f"cli.{sub}_ms"] = min(mine) * 1e3
    metrics.update(cli)
    metrics["trace.overhead_share"] = (wall1 + wall2) / sum(untraced) - 1.0
    metrics["trace.ops"] = W.trace_ops
    record.update(
        ops=W.trace_ops,
        exact_counts={k: metrics[k] for k in tracing.EXACT_COUNT_KEYS},
        traced_wall_s=[wall1, wall2],
        untraced_wall_s=untraced,
        digest=checker.digest(),
    )
    return {"checker": checker, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    W = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        res = (run_traced if args.trace else run_untraced)(W, args, workdir, record)
    finally:
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                os.remove(os.path.join(workdir, name))
            os.rmdir(workdir)
    if args.setup_only:
        print(json.dumps({"ready": res["ready"], "setup_scale": res["setup_scale"]}))
        return 0

    checker = res["checker"]
    record.update(machine=machine_record(root), correct=checker.error is None, gate_error=checker.error,
                  attempted=checker.attempted, failed=checker.failed, metrics=res["metrics"])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "ready": res.get("ready"),
        "setup_scale": res.get("setup_scale"),
        "host_slowdown": res.get("host_slowdown"),
        "correct": checker.error is None,
        "gate_error": checker.error,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": res["metrics"],
        "alias": W.alias,
        "op_unit": W.op_unit,
        "ops": record["ops"],
        "digest": record["digest"],
        "exact_counts": record.get("exact_counts"),
        "raw": res.get("raw"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
