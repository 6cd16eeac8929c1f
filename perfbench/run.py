"""fluxgrad benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it name every metric as the workload
means it, with its unit. See perfbench/NOTES.md.

This controller uses the standard library only. It starts the worker
(perfbench/worker.py) as a fresh process, several times for ``setup_s``,
with the checkout's ``src`` on the path, one BLAS thread and
``FLUXGRAD_THREADS`` unset, and waits for each to end. Timed metrics are
rescaled by reference kernels timed beside the workload (reference.py).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("attr-tabular", "eval-image", "verify-field", "cli-cold")
SETUP_REPEATS = 3  # setup_s is the median of this many fresh worker start-ups
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith((".calls", ".rows", ".candidates", ".ops")):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def worker_env():
    env = dict(os.environ)
    env.pop("FLUXGRAD_THREADS", None)  # library default: one benchmark thread
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the caller plus BLAS stay within nproc (2) threads
    return env


def start_worker(args, started, setup_only):
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    remaining = DEADLINE_S - (t0 - started)
    # A process group of its own, so that a timeout also stops the CLI processes it runs.
    proc = subprocess.Popen(argv, env=worker_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    doc = json.loads(lines[-1])
    if doc.get("setup_scale"):
        # CLOCK_MONOTONIC is shared by all processes. Like the timed metrics,
        # set-up time is taken to quiet-host speed by a reference kernel.
        doc["setup_raw_s"] = doc["ready"] - t0
        doc["setup_s"] = doc["setup_raw_s"] * doc["setup_scale"]
    return doc


def main(argv=None):
    started = time.monotonic()
    p = argparse.ArgumentParser(description="fluxgrad benchmark (see perfbench/NOTES.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fluxgrad", "__init__.py")):
        print(f"perfbench: no fluxgrad sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(start_worker(args, started, setup_only=True))
        doc = start_worker(args, started, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{doc['ops']} operations, output digest {doc['digest'][:32]}")
    if doc["gate_error"]:
        print(f"  correctness gate FAILED: {doc['gate_error']}")
    share = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
    print(f"  {'failed_share':<44} {share:.6g} ({doc['failed']} of {doc['attempted']} {doc['op_unit']})")
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in doc["metrics"].items()}
        print("  exact counts: " + json.dumps(doc["exact_counts"]))
    else:
        setups.append(doc)
        values = dict(doc["metrics"], setup_s=statistics.median(d["setup_s"] for d in setups))
        doc["raw"]["setup_s"] = statistics.median(d["setup_raw_s"] for d in setups)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for k, m in metrics.items():
        alias = doc["alias"].get(k, k)
        print(f"  {alias:<44} {m['value']:.6g} {m['unit']}" + (f"  ({k})" if alias != k else ""))
    if doc.get("raw"):
        raw = ", ".join(f"{doc['alias'].get(k, k)} {v:.6g}" for k, v in doc["raw"].items())
        print(f"  raw wall clock over all {doc['ops']} operations (not gated): {raw}")
        print(f"  host speed: the reference kernel took {doc['host_slowdown']:.3g}x its quiet-host time "
              "(compare runs made at similar host speed)")
    print(json.dumps({"correct": bool(doc["correct"]), "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
