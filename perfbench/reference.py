"""Reference kernels: fixed work, independent of fluxgrad, timed beside each workload.

The host the baseline comes from is shared with other tenants, and its
speed drifts: in one process, identical slices of work took 1x to 2x their
fastest time, in stretches that last from seconds to minutes, and CPU time
tracked wall time. Neither longer runs nor each operation's fastest
repetition remove a slow stretch that outlasts a run. So every workload
times, next to its operations, a reference kernel that does the same kind
of work as its dominant cost but does not use fluxgrad, and its latencies
are rescaled by ``ref_s / (reference time now)``: the time the operation
would take when the reference runs at its quiet-host speed ``ref_s``. A
change to fluxgrad cannot change a reference, so its gains and losses pass
through unchanged.

A kernel is timed as the fastest of ``repeats`` runs. ``ref_s`` is about
the fastest time seen on the baseline host (2 vCPUs, one BLAS thread); it
only sets the level of the rescaled figures, not their spread.
"""

import subprocess
import sys
import time

import numpy as np


class SmallModelCalls:
    """Single-row forward and input-gradient passes of a dim-8, 8-tanh, sigmoid MLP (attr-tabular).

    The same kind of work as attr-tabular's single-row ``models`` calls, and
    as a search that batches its 20 sphere points: numpy calls on arrays
    too small for the arithmetic to matter.
    """

    ref_s = 0.42e-3
    repeats = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(8)
        self.w1 = rng.standard_normal((8, 8))
        self.b1 = rng.standard_normal(8)
        self.w2 = rng.standard_normal((1, 8))

    def __call__(self):
        for _ in range(40):
            xs = np.atleast_2d(np.asarray(self.x, dtype=float))
            h = np.tanh(xs @ self.w1.T + self.b1)
            p = 1.0 / (1.0 + np.exp(-(h @ self.w2.T)[:, 0]))
            g = ((p * (1.0 - p))[:, None] @ self.w2 * (1.0 - h**2)) @ self.w1
        return g


class DenseForward:
    """A 785x784 batch through a 784-128-10 softplus MLP with softmax (eval-image curves)."""

    ref_s = 5.3e-3
    repeats = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((785, 784))
        self.w1 = rng.standard_normal((128, 784)) / 28.0
        self.w2 = rng.standard_normal((10, 128))

    def __call__(self):
        z = np.logaddexp(0.0, self.x @ self.w1.T) @ self.w2.T
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e[:, 0] / e.sum(axis=1)


class FieldGradient:
    """Input gradients of a dim-8, 32-tanh, 3-logit softmax MLP at 10,000 rows (verify-field)."""

    ref_s = 6.0e-3
    repeats = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((10_000, 8))
        self.w1 = rng.standard_normal((32, 8))
        self.w2 = rng.standard_normal((3, 32))

    def __call__(self):
        h = np.tanh(self.x @ self.w1.T)
        z = h @ self.w2.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        cot = -p[:, :1] * p
        cot[:, 0] += p[:, 0]
        return ((cot @ self.w2) * (1.0 - h**2)) @ self.w1


class ColdImport:
    """A fresh interpreter that imports numpy (cli-cold, and every workload's set-up)."""

    ref_s = 100e-3
    repeats = 1

    def __call__(self):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)


def time_s(kernel) -> float:
    """The kernel's time now: the fastest of its repeats."""
    best = float("inf")
    for _ in range(kernel.repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
