"""Training of toy MLP classifiers with plain full-batch gradient descent.

Deliberately minimal: deterministic given the seed, single-threaded, no
minibatching, no momentum.  The trained models exist to exercise the
attribution and evaluation machinery, not to be good classifiers.
"""

import csv
from types import SimpleNamespace

import numpy as np

from .models import (Head, Layer, Model, _check_batch, _count, _init_layers, _mlp_backward, _mlp_forward, _raw_batch,
                     _real, _ValueRecord, expit, mlp_model, softmax)


class FitResult(_ValueRecord):
    """Trained model plus final training loss and accuracy."""

    __slots__ = _fields = ("model", "loss", "accuracy")
    __hash__ = None  # unhashable, as when it was a mutable record


def fit_toy_model(
    X,
    y,
    hidden=(8,),
    activation: str = "tanh",
    epochs: int = 500,
    learning_rate: float = 0.5,
    seed: int = 0,
) -> FitResult:
    """Train a small MLP classifier by full-batch gradient descent.

    Binary labels {0, 1} give a single-logit model with a sigmoid head;
    labels {0..K-1} with K > 2 give K logits with a softmax head (target
    class 0 by default, re-targetable via the head).  Deterministic given
    the seed.  Non-convergence is not an error.  The reported loss is the
    mean cross-entropy of the last epoch's forward pass, before that epoch's
    update; it is computed once, after the epochs.
    Fewer than one epoch, a learning rate that is not positive and finite,
    a non-finite entry in X, a negative label, or a fit whose weights
    overflow to non-finite values is a ValueError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("dataset must be a nonempty (n, N) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("dataset contains non-finite values")
    if X.shape[0] != y.size:
        raise ValueError("labels must match the number of samples")
    if np.any(y < 0):
        raise ValueError("class labels must be non-negative integers")
    epochs, seed = _count("epochs", epochs), _count("seed", seed, least=0)
    learning_rate = _real("learning_rate", learning_rate)
    n, dim = X.shape
    n_classes = int(y.max()) + 1 if y.size else 0
    binary = n_classes <= 2
    out_dim = 1 if binary else n_classes

    # the epochs update plain, writeable copies of the initial weights and biases in place
    layers = [SimpleNamespace(weight=layer.weight.copy(), bias=layer.bias.copy(), activation=layer.activation)
              for layer in _init_layers(np.random.default_rng(seed), (dim, *hidden, out_dim), activation, 0.0)]
    onehot = None if binary else np.eye(n_classes)[y]
    yf = y.astype(float)

    for _ in range(epochs):
        post, pre = _mlp_forward(layers, X)
        # loss gradient on the logits (mean reduction); p is each sample's sigmoid or softmax output
        if binary:
            p = expit(post[-1][:, 0])
            delta = ((p - yf) / n)[:, None]
        else:
            p = softmax(post[-1])
            delta = (p - onehot) / n
        dzs = _mlp_backward(layers, (post, pre), delta)
        for layer, dz, a in zip(layers, dzs, [X] + post[:-1]):
            layer.weight -= learning_rate * (dz.T @ a)
            layer.bias -= learning_rate * dz.sum(axis=0)
    # the last epoch's loss, from its forward pass, before its update
    if binary:
        loss = -np.mean(yf * np.log(p + 1e-12) + (1 - yf) * np.log(1 - p + 1e-12))
    else:
        loss = -np.mean(np.log(p[np.arange(n), y] + 1e-12))

    head = Head("sigmoid") if binary else Head("softmax", target=0)
    model = mlp_model([Layer(layer.weight, layer.bias, layer.activation) for layer in layers], head)
    acc = training_accuracy(model, X, y)
    return FitResult(model, float(loss), acc)


def training_accuracy(model: Model, X, y) -> float:
    """Fraction of samples the model classifies correctly."""
    raw, _ = _raw_batch(model, _check_batch(model, X))
    y = np.asarray(y, dtype=int)
    if model.head.type == "sigmoid":
        pred = (expit(raw[:, 0]) >= 0.5).astype(int)
    else:
        pred = raw.argmax(axis=1)
    return float(np.mean(pred == y))


# ---------------------------------------------------------------------------
# toy datasets and the CSV dataset format (last column = non-negative integer label)


def blob_dataset(
    n: int = 200, margin: float = 1.0, dim: int = 2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Two linearly separable Gaussian blobs, separated by 2 * margin."""
    n, dim, rng = _count("n", n), _count("dim", dim), np.random.default_rng(_count("seed", seed, least=0))
    half = n // 2
    shift = np.full(dim, _real("margin", margin, zero=True) / np.sqrt(dim))
    x0 = rng.standard_normal((half, dim)) * 0.4 - shift
    x1 = rng.standard_normal((n - half, dim)) * 0.4 + shift
    X = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


def linear_rule_dataset(
    weights, n: int = 400, seed: int = 0, margin: float = 0.2
) -> tuple[np.ndarray, np.ndarray]:
    """Points labeled by sign(w . x), with a margin band removed.

    The generating weight vector doubles as the ground-truth feature
    relevance in evaluation-harness tests; it must be finite and nonzero.
    Points are drawn 2n at a time, for at most 10,000 rounds; a margin that
    leaves fewer than n of them is refused with a ValueError.
    """
    w, n, margin = np.asarray(weights, dtype=float), _count("n", n), _real("margin", margin, zero=True)
    if not (np.isfinite(w).all() and w.any()):
        raise ValueError("weights must be finite and not all zero")
    rng = np.random.default_rng(_count("seed", seed, least=0))
    X = []
    for _ in range(10_000):  # a draw clears the margin with P = erfc(margin / sqrt 2), score / |w| being N(0, 1)
        batch = rng.standard_normal((2 * n, w.size))
        X.extend(batch[np.abs(batch @ w) > margin * np.linalg.norm(w)])
        if len(X) >= n:
            break
    else:
        raise ValueError(f"margin {margin:g} is cleared by fewer than {n} of {20_000 * n} standard-normal draws")
    X = np.asarray(X[:n])
    y = (X @ w > 0).astype(int)
    return X, y


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a labeled dataset: one row per sample, last column integer label."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or all(not cell.strip() for cell in rec):
                continue
            rows.append([float(cell) for cell in rec])
    if not rows:
        raise ValueError("dataset CSV is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths == {1}:
        raise ValueError("dataset CSV rows must all have the same width >= 2")
    data = np.asarray(rows, dtype=float)
    labels = data[:, -1]
    if not np.all(labels == np.round(labels)):
        raise ValueError("last dataset column must hold integer labels")
    return data[:, :-1], labels.astype(int)


def save_dataset_csv(path, X, y) -> None:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
