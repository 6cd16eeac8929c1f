"""Differentiable scalar-valued models with value and gradient oracles.

Four model kinds are supported:

* ``linear``        -- f(x) = a . x + b
* ``quadratic``     -- f(x) = 1/2 sum_i lambda_i (x_i - c_i)^2
* ``gauss-mixture`` -- f(x) = sum_j w_j exp(-|x - mu_j|^2 / (2 sigma_j^2))
* ``mlp``           -- a small fully-connected network with hand-written
  backpropagation (relu / tanh / softplus / identity layers)

Each model carries a *head* that turns the raw output into the scalar being
explained: identity, sigmoid, or (for multi-logit MLPs) the softmax
probability of a target class.  The post-softmax probability is the default
explained quantity; the pre-softmax logit can be selected instead.

All models are immutable after construction and safe to share across
threads.  Evaluation and gradients are vectorized internally; the public
``evaluate`` / ``gradient`` functions work on single points, and the
``evaluate_batch`` / ``gradient_batch`` variants on (n, N) arrays.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

ACTIVATIONS = ("relu", "tanh", "softplus", "identity")
HEADS = ("identity", "sigmoid", "softmax")
KINDS = ("linear", "quadratic", "gauss-mixture", "mlp")


def expit(z):
    """Logistic sigmoid 1 / (1 + exp(-z)), elementwise.

    The exponent is capped at 709 so that exp cannot overflow; the cap only
    touches z < -709, where the result is already subnormal (~1.2e-308).
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))


def softmax(z):
    """exp(z) normalized to sum to 1 along the last axis, max-shifted first."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "softplus":  # log(1 + e^z) = max(z, 0) + log1p(e^-|z|), without overflow, in one buffer
        t = np.abs(z)
        np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
        return np.add(t, np.maximum(z, 0.0), out=t)
    return z


def _act_deriv(name, z):
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "tanh":
        return 1.0 - np.tanh(z) ** 2
    if name == "softplus":
        return expit(z)
    return np.ones_like(z)


def _readonly(a):
    """A read-only C-ordered float copy of a; the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Head:
    """Output head: identity, sigmoid, or softmax over K logits.

    For softmax heads ``target`` selects the class whose probability is
    explained; ``use_logit`` switches to the pre-softmax logit instead.
    """

    type: str = "identity"
    target: int | None = None
    use_logit: bool = False

    def __post_init__(self):
        if self.type not in HEADS:
            raise ValueError(f"unknown head type {self.type!r}")
        if self.type == "softmax" and self.target is None:
            raise ValueError("softmax head requires a target index")
        if self.type != "softmax" and (self.target is not None or self.use_logit):
            raise ValueError(f"{self.type} head takes no target or logit setting")


@dataclass(frozen=True, eq=False)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "weight", _readonly(np.atleast_2d(self.weight)))
        object.__setattr__(self, "bias", _readonly(self.bias))
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.shape[0] != self.bias.size:
            raise ValueError("bias length must match layer output size")


def _checked_params(kind: str, params):
    """The checked tuple of read-only copies a ``kind`` model keeps, and the input length it fixes."""
    if kind == "mlp":
        params = tuple(params)
        if not params:
            raise ValueError("mlp needs at least one layer")
        if any(nxt.weight.shape[1] != prev.weight.shape[0] for prev, nxt in zip(params, params[1:])):
            raise ValueError("layer shapes do not chain")
        arrays, axes = [a for layer in params for a in (layer.weight, layer.bias)], (2, 1) * len(params)
        n = params[0].weight.shape[1]
    elif kind == "linear":
        a, b = params
        params = arrays = (_readonly(a), _readonly(b))
        n, axes = arrays[0].size, (1, 0)
    elif kind == "quadratic":
        lam, c = (_readonly(p) for p in params)
        if lam.shape != c.shape:
            raise ValueError("lambda and center must have the same length")
        params = arrays = (lam, c)
        n, axes = lam.size, (1, 1)
    else:
        weights, centers, sigmas = params
        weights, centers, sigmas = _readonly(weights), _readonly(np.atleast_2d(centers)), _readonly(sigmas)
        if centers.shape[0] != weights.size or sigmas.size != weights.size:
            raise ValueError("component counts disagree")
        if np.any(sigmas <= 0):
            raise ValueError("sigmas must be positive")
        params = arrays = (weights, centers, sigmas)
        n, axes = centers.shape[1], (1, 2, 1)
    if any(a.ndim != k for a, k in zip(arrays, axes)):
        raise ValueError(f"{kind} parameters have the wrong number of axes")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("model parameters must be finite")
    return params, n


@dataclass(frozen=True, eq=False)
class Model:
    """A scalar-valued differentiable function f: R^N -> R.

    ``params`` is a checked tuple of read-only copies of the arrays given,
    which fix ``dim``: ``(a, b)`` for linear, ``(lam, c)`` for quadratic,
    ``(weights, centers, sigmas)`` with one center row per component for
    gauss-mixture, and the :class:`Layer` objects, input layer first, for mlp.
    """

    kind: str
    dim: int = field(init=False)
    params: tuple
    head: Head = field(default_factory=Head)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        params, n = _checked_params(self.kind, self.params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "dim", n)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        k = self.out_dim
        if self.head.type == "softmax":
            if self.kind != "mlp" or k < 2:
                raise ValueError("softmax head requires an mlp with >= 2 logits")
            if not 0 <= self.head.target < k:
                raise ValueError("softmax target out of range")
        elif k != 1:
            raise ValueError(f"{self.head.type} head requires a single raw output")

    @property
    def out_dim(self) -> int:
        return self.params[-1].weight.shape[0] if self.kind == "mlp" else 1

    @property
    def uses_relu(self) -> bool:
        return self.kind == "mlp" and any(layer.activation == "relu" for layer in self.params)

    def __call__(self, x):
        return evaluate(self, x)


# ---------------------------------------------------------------------------
# evaluation and gradients


def _check_input(model: Model, x) -> np.ndarray:
    """x as a float array, checked to have the model's length."""
    x = np.asarray(x, dtype=float)
    if x.size != model.dim:
        raise DimensionMismatch("input length does not match model dimension")
    return x


def _check_batch(model: Model, xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != model.dim:
        raise DimensionMismatch(
            f"expected vectors of length {model.dim}, got {xs.shape[1]}"
        )
    if not np.all(np.isfinite(xs)):
        raise NonFiniteInput("input contains non-finite components")
    return xs


def _mlp_forward(layers, xs):
    """Forward pass through the layers; returns logits and per-layer pre-activations."""
    return _mlp_from_first(layers, xs @ layers[0].weight.T)


def _mlp_from_first(layers, s):
    """:func:`_mlp_forward` from the first layer's weighted inputs ``s = xs @ W1.T``."""
    pre, a = [], None
    for layer in layers:
        # drop s once used: holding a large array alive slows later allocations
        z, s = (s if a is None else a @ layer.weight.T) + layer.bias, None
        pre.append(z)
        a = _act(layer.activation, z)
    return a, pre


def _mlp_backward(layers, pre, cotangent):
    """Backpropagate a (n, K) cotangent on the logits of :func:`_mlp_forward`.

    Returns the cotangent on the inputs and, first layer first, the one on
    each layer's pre-activations, ``dz``.  A layer's weight gradient is
    ``dz.T @ layer_input`` and its bias gradient ``dz.sum(axis=0)``.
    """
    dzs = []
    delta = cotangent
    for layer, z in zip(reversed(layers), reversed(pre)):
        dz = delta * _act_deriv(layer.activation, z)
        dzs.append(dz)
        delta = dz @ layer.weight
    return delta, dzs[::-1]


# Every kind's raw output is g(sum_j phi_j(x_j)): an additive first stage
# s(x), followed by the rest of the model, g.  s has m columns: the first
# layer's units for an mlp, the components for a gauss-mixture, else one.


def _first_stage(model: Model, xs):
    """The first stage s of every row of xs; shape (n, m)."""
    p = model.params
    if model.kind == "mlp":
        return xs @ p[0].weight.T
    if model.kind == "linear":
        return (xs @ p[0])[:, None]
    if model.kind == "quadratic":
        lam, c = p
        return np.sum(lam * (xs - c) ** 2, axis=1)[:, None]
    centers = p[1]
    return ((xs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _feature_terms(model: Model, v):
    """phi_j(v_j), the first-stage term of each feature of the vector v; shape (N, m)."""
    p = model.params
    if model.kind == "mlp":
        return v[:, None] * p[0].weight.T
    if model.kind == "linear":
        return (v * p[0])[:, None]
    if model.kind == "quadratic":
        lam, c = p
        return (lam * (v - c) ** 2)[:, None]
    centers = p[1]
    return (v[:, None] - centers.T) ** 2


def _rest(model: Model, s):
    """Raw (n, K) output from first stages s, plus the pre-activations of an mlp."""
    p = model.params
    if model.kind == "mlp":
        return _mlp_from_first(p, s)
    if model.kind == "linear":
        raw = s[:, 0] + p[1]
    elif model.kind == "quadratic":
        raw = 0.5 * s[:, 0]
    else:
        weights, _, sigmas = p
        raw = np.sum(weights * np.exp(-s / (2.0 * sigmas**2)), axis=1)
    return raw[:, None], None


def _raw_batch(model: Model, xs):
    """Raw (n, K) output before the head, plus the pre-activations of an mlp."""
    if model.kind == "mlp":
        return _mlp_forward(model.params, xs)
    return _rest(model, _first_stage(model, xs))


def _raw_grad_batch(model: Model, xs, pre, cotangent):
    """Gradient of (cotangent . raw output) w.r.t. the inputs, per row."""
    p = model.params
    if model.kind == "mlp":
        return _mlp_backward(p, pre, cotangent)[0]
    scale = cotangent[:, 0][:, None]
    if model.kind == "linear":
        return scale * p[0]
    if model.kind == "quadratic":
        lam, c = p
        return scale * (lam * (xs - c))
    weights, centers, sigmas = p
    d = xs[:, None, :] - centers[None, :, :]
    d2 = (d**2).sum(axis=2)
    coef = weights * np.exp(-d2 / (2.0 * sigmas**2)) / sigmas**2
    return scale * -(coef[:, :, None] * d).sum(axis=1)


def evaluate_batch(model: Model, xs) -> np.ndarray:
    """Model output after the head for every row of xs; shape (n,)."""
    return _headed(model, _raw_batch(model, _check_batch(model, xs))[0])


def path_change(model: Model, start, target):
    """First stages of start and target, and their (N, m) change phi_j(target_j) - phi_j(start_j)."""
    start, target = (_check_batch(model, v) for v in (start, target))  # every row's entries
    change = _feature_terms(model, target[0]) - _feature_terms(model, start[0])
    return _first_stage(model, start), _first_stage(model, target), change


def path_scores(model: Model, path, order) -> list:
    """Output after the head along the path that moves start to target, and along the reverse.

    ``path`` is :func:`path_change` of (start, target).  Point k is ``start``
    with the features ``order[:k]`` taken from ``target``, or the reverse, and
    each direction gives the output at k = 1 ... N - 1.  Both share one
    running sum, in ``order``, of the change: the first stage is s(start) plus
    it, or s(target) minus it, which is exactly s(target) plus the running sum
    of the negated change.  O(N m) work in place of an (N + 1, N) row matrix,
    so point k matches ``evaluate_batch`` of its row within rounding; the ends
    k = 0 and N are left out, to be evaluated exactly."""
    s_start, s_target, change = path
    moved = np.cumsum(change[order[:-1]], axis=0)
    return [_headed(model, _rest(model, s_start + moved if forward else s_target - moved)[0])
            for forward in (True, False)]


def _headed(model: Model, raw):
    """The head applied to raw (n, K) outputs; shape (n,)."""
    h = model.head
    if h.type == "identity":
        return raw[:, 0]
    if h.type == "sigmoid":
        return expit(raw[:, 0])
    if h.use_logit:
        return raw[:, h.target]
    return softmax(raw)[:, h.target]


def gradient_batch(model: Model, xs) -> np.ndarray:
    """Gradient of the headed output for every row of xs; shape (n, N)."""
    xs = _check_batch(model, xs)
    raw, pre = _raw_batch(model, xs)
    h = model.head
    if h.type == "identity":
        cot = np.ones_like(raw)
    elif h.type == "sigmoid":
        s = expit(raw[:, 0])
        cot = (s * (1.0 - s))[:, None]
    elif h.use_logit:
        cot = np.zeros_like(raw)
        cot[:, h.target] = 1.0
    else:
        probs = softmax(raw)
        pt = probs[:, h.target]
        cot = -pt[:, None] * probs
        cot[:, h.target] += pt
    return _raw_grad_batch(model, xs, pre, cot)


def evaluate(model: Model, x) -> float:
    """f(x) after the head."""
    return float(evaluate_batch(model, np.asarray(x, dtype=float)[None, :])[0])


def gradient(model: Model, x) -> np.ndarray:
    """Analytic gradient of f at x, including the head chain rule."""
    return gradient_batch(model, np.asarray(x, dtype=float)[None, :])[0]


def fd_gradient(model: Model, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, the independent oracle.

    (f(x + h e_i) - f(x - h e_i)) / (2 h) per coordinate.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.size) * h
    plus = evaluate_batch(model, x + eye)
    minus = evaluate_batch(model, x - eye)
    return (plus - minus) / (2.0 * h)


# ---------------------------------------------------------------------------
# convenient constructors


def linear_model(a, b=0.0, head=Head()) -> Model:
    return Model("linear", (a, b), head)


def quadratic_model(lam, c=None, head=Head()) -> Model:
    return Model("quadratic", (lam, np.zeros(np.shape(lam)) if c is None else c), head)


def gauss_bump(dim: int, center=None, sigma=1.0, weight=1.0, head=Head()) -> Model:
    """Single Gaussian bump w * exp(-|x - mu|^2 / (2 sigma^2))."""
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise ValueError(f"center must have shape ({dim},), got {center.shape}")
    return gauss_mixture_model([weight], center[None, :], [sigma], head)


def gauss_mixture_model(weights, centers, sigmas, head=Head()) -> Model:
    return Model("gauss-mixture", (weights, centers, sigmas), head)


def mlp_model(layers, head=Head()) -> Model:
    return Model("mlp", layers, head)


def random_mlp(
    dim: int,
    hidden=(8,),
    out_dim: int = 1,
    activation: str = "softplus",
    seed: int = 0,
    head=Head(),
) -> Model:
    """Small randomly initialized MLP (hidden activation, linear output)."""
    rng = np.random.default_rng(seed)
    sizes = (dim, *hidden, out_dim)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        w = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
        b = rng.standard_normal(n_out) * 0.1
        act = activation if i < len(sizes) - 2 else "identity"
        layers.append(Layer(w, b, act))
    return mlp_model(layers, head)


# ---------------------------------------------------------------------------
# JSON serialization


def _head_to_json(head: Head) -> dict:
    out = {"type": head.type}
    if head.target is not None:
        out["target"] = head.target
    if head.use_logit:
        out["logit"] = True
    return out


def model_to_json(model: Model) -> dict:
    """Model as a plain JSON-serializable document."""
    p = model.params
    if model.kind == "linear":
        params = {"a": p[0].tolist(), "b": float(p[1])}
    elif model.kind == "quadratic":
        params = {"lambda": p[0].tolist(), "c": p[1].tolist()}
    elif model.kind == "gauss-mixture":
        params = {
            "components": [
                {"weight": float(w), "center": c.tolist(), "sigma": float(s)}
                for w, c, s in zip(*p)
            ]
        }
    else:
        params = {
            "layers": [
                {
                    "W": layer.weight.tolist(),
                    "b": layer.bias.tolist(),
                    "activation": layer.activation,
                }
                for layer in p
            ],
            "out_dim": model.out_dim,
        }
    return {
        "kind": model.kind,
        "dim": model.dim,
        "head": _head_to_json(model.head),
        "params": params,
    }


def model_from_json(doc: dict) -> Model:
    """Inverse of :func:`model_to_json`."""
    hd = doc.get("head", {"type": "identity"})
    head = Head(hd["type"], hd.get("target"), bool(hd.get("logit", False)))
    kind = doc["kind"]
    params = doc["params"]
    if kind == "linear":
        model = linear_model(params["a"], params.get("b", 0.0), head)
    elif kind == "quadratic":
        model = quadratic_model(params["lambda"], params["c"], head)
    elif kind == "gauss-mixture":
        comps = params["components"]
        model = gauss_mixture_model(
            [c["weight"] for c in comps],
            np.array([c["center"] for c in comps]),
            [c["sigma"] for c in comps],
            head,
        )
    elif kind == "mlp":
        layers = [
            Layer(np.array(s["W"]), np.array(s["b"]), s["activation"])
            for s in params["layers"]
        ]
        model = mlp_model(layers, head)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if doc.get("dim", model.dim) != model.dim:
        raise ValueError(f"dim {doc['dim']} does not match the parameters' {model.dim} inputs")
    return model


def model_json_str(model: Model) -> str:
    """The model file's text."""
    return json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n"


def save_model(model: Model, path) -> None:
    with open(path, "w") as fh:
        fh.write(model_json_str(model))


def load_model(path) -> Model:
    with open(path) as fh:
        return model_from_json(json.load(fh))
