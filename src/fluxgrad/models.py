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
``evaluate_batch`` / ``gradient_batch`` variants on (n, N) arrays, as does
``laplacian_batch``, the exact Laplacian of a smooth model's output.
"""

import json
import sys
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotSmooth

ACTIVATIONS = ("relu", "tanh", "softplus", "identity")
HEADS = ("identity", "sigmoid", "softmax")
KINDS = ("linear", "quadratic", "gauss-mixture", "mlp")
_BLOCK_BYTES = 128 * 1024  # a large batch runs in row blocks whose (rows x width) floats fit here


def expit(z):
    """Logistic sigmoid 1 / (1 + exp(-z)), elementwise.

    The exponent is capped at 709 so that exp cannot overflow; the cap only
    touches z < -709, where the result is already subnormal (~1.2e-308).
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))


def softmax(z):
    """exp(z) normalized to sum to 1 along the last axis, max-shifted first; the max is one np.maximum pass
    per column, exact and cheaper than np.max across the few logits of this package's heads (up to about 40:
    at 1000 a (512, 1000) softmax takes 1.3x as long), and np.sum's pairwise sum stays."""
    e = np.exp(z - reduce(np.maximum, z.T).T[..., None])  # z.T's entries are z's last-axis columns, transposed
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


def _act_deriv(name, z, a):  # a is the activation's output at z; identity layers never ask
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "softplus":
        return expit(z)
    d = a * a  # tanh: 1 - a^2, in one buffer
    return np.subtract(1.0, d, out=d)


def _act_derivs(name, a):
    """First and second derivatives of a smooth activation from its output ``a`` (tanh's 1 - a^2 in one buffer);
    an identity layer's are ones and zeros, which :func:`_mlp_laplacian` asks for only at the first layer."""
    if name == "tanh":
        d = _act_deriv(name, None, a)
        return d, -2.0 * a * d
    if name == "softplus":  # expit(z) = 1 - e^-a
        d = -np.expm1(-a)
        return d, d * (1.0 - d)
    return np.ones_like(a), np.zeros_like(a)


def _readonly(a):
    """A read-only C-ordered float copy of a; the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _count(name: str, value, least: int = 1) -> int:
    """value as an int: a ValueError unless it is an integer, numpy's too but not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _real(name: str, value, zero: bool = False) -> float:
    """value as a float: a ValueError unless it is a real number, numpy's too but not a bool, that is finite and
    positive, or with ``zero`` finite and >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # an int past the float range stays an int, whose float() would raise OverflowError, and is refused below
    number = value if isinstance(value, int) and abs(value) > sys.float_info.max else float(value)
    if not (0 < number <= sys.float_info.max or zero and number == 0):
        raise ValueError(f"{name} must be {'>= 0' if zero else 'positive'} and finite")
    return number


class _Record:
    """Base of the records: ``__init__`` sets each field of ``_fields``, the ``__slots__``, once; none is set or
    deleted after.  It is the one place a field is set: a record with checks or conversions makes them on its
    arguments, then hands the results to it.  ``_args`` names the fields ``__init__`` takes, if not all.  Records
    compare by identity; a copy or a pickle is rebuilt through ``__init__``, so it is checked and frozen as the
    original was."""

    __slots__ = ()
    _fields = ()
    _args = None

    def __init__(self, *args, **kwargs):  # each field once: in order, then the rest by name
        if kwargs:  # the fields after the positional ones, in field order
            args += tuple(kwargs.pop(f) for f in self._fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(self._fields)} once")
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def _asdict(self) -> dict:
        """The fields ``__init__`` takes, by name, as namedtuple's ``_asdict``."""
        return {f: getattr(self, f) for f in self._args or self._fields}

    def _replace(self, **changes):
        """A new record with ``changes`` made, as namedtuple's ``_replace``."""
        for f in self._args or self._fields:
            changes.setdefault(f, getattr(self, f))
        return type(self)(**changes)

    def __reduce__(self):
        return _rebuild, (type(self), self._asdict())


def _rebuild(cls, kwargs):
    return cls(**kwargs)


class _ValueRecord(_Record):
    """A record equal to one of its class whose fields are equal, and hashed by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return self._asdict() == other._asdict() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))


class Head(_Record):
    """Output head: identity, sigmoid, or softmax over K logits.

    For softmax heads ``target`` selects the class whose probability is
    explained; ``use_logit`` switches to the pre-softmax logit instead.
    """

    __slots__ = _fields = ("type", "target", "use_logit")

    def __init__(self, type: str = "identity", target: int | None = None, use_logit: bool = False):
        if type not in HEADS:
            raise ValueError(f"unknown head type {type!r}")
        if type == "softmax":
            if target is None:
                raise ValueError("softmax head requires a target index")
            target = _count("softmax target", target, least=0)  # a numpy integer too, held as a file holds it
        elif target is not None or use_logit:
            raise ValueError(f"{type} head takes no target or logit setting")
        super().__init__(type, target, use_logit)


class Layer(_Record):
    __slots__ = _fields = ("weight", "bias", "activation")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str = "identity"):  # (out, in), (out,)
        weight, bias = _readonly(np.atleast_2d(weight)), _readonly(bias)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if weight.shape[0] != bias.size:
            raise ValueError("bias length must match layer output size")
        super().__init__(weight, bias, activation)


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
        with np.errstate(over="ignore", under="ignore"):  # the Laplacian divides by sigma^4
            fourth = sigmas**4
        normal = (sys.float_info.min <= fourth) & (fourth <= sys.float_info.max)
        if not normal.all():
            raise ValueError(f"sigma {sigmas[~normal][0]} leaves the float range: sigma^4 must be a normal float")
        params = arrays = (weights, centers, sigmas)
        n, axes = centers.shape[1], (1, 2, 1)
    if any(a.ndim != k for a, k in zip(arrays, axes)):
        raise ValueError(f"{kind} parameters have the wrong number of axes")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("model parameters must be finite")
    return params, n


class Model(_Record):
    """A scalar-valued differentiable function f: R^N -> R.

    ``params`` is a checked tuple of read-only copies of the arrays given,
    which fix ``dim``: ``(a, b)`` for linear, ``(lam, c)`` for quadratic,
    ``(weights, centers, sigmas)`` with one center row per component for
    gauss-mixture, and the :class:`Layer` objects, input layer first, for mlp.
    """

    __slots__ = _fields = ("kind", "dim", "params", "head")
    _args = ("kind", "params", "head")

    def __init__(self, kind: str, params: tuple, head: Head = Head()):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        params, n = _checked_params(kind, params)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        super().__init__(kind, n, params, head)
        k = self.out_dim
        if head.type == "softmax":
            if kind != "mlp" or k < 2:
                raise ValueError("softmax head requires an mlp with >= 2 logits")
            if head.target >= k:
                raise ValueError("softmax target out of range")
        elif k != 1:
            raise ValueError(f"{head.type} head requires a single raw output")

    @property
    def out_dim(self) -> int:
        return self.params[-1].weight.shape[0] if self.kind == "mlp" else 1

    @property
    def uses_relu(self) -> bool:
        return self.kind == "mlp" and any(layer.activation == "relu" for layer in self.params)


# ---------------------------------------------------------------------------
# evaluation and gradients


def _require_smooth(model: Model):
    if model.uses_relu:
        raise NotSmooth("field not continuously differentiable (relu activation)")


def _check_input(model: Model, x) -> np.ndarray:
    """x as a checked float vector: :func:`_check_batch` of x as one row."""
    return _check_batch(model, np.asarray(x, dtype=float)[None])[0]


def _check_batch(model: Model, xs) -> np.ndarray:
    """xs as an (n, N) float array, a vector as one row: the one input gate.  A DimensionMismatch unless xs
    has at most two axes and rows of the model's length, a NonFiniteInput unless every entry is finite."""
    xs = np.asarray(xs, dtype=float)
    xs = xs if xs.ndim > 1 else np.atleast_2d(xs)
    if xs.ndim > 2 or xs.shape[1] != model.dim:
        raise DimensionMismatch(f"expected vectors of length {model.dim}, got an array of shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise NonFiniteInput("input contains non-finite components")
    return xs


def _mlp_forward(layers, xs):
    """Forward pass through the layers; returns per-layer activations, the logits last, and pre-activations."""
    return _mlp_from_first(layers, xs @ layers[0].weight.T)


def _mlp_from_first(layers, s):
    """:func:`_mlp_forward` from the first layer's weighted inputs ``s = xs @ W1.T``.

    Consumes ``s``: the first bias is added into it, so the caller passes an array it no longer needs."""
    post, pre = [], []
    for layer in layers:
        # drop s once used: holding a large array alive slows later allocations
        z, s = s if not post else post[-1] @ layer.weight.T, None
        z += layer.bias
        pre.append(z)
        post.append(_act(layer.activation, z))
    return post, pre


def _mlp_backward(layers, forward, cotangent):
    """Backpropagate a (n, K) cotangent on the logits of ``forward``, a :func:`_mlp_forward` result.

    Returns, first layer first, the cotangent on each layer's
    pre-activations, ``dz``.  A layer's weight gradient is
    ``dz.T @ layer_input``, its bias gradient ``dz.sum(axis=0)``, and the
    first layer's ``dz @ W1`` is the cotangent on the inputs.
    """
    post, pre = forward
    dzs = []
    delta = cotangent
    for layer, z, a in zip(reversed(layers), reversed(pre), reversed(post)):
        dz = delta if layer.activation == "identity" else delta * _act_deriv(layer.activation, z, a)
        dzs.append(dz)
        if len(dzs) < len(layers):  # the first layer's input cotangent is the caller's to form
            delta = dz @ layer.weight
    return dzs[::-1]


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
    with np.errstate(over="ignore"):  # a squared distance past the float range has an exponential of exactly 0
        return ((xs[:, None, :] - p[1][None, :, :]) ** 2).sum(axis=2)


def _feature_terms(model: Model, v, rows):
    """phi_j(v_j), the first-stage term of each feature j in ``rows`` of the vector v; shape (rows, m)."""
    p, v = model.params, v[rows]
    if model.kind == "mlp":
        return v[:, None] * p[0].weight.T[rows]
    if model.kind == "linear":
        return (v * p[0][rows])[:, None]
    if model.kind == "quadratic":  # lambda_j (v_j - c_j)^2
        return (p[0][rows] * (v - p[1][rows]) ** 2)[:, None]
    return (v[:, None] - p[1].T[rows]) ** 2


def _rest(model: Model, s):
    """Raw (n, K) output from first stages s, and the forward pass its gradient and Laplacian read: an mlp's
    (post, pre), which consumes s; a gauss-mixture's (s, e), e = w exp(-s / 2 sigma^2), whose row sums are raw;
    None for the others."""
    p = model.params
    if model.kind == "mlp":
        post, pre = _mlp_from_first(p, s)
        return post[-1], (post, pre)
    if model.kind == "gauss-mixture":
        with np.errstate(over="ignore"):  # an exponent past the float range is -inf, whose exponential is exactly 0
            e = p[0] * np.exp(-s / (2.0 * p[2] ** 2))
        return np.sum(e, axis=1)[:, None], (s, e)
    return s + p[1] if model.kind == "linear" else 0.5 * s, None


def _raw_batch(model: Model, xs):
    """Raw (n, K) output before the head, plus the forward pass :func:`_rest` gives."""
    return _rest(model, _first_stage(model, xs))


def _raw_grad_batch(model: Model, xs, forward, cotangent):
    """Gradient of (cotangent . raw output) w.r.t. the inputs, per row, from ``forward``, the :func:`_raw_batch`
    forward pass of xs: an mlp backpropagates through it, a gauss-mixture reads its exponentials e."""
    p = model.params
    if model.kind == "mlp":
        return _mlp_backward(p, forward, cotangent)[0] @ p[0].weight
    scale = cotangent[:, 0][:, None]
    if model.kind == "linear":
        return scale * p[0]
    if model.kind == "quadratic":
        lam, c = p
        return scale * (lam * (xs - c))
    coef = forward[1] / p[2] ** 2
    with np.errstate(over="ignore"):  # a difference past the float range squares to s = inf, whose e is exactly 0
        diff = xs[:, None, :] - p[1][None, :, :]
    diff[coef == 0.0] = 0.0  # so where e is 0 the term is 0, never 0 * inf
    return scale * -(coef[:, :, None] * diff).sum(axis=1)


def evaluate_batch(model: Model, xs) -> np.ndarray:
    """Model output after the head for every row of xs; shape (n,)."""
    return _headed(model, _raw_batch(model, _check_batch(model, xs))[0])


def path_change(model: Model, start, target):
    """First stages of start and target, and their (N, m) change phi_j(target_j) - phi_j(start_j)."""
    start, target = (_check_batch(model, v) for v in (start, target))  # every row's entries
    change = _feature_terms(model, target[0], slice(None))
    for rows in _row_blocks(model, len(change), change.shape[1]):  # start's terms a block at a time, not an (N, m)
        change[rows] -= _feature_terms(model, start[0], rows)
    return _first_stage(model, start), _first_stage(model, target), change


def _row_blocks(model: Model, n: int, width: int) -> list:
    """Slices of n rows, each block's (rows x width) floats within _BLOCK_BYTES (at least one row); an mlp's
    width is its widest layer.  Rows drawn in units, as geometry lays out its pairs, are drawn whole beforehand."""
    if model.kind == "mlp":
        width = max(layer.weight.shape[0] for layer in model.params)
    rows = max(1, _BLOCK_BYTES // (8 * width))
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def path_scores(model: Model, path, order) -> np.ndarray:
    """Output after the head along the path that moves start to target, and along the reverse; shape (2, M - 1).

    ``path`` is :func:`path_change` of (start, target), and ``order`` lists M
    of its N features: all of them, or a subset (the others stay at start).
    Point k is ``start`` with the features ``order[:k]`` taken from
    ``target``, or the reverse, and each direction gives the output at
    k = 1 ... M - 1.  Both share one running sum, in ``order``, of the change:
    the first stage is s(start) plus it, or s(target) minus it, which is
    exactly s(target) plus the running sum of the negated change.  O(M m)
    work in place of an (M + 1, N) row matrix, so point k matches
    ``evaluate_batch`` of its row within rounding; the ends k = 0 and M are
    left out, to be evaluated exactly.  The points go in row
    blocks (:func:`_row_blocks`), each block's running sum starting from the
    last one's, so the sum makes the same additions as one ``cumsum``.  A
    block's widest array is an (rows x m) first stage, or an mlp's layer;
    the reverse direction's first stage is computed in the gathered block."""
    s_start, s_target, change = path
    scores, carry = np.empty((2, max(len(order), 1) - 1)), -0.0  # -0.0 + x is x, a signed zero too
    for rows in _row_blocks(model, len(order) - 1, change.shape[1]):
        moved = change[order[rows]]
        moved[0] += carry
        carry = np.cumsum(moved, axis=0, out=moved)[-1].copy()  # the block is overwritten below
        scores[0, rows] = _headed(model, _rest(model, s_start + moved)[0])
        scores[1, rows] = _headed(model, _rest(model, np.subtract(s_target, moved, out=moved))[0])
    return scores


def _headed(model: Model, raw):
    """The head applied to raw (n, K) outputs; shape (n,)."""
    h = model.head
    if h.type == "identity" or h.use_logit:
        return raw[:, h.target or 0]
    if h.type == "sigmoid":
        return expit(raw[:, 0])
    return softmax(raw)[:, h.target]


def gradient_batch(model: Model, xs) -> np.ndarray:
    """Gradient of the headed output for every row of xs; shape (n, N)."""
    xs = _check_batch(model, xs)
    raw, forward = _raw_batch(model, xs)
    h = model.head
    if h.type == "identity" or h.use_logit:  # one column: a one-hot cotangent
        cot = np.zeros_like(raw)
        cot[:, h.target or 0] = 1.0
    elif h.type == "sigmoid":
        s = expit(raw[:, 0])
        cot = (s * (1.0 - s))[:, None]
    else:
        probs = softmax(raw)
        pt = probs[:, h.target]
        cot = -pt[:, None] * probs
        cot[:, h.target] += pt
    return _raw_grad_batch(model, xs, forward, cot)


def _laplacian_fold(layers):
    """``fold[(i, k), j] = W1[j, i] W2[k, j]``, the (N K2 x width1) constant of :func:`_mlp_laplacian`."""
    w1 = layers[0].weight
    w2 = layers[1].weight if len(layers) > 1 else np.eye(len(w1))  # one layer: fold with the identity
    return (w1.T[:, None, :] * w2).reshape(-1, len(w1))


def _mlp_laplacian(layers, xs, fold):
    """Raw (n, K) output of an mlp, its (n, K) Laplacian, and the (N, K, n) tangents of its input directions.

    The forward Laplacian of Li et al. (arXiv 2307.08214): a layer's is s'(z) * (W @ the previous layer's)
    + s''(z) * |grad z|^2.  The pass runs on (width, n) columns, and the tangents of all N input directions
    go together in one direction-major (N, width, n) array ``t``, so each layer is one product.  The first
    layer's never exist: ``fold``, the layers' :func:`_laplacian_fold`, takes the (width1, n) slopes straight
    to z2's.  At the end ``t[i]`` is the (K, n) Jacobian column of input direction i, which the head reads.
    """
    a, slopes = xs.T, []
    for k, layer in enumerate(layers):  # a later identity layer's slopes, 1 and 0, are never formed
        a = layer.weight @ a
        a = _act(layer.activation, np.add(a, layer.bias[:, None], out=a))  # the product biased in place
        slopes.append(None if k and layer.activation == "identity" else _act_derivs(layer.activation, a))
    t = (fold @ slopes[0][0]).reshape(xs.shape[1], len(fold) // xs.shape[1], len(xs))
    lap = np.multiply(slopes[0][1], np.sum(layers[0].weight ** 2, axis=1)[:, None], out=slopes[0][1])  # into s''
    for k, layer in enumerate(layers[1:], 1):
        t, lap = t if k == 1 else layer.weight @ t, layer.weight @ lap
        if slopes[k]:  # the tangents' |grad z|^2 before they go through s'(z)
            lap = slopes[k][0] * lap + slopes[k][1] * np.einsum("ikn,ikn->kn", t, t)
            t *= slopes[k][0]
    return a.T, lap.T, t


def laplacian_batch(model: Model, xs) -> np.ndarray:
    """Laplacian (the trace of the Hessian) of the headed output at every row of xs; shape (n,).

    Exact: closed forms, or the forward Laplacian of an mlp, then the head's chain rule g'(raw) . Laplacian +
    sum_kl g''_kl (grad raw_k . grad raw_l), read as sums over input directions of tangent projections, with no
    K x K matrix.  The rows go in :func:`_row_blocks` of N-wide gradients, and an mlp's fold is built once.
    """
    _require_smooth(model)
    xs = _check_batch(model, xs)
    fold = _laplacian_fold(model.params) if model.kind == "mlp" else None
    blocks = _row_blocks(model, len(xs), model.dim) or [slice(0, 0)]  # no rows: one empty block
    return np.concatenate([_block_laplacian(model, xs[rows], fold) for rows in blocks])


def _block_laplacian(model: Model, xs, fold):
    """:func:`laplacian_batch` of checked rows, given an mlp's fold; a closed form's (N, 1, n) tangents t are its
    raw gradient.  Softmax's u'Gu - p.diag(G) + p'Gp, G = sum_i t_i t_i', is sum_i (u.t_i)^2 - p.t_i^2 + (p.t_i)^2."""
    if model.kind == "mlp":
        raw, lap, t = _mlp_laplacian(model.params, xs, fold)
    else:
        raw, forward = _raw_batch(model, xs)
        t = _raw_grad_batch(model, xs, forward, np.ones_like(raw)).T[:, None]
        if model.kind == "linear":
            lap = np.zeros_like(raw)
        elif model.kind == "quadratic":
            lap = np.full_like(raw, np.sum(model.params[0]))
        else:  # sum_j e_j (r^2 / sigma^4 - N / sigma^2), with r^2 = s_j; where e is 0, r^2 may be inf: the term is 0
            (s, e), sig = forward, model.params[2]
            lap = np.sum(e * (np.where(e != 0.0, s, 0.0) / sig**4 - model.dim / sig**2), axis=1, keepdims=True)
    h = model.head
    if h.type == "identity" or h.use_logit:
        return lap[:, h.target or 0]
    if h.type == "sigmoid":
        p = expit(raw[:, 0])
        return p * (1.0 - p) * (lap[:, 0] + (1.0 - 2.0 * p) * np.einsum("ikn,ikn->n", t, t))
    p = softmax(raw)
    a = np.einsum("ikn,kn->in", t, p.T)  # p . t_i
    d = t[:, h.target] - a  # u . t_i
    quad = np.einsum("in,in->n", d, d) - np.einsum("ikn,ikn,kn->n", t, t, p.T) + np.einsum("in,in->n", a, a)
    return p[:, h.target] * (np.sum((np.eye(p.shape[1])[h.target] - p) * lap, axis=1) + quad)


def evaluate(model: Model, x) -> float:
    """f(x) after the head."""
    return float(evaluate_batch(model, np.asarray(x, dtype=float)[None])[0])


def gradient(model: Model, x) -> np.ndarray:
    """Analytic gradient of f at x, including the head chain rule."""
    return gradient_batch(model, np.asarray(x, dtype=float)[None])[0]


def fd_gradient(model: Model, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, the independent oracle.

    (f(x + h e_i) - f(x - h e_i)) / (2 h) per coordinate.
    """
    h, x = _real("step h", h), _check_input(model, x)
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
    rng = np.random.default_rng(_count("seed", seed, least=0))
    return mlp_model(_init_layers(rng, (dim, *hidden, out_dim), activation, 0.1), head)


def _init_layers(rng, sizes, activation: str, bias_scale: float) -> tuple:
    """Layers of ``sizes`` with weights N(0, 1 / fan-in) and ``activation`` but a linear last layer; each bias is
    drawn N(0, bias_scale^2) after its weight, or is zeros, with no draw, at scale 0."""
    return tuple(Layer(rng.standard_normal((n_out, n_in)) / np.sqrt(n_in),
                       rng.standard_normal(n_out) * bias_scale if bias_scale else np.zeros(n_out),
                       activation if i < len(sizes) - 2 else "identity")
                 for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])))


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
