"""Deletion/insertion evaluation of attribution maps.

Features are ranked by their attribution scores and progressively replaced
(deletion) or restored (insertion) while the model output is tracked; the
area under the resulting fraction/score curve summarizes how quickly the
explanation's top features move the prediction.  Lower deletion AUC and
higher insertion AUC are better; their difference neutralizes the
distribution shift both curves share.
"""

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .attribution import AttributionMap
from .baselines import (
    IgConfig,
    SmoothGradConfig,
    integrated_gradients,
    random_attribution,
    saliency,
    smoothgrad,
)
from .errors import DimensionMismatch, FluxgradError
from .models import Model, evaluate_batch, path_scores
from .neflag import NeflagConfig, SphereSpec, neflag_attribute, sample_sphere, taylor_heatmap

REPLACEMENTS = ("black", "mean", "blur")


@dataclass(frozen=True)
class EvalConfig:
    """Curve construction knobs.

    ``replacement`` selects the substitute for removed features: zeros
    ("black"), the input's mean value, or an iterated box blur (grid
    inputs only; non-grid inputs silently fall back to mean for the blur
    round).  ``features_per_step`` controls the curve granularity and
    ``absolute`` switches the ranking to absolute attribution values.
    """

    replacement: str = "black"
    features_per_step: int = 1
    absolute: bool = False
    grid: tuple[int, int] | None = None
    blur_radius: int = 1

    def __post_init__(self):
        if self.replacement not in REPLACEMENTS:
            raise ValueError(f"unknown replacement {self.replacement!r}")
        if self.features_per_step < 1:
            raise ValueError("features_per_step must be >= 1")
        if self.blur_radius < 1:
            raise ValueError("blur_radius must be >= 1")


@dataclass(frozen=True, eq=False)
class EvalCurve:
    """Ordered (fraction replaced, model score) pairs with trapezoid AUC."""

    fractions: np.ndarray
    scores: np.ndarray
    auc: float

    def __post_init__(self):
        for name in ("fractions", "scores"):
            a = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.fractions[0] != 0.0 or self.fractions[-1] != 1.0:
            raise ValueError("fractions must run from 0 to 1")
        if np.any(np.diff(self.fractions) <= 0):
            raise ValueError("fractions must be strictly increasing")


def feature_order(attribution: AttributionMap, absolute: bool = False) -> np.ndarray:
    """Feature indices in descending attribution order, ties by index."""
    vals = np.abs(attribution.values) if absolute else attribution.values
    return np.argsort(-vals, kind="stable")


def _box_blur(img, radius):
    """Mean over each (2r+1) x (2r+1) window, edges extended by their nearest value."""
    size = 2 * radius + 1
    for _ in range(2):  # down the columns, then along the rows, via the transpose
        p = np.pad(img.T, ((0, 0), (radius, radius)), mode="edge")
        steps = np.concatenate([p[:, :size], p[:, size:] - p[:, :-size]], axis=1)
        img = np.cumsum(steps, axis=1)[:, size - 1 :] / size
    return img


def replacement_input(x, cfg: EvalConfig) -> np.ndarray:
    """The fully-replaced version of x under the configured mode."""
    x = np.asarray(x, dtype=float)
    if cfg.replacement == "black":
        return np.zeros_like(x)
    if cfg.replacement == "blur" and cfg.grid is not None:
        h, w = cfg.grid
        if h * w != x.size:
            raise DimensionMismatch(f"grid {h}x{w} does not match {x.size} features")
        img = x.reshape(h, w)
        for _ in range(3):
            img = _box_blur(img, cfg.blur_radius)
        return img.ravel()
    return np.full_like(x, x.mean())


def _curve(model: Model, x, attribution: AttributionMap, cfg: EvalConfig, delete: bool) -> EvalCurve:
    """Scores as features move, best first, from x to the replacement or (insertion) back."""
    x = np.asarray(x, dtype=float)
    if x.size != len(attribution) or x.size != model.dim:
        raise DimensionMismatch("input, attribution, and model dimensions must agree")
    repl = replacement_input(x, cfg)
    start, target = (x, repl) if delete else (repl, x)
    n = x.size
    counts = np.append(np.arange(0, n, cfg.features_per_step), n)
    # The ends exactly, so a deletion curve ends where its insertion curve starts.
    ends = evaluate_batch(model, np.stack([start, target]))
    inner = path_scores(model, start, target, feature_order(attribution, cfg.absolute), counts[1:-1])
    scores = np.concatenate([ends[:1], inner, ends[1:]])
    fractions = counts / n
    return EvalCurve(fractions, scores, float(np.trapezoid(scores, fractions)))


def deletion_curve(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> EvalCurve:
    """Model score as top-attributed features are replaced, best first."""
    return _curve(model, x, attribution, cfg, delete=True)


def insertion_curve(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> EvalCurve:
    """Model score as original features are restored into the replaced input."""
    return _curve(model, x, attribution, cfg, delete=False)


def difference_score(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> float:
    """Insertion AUC minus deletion AUC under the same replacement mode."""
    ins = insertion_curve(model, x, attribution, cfg)
    dele = deletion_curve(model, x, attribution, cfg)
    return ins.auc - dele.auc


def _two_rounds(cfg: EvalConfig) -> tuple:
    """The replacement modes of the two-round difference: black, then blur or mean."""
    return ("black", "blur" if cfg.grid is not None else "mean")


def _aucs(model: Model, x, attribution: AttributionMap, cfg: EvalConfig, modes) -> dict:
    """(deletion AUC, insertion AUC) once for each distinct replacement mode in ``modes``."""
    out = {}
    for mode in dict.fromkeys(modes):
        c = replace(cfg, replacement=mode)
        out[mode] = (deletion_curve(model, x, attribution, c).auc,
                     insertion_curve(model, x, attribution, c).auc)
    return out


def _mean_difference(aucs: dict, cfg: EvalConfig) -> float:
    """The two-round difference from the AUCs of its rounds, as given by :func:`_aucs`."""
    return float(np.mean([ins - dele for dele, ins in (aucs[m] for m in _two_rounds(cfg))]))


def two_round_difference(
    model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()
) -> float:
    """Mean difference score over the black round and the blur/mean round."""
    return _mean_difference(_aucs(model, x, attribution, cfg, _two_rounds(cfg)), cfg)


# ---------------------------------------------------------------------------
# multi-method benchmark


METHODS = ("neflag", "ig", "smoothgrad", "saliency", "taylor", "random")


def make_method(name: str, **params):
    """Attribution method by id in ``METHODS`` as a callable (model, x, seed) -> AttributionMap.

    ``seed`` overrides any seed baked into params, so the benchmark can
    derive per-sample seeds.  An unknown id or invalid params raise
    ValueError here, not per call.
    """
    if name not in METHODS:
        raise ValueError(f"unknown attribution method {name!r}")
    if name == "neflag":
        cfg = NeflagConfig(**params)

        def run(model, x, seed):
            return neflag_attribute(model, x, replace(cfg, seed=seed))
    elif name == "ig":
        cfg = IgConfig(**params)

        def run(model, x, seed):
            return integrated_gradients(model, x, cfg)
    elif name == "smoothgrad":
        cfg = SmoothGradConfig(**params)

        def run(model, x, seed):
            return smoothgrad(model, x, replace(cfg, seed=seed))
    elif name == "saliency":
        def run(model, x, seed):
            return saliency(model, x)
    elif name == "taylor":
        epsilon = params.get("epsilon", 0.1)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")

        def run(model, x, seed):
            point = sample_sphere(SphereSpec(np.asarray(x, dtype=float), epsilon), seed)
            return taylor_heatmap(model, x, point)
    else:  # random
        def run(model, x, seed):
            return random_attribution(model, x, seed)
    run.__name__ = name
    return run


@dataclass(frozen=True)
class MethodResult:
    """Per-method aggregate of the benchmark."""

    method: str
    deletion_mean: float
    deletion_se: float
    insertion_mean: float
    insertion_se: float
    difference_mean: float
    difference_se: float
    samples_ok: int
    samples_failed: int


@dataclass(frozen=True)
class BenchmarkReport:
    results: tuple
    replacement: str
    seed: int

    def to_json(self) -> dict:
        return {
            "replacement": self.replacement,
            "seed": self.seed,
            "methods": [vars(r) for r in self.results],
        }

    def json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def csv_str(self) -> str:
        lines = [",".join(f.name for f in fields(MethodResult))]
        lines += [",".join(str(v) for v in vars(r).values()) for r in self.results]
        return "\n".join(lines) + "\n"


def _sample_seed(master: int, method_idx: int, sample_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(method_idx, sample_idx))
    return int(ss.generate_state(1)[0])


def benchmark(
    model: Model,
    inputs,
    methods: dict,
    cfg: EvalConfig = EvalConfig(),
    seed: int = 0,
) -> BenchmarkReport:
    """Deletion/insertion table over a list of inputs and named methods.

    ``methods`` maps method id -> callable (model, x, seed).  Each method
    runs over every input in turn, on the calling thread, with per-sample
    seeds derived counter-style from the master seed.  Per-sample
    attribution failures are counted, not fatal.
    """
    inputs = [np.asarray(x, dtype=float) for x in inputs]
    if not inputs or not methods:
        raise ValueError("benchmark needs at least one input and one method")
    rounds = _two_rounds(cfg)
    # blur without a grid is mean, so cfg's round is often one of the two
    own = rounds[1] if cfg.replacement == "blur" else cfg.replacement

    results = []
    for mi, (name, fn) in enumerate(methods.items()):
        rows = []  # (deletion, insertion, difference) of each sample that succeeded
        for xi, x in enumerate(inputs):
            try:
                attr = fn(model, x, _sample_seed(seed, mi, xi))
                aucs = _aucs(model, x, attr, cfg, (own, *rounds))
            except FluxgradError:
                continue
            rows.append((*aucs[own], _mean_difference(aucs, cfg)))
        if rows:
            arr = np.asarray(rows)
            means = arr.mean(axis=0)
            ses = arr.std(axis=0, ddof=1) / np.sqrt(len(rows)) if len(rows) > 1 else np.zeros(3)
        else:
            means = ses = np.full(3, np.nan)
        stats = [float(v) for pair in zip(means, ses) for v in pair]
        results.append(MethodResult(name, *stats, len(rows), len(inputs) - len(rows)))
    return BenchmarkReport(tuple(results), cfg.replacement, seed)
