"""Deletion/insertion evaluation of attribution maps.

Features are ranked by their attribution scores and progressively replaced
(deletion) or restored (insertion) while the model output is tracked; the
area under the resulting fraction/score curve summarizes how quickly the
explanation's top features move the prediction.  Lower deletion AUC and
higher insertion AUC are better; their difference neutralizes the
distribution shift both curves share.
"""

import contextlib
import json
from dataclasses import KW_ONLY, dataclass, fields, replace

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
from .models import Model, _readonly, evaluate_batch, path_change, path_scores
from .neflag import NeflagConfig, SphereSpec, neflag_attribute, sample_sphere, taylor_heatmap

REPLACEMENTS = ("black", "mean", "blur")


@dataclass(frozen=True)
class EvalConfig:
    """Curve construction knobs.

    ``replacement`` selects the substitute for removed features: zeros
    ("black"), the input's mean value, or an iterated box blur (grid
    inputs only; non-grid inputs silently fall back to mean for the blur
    round).  A curve has a point after each of 0, 1, ..., N features move.
    """

    replacement: str = "black"
    _: KW_ONLY
    grid: tuple[int, int] | None = None

    def __post_init__(self):
        if self.replacement not in REPLACEMENTS:
            raise ValueError(f"unknown replacement {self.replacement!r}")


@dataclass(frozen=True, eq=False)
class EvalCurve:
    """Model scores after 0, 1, ..., N of N features moved, with their fractions and trapezoid AUC."""

    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", _readonly(self.scores))
        if self.scores.ndim != 1 or self.scores.size < 2:
            raise ValueError("scores must be a flat vector of at least 2 points")

    @property
    def fractions(self) -> np.ndarray:
        return np.arange(self.scores.size) / (self.scores.size - 1)

    @property
    def auc(self) -> float:
        return float(np.trapezoid(self.scores, self.fractions))


def feature_order(attribution: AttributionMap) -> np.ndarray:
    """Feature indices in descending signed attribution order, ties by index."""
    return np.argsort(-attribution.values, kind="stable")


def _box_blur(img):
    """Mean over each 3 x 3 window, edges extended by their nearest value."""
    for _ in range(2):  # down the columns, then along the rows, via the transpose
        p = np.pad(img.T, ((0, 0), (1, 1)), mode="edge")
        steps = np.concatenate([p[:, :3], p[:, 3:] - p[:, :-3]], axis=1)
        img = np.cumsum(steps, axis=1)[:, 2:] / 3
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
            img = _box_blur(img)
        return img.ravel()
    return np.full_like(x, x.mean())


def _round(model: Model, x, cfg: EvalConfig):
    """One replacement round of x: a function from a feature order to its [deletion, insertion]
    curves.  The replacement, its exact ends and :func:`models.path_change` serve every order."""
    x = np.asarray(x, dtype=float)
    repl = replacement_input(x, cfg)
    ends = evaluate_batch(model, np.stack([x, repl]))  # exact, so deletion ends where insertion starts
    path = path_change(model, x, repl)

    def curves(order) -> list:
        dele, ins = path_scores(model, path, order)
        return [EvalCurve(np.concatenate([ends[:1], dele, ends[1:]])),
                EvalCurve(np.concatenate([ends[1:], ins, ends[:1]]))]

    return curves


def _ranking(model: Model, attribution: AttributionMap) -> np.ndarray:
    """The order in which the curves move features, for a map of the model's length."""
    if len(attribution) != model.dim:
        raise DimensionMismatch("input, attribution, and model dimensions must agree")
    return feature_order(attribution)


def deletion_curve(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> EvalCurve:
    """Model score as top-attributed features are replaced, best first."""
    return _round(model, x, cfg)(_ranking(model, attribution))[0]


def insertion_curve(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> EvalCurve:
    """Model score as original features are restored into the replaced input."""
    return _round(model, x, cfg)(_ranking(model, attribution))[1]


def difference_score(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> float:
    """Insertion AUC minus deletion AUC under the same replacement mode."""
    dele, ins = _round(model, x, cfg)(_ranking(model, attribution))
    return ins.auc - dele.auc


def _two_rounds(cfg: EvalConfig) -> tuple:
    """The replacement modes of the two-round difference: black, then blur or mean."""
    return ("black", "blur" if cfg.grid is not None else "mean")


def _mean_difference(aucs: dict, cfg: EvalConfig) -> float:
    """The two-round difference from the (deletion, insertion) AUCs of each replacement mode."""
    return float(np.mean([ins - dele for dele, ins in (aucs[m] for m in _two_rounds(cfg))]))


def two_round_difference(model: Model, x, attribution: AttributionMap, cfg: EvalConfig = EvalConfig()) -> float:
    """Mean difference score over the black round and the blur/mean round."""
    order = _ranking(model, attribution)
    aucs = {m: [c.auc for c in _round(model, x, replace(cfg, replacement=m))(order)] for m in _two_rounds(cfg)}
    return _mean_difference(aucs, cfg)


# ---------------------------------------------------------------------------
# multi-method benchmark


METHODS = ("neflag", "ig", "smoothgrad", "saliency", "taylor", "random")


def make_method(name: str, **params):
    """Attribution method by id in ``METHODS`` as a callable (model, x, seed) -> AttributionMap.

    ``seed`` overrides any seed baked into params, so the benchmark can
    derive per-sample seeds.  An unknown id, an unknown parameter or an
    invalid value raise ValueError here, not per call.
    """
    if name not in METHODS:
        raise ValueError(f"unknown attribution method {name!r}")
    config = {"neflag": NeflagConfig, "ig": IgConfig, "smoothgrad": SmoothGradConfig}.get(name)
    if config is not None:
        known = {f.name for f in fields(config)}
    else:
        known = {"epsilon"} if name == "taylor" else set()
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(f"unknown {name} parameter(s): {', '.join(unknown)}")
    cfg = config(**params) if config else None
    if name == "neflag":
        def run(model, x, seed):
            return neflag_attribute(model, x, replace(cfg, seed=seed))
    elif name == "ig":
        def run(model, x, seed):
            return integrated_gradients(model, x, cfg)
    elif name == "smoothgrad":
        def run(model, x, seed):
            return smoothgrad(model, x, replace(cfg, seed=seed))
    elif name == "saliency":
        def run(model, x, seed):
            return saliency(model, x)
    elif name == "taylor":
        epsilon = params.get("epsilon", 0.1)
        if not 0 < epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")

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

    ``methods`` maps method id -> callable (model, x, seed).  Inputs run in turn on the
    calling thread: every method attributes one, with per-sample seeds derived counter-style
    from the master seed, then each distinct replacement round of it is built once for all
    their curves.  Per-sample failures are counted, not fatal; an input that no round can be
    built for (a NaN, a wrong length, a grid mismatch) fails every method."""
    inputs = [np.asarray(x, dtype=float) for x in inputs]
    if not inputs or not methods:
        raise ValueError("benchmark needs at least one input and one method")
    # blur without a grid is mean, so cfg's round is often one of the two
    own = _two_rounds(cfg)[1] if cfg.replacement == "blur" else cfg.replacement
    rows = {name: [] for name in methods}  # (deletion, insertion, difference) of each sample that succeeded
    for xi, x in enumerate(inputs):
        orders = {}
        for mi, (name, fn) in enumerate(methods.items()):
            with contextlib.suppress(FluxgradError):
                orders[name] = _ranking(model, fn(model, x, _sample_seed(seed, mi, xi)))
        aucs = {name: {} for name in orders}
        try:
            for mode in dict.fromkeys((own, *_two_rounds(cfg))):
                rnd = _round(model, x, replace(cfg, replacement=mode))
                for name, order in orders.items():
                    aucs[name][mode] = [c.auc for c in rnd(order)]
                del rnd  # one round alive at a time
        except FluxgradError:  # the input itself is at fault
            continue
        for name, a in aucs.items():
            rows[name].append((*a[own], _mean_difference(a, cfg)))

    results = []
    for name, r in rows.items():
        if r:
            arr = np.asarray(r)
            means = arr.mean(axis=0)
            ses = arr.std(axis=0, ddof=1) / np.sqrt(len(r)) if len(r) > 1 else np.zeros(3)
        else:
            means = ses = np.full(3, np.nan)
        stats = [float(v) for pair in zip(means, ses) for v in pair]
        results.append(MethodResult(name, *stats, len(r), len(inputs) - len(r)))
    return BenchmarkReport(tuple(results), cfg.replacement, seed)
