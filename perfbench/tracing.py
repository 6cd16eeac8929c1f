"""In-memory layer tracer for the benchmark's traced runs.

The library is never edited. A traced run replaces, from outside, the
names through which each fluxgrad module calls into another module (for
example ``fluxgrad.neflag.gradient`` or ``fluxgrad.divergence.gradient_batch``)
with wrappers, and puts the originals back afterwards. Each wrapper is a
span named after the callee, ``<layer>.<function>``; a span's self time is
its duration minus the time of the spans it encloses. Spans are aggregated
per name as they close rather than kept one by one, so memory stays fixed.

Counts are recorded at the same boundaries: calls and normal returns of
every span, rows handed to every ``*_batch`` model function, and the
workload-level counters the per-layer metrics divide by. Everything in
``counts`` is an exact integer that must repeat between two traced passes
over the same operations; ``self_s`` holds wall-clock times.

The tracer is single-threaded, like the benchmark: ``FLUXGRAD_THREADS`` is
left unset, so ``evalkit.benchmark`` runs its jobs on the calling thread.
"""

import inspect
import time
from collections import Counter

LAYERS = ("models", "geometry", "neflag", "baselines", "evalkit", "divergence", "train", "cli")


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self.tag = None  # label of the running operation; counts are also kept per tag
        self._stack = []

    def add(self, key, n=1):
        self.counts[key] += n
        if self.tag is not None:
            self.counts[f"{self.tag}:{key}"] += n

    def span(self, name, fn, on_call=None, on_return=None):
        """``fn`` wrapped as a timed span named ``name``."""
        calls, ok, perf = name + ".calls", name + ".ok", time.perf_counter

        def traced(*args, **kwargs):
            self.add(calls)
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]  # time of the child spans
            self._stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
            self.add(ok)
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def counted(self, name, fn):
        """``fn`` wrapped to count its calls only; its time stays with the caller."""
        calls = name + ".calls"

        def counted(*args, **kwargs):
            self.add(calls)
            return fn(*args, **kwargs)

        return counted

    def to_json(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}

    def merge(self, doc: dict):
        """Add a tracer dumped by :meth:`to_json` (from a traced CLI child)."""
        self.counts.update(doc["counts"])
        self.self_s.update(doc["self_s"])


def _layer(module_name):
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == "fluxgrad" and layer in LAYERS else None


def _rows(args, kwargs):
    xs = args[1] if len(args) > 1 else kwargs.get("xs")
    return len(xs) if xs is not None and hasattr(xs, "__len__") else 1


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Installation:
    """Wrappers set on the fluxgrad modules for one traced pass; ``remove()`` undoes them."""

    def __init__(self, tracer: Tracer):
        import fluxgrad.baselines
        import fluxgrad.cli
        import fluxgrad.divergence
        import fluxgrad.evalkit
        import fluxgrad.neflag
        import fluxgrad.train

        self.tracer = tracer
        self._saved = []
        mods = {
            "neflag": fluxgrad.neflag,
            "evalkit": fluxgrad.evalkit,
            "divergence": fluxgrad.divergence,
            "train": fluxgrad.train,
            "cli": fluxgrad.cli,
            "baselines": fluxgrad.baselines,
        }

        # Names a module imported from another fluxgrad module: the layer
        # boundaries. Wrapped generically, so a function a later change adds
        # to a lower layer is traced without editing the benchmark.
        for site, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _layer(obj.__module__)
                if layer is None or layer == site:
                    continue
                self._set(mod, attr, self._boundary(site, f"{layer}.{obj.__name__}", obj))

        # Entry points the benchmark (or the CLI) calls through the module
        # attribute, and the in-layer steps the per-layer metrics name.
        for mod, attr in (
            (fluxgrad.neflag, "neflag_attribute"),
            (fluxgrad.evalkit, "benchmark"),
            (fluxgrad.evalkit, "deletion_curve"),
            (fluxgrad.evalkit, "insertion_curve"),
            (fluxgrad.evalkit, "replacement_input"),
            (fluxgrad.divergence, "divergence_theorem_report"),
            (fluxgrad.divergence, "volume_divergence_integral"),
            (fluxgrad.divergence, "surface_flux_integral"),
            (fluxgrad.train, "fit_toy_model"),
        ):
            if hasattr(mod, attr):
                layer = _layer(mod.__name__)
                self._set(mod, attr, self._boundary(layer, f"{layer}.{attr}", getattr(mod, attr)))
        if hasattr(fluxgrad.neflag, "recurrence_step"):
            step = tracer.counted("neflag.recurrence_step", fluxgrad.neflag.recurrence_step)
            self._set(fluxgrad.neflag, "recurrence_step", step)

    def _boundary(self, site, name, fn):
        t = self.tracer
        layer = name.split(".", 1)[0]
        on_call = on_return = None
        if layer == "models":
            batch = name.endswith("_batch")
            site_rows = {"evalkit": "evalkit.curve_rows", "divergence": "divergence.gradient_rows"}.get(site)

            def on_call(args, kwargs):
                if batch:
                    rows = _rows(args, kwargs)
                    t.add(name + ".rows", rows)
                    if site_rows is not None:
                        t.add(site_rows, rows)
                if site == "neflag":
                    t.add("neflag.model_calls")
        elif name == "geometry.sphere_points" and site == "neflag":

            def on_call(args, kwargs):
                t.add("neflag.candidates", args[1] if len(args) > 1 else kwargs["n"])
        elif name == "neflag.neflag_attribute":

            def on_return(out):
                t.add("neflag.accepted", out.samples_used or 0)
        elif name == "evalkit.benchmark":

            def on_call(args, kwargs):
                a = _bound(fn, args, kwargs)
                t.add("evalkit.jobs", len(a["inputs"]) * len(a["methods"]))
        elif name == "divergence.divergence_theorem_report":

            def on_call(args, kwargs):
                t.add("divergence.samples", int(_bound(fn, args, kwargs)["samples"]))
        return t.span(name, fn, on_call, on_return)

    def _set(self, mod, attr, wrapper):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """The per-layer metrics of one traced pass (0 where a layer did not run)."""
    c, s = t.counts, t.self_s
    out = {}
    for fn in ("gradient", "evaluate", "gradient_batch", "evaluate_batch"):
        out[f"models.{fn}.calls"] = c[f"models.{fn}.calls"]
        if fn.endswith("_batch"):
            out[f"models.{fn}.rows"] = c[f"models.{fn}.rows"]
        out[f"models.{fn}.self_s"] = s[f"models.{fn}"]
    out["geometry.sphere_points.calls"] = c["geometry.sphere_points.calls"]
    for fn in ("sphere_points", "ball_points", "sphere_directions"):
        out[f"geometry.{fn}.self_s"] = s[f"geometry.{fn}"]
    attrs = c["neflag.neflag_attribute.ok"]
    out["neflag.neflag_attribute.self_s"] = s["neflag.neflag_attribute"]
    out["neflag.recurrence_step.calls"] = c["neflag.recurrence_step.calls"]
    out["neflag.candidates"] = c["neflag.candidates"]
    out["neflag.accept_ratio"] = _ratio(c["neflag.accepted"], c["neflag.candidates"])
    out["neflag.model_calls_per_attr"] = _ratio(c["neflag.model_calls"], attrs)
    for tag in ("sign", "normalized", "none"):
        out[f"neflag.accept_ratio_{tag}"] = _ratio(
            c[f"{tag}:neflag.accepted"], c[f"{tag}:neflag.candidates"]
        )
    for tag, label in (("sign", "default"), ("normalized", "m5")):
        out[f"neflag.model_calls_per_{label}_attr"] = _ratio(
            c[f"{tag}:neflag.model_calls"], c[f"{tag}:neflag.neflag_attribute.ok"]
        )
    for fn in ("integrated_gradients", "smoothgrad", "saliency"):
        out[f"baselines.{fn}.self_s"] = s[f"baselines.{fn}"]
    jobs = c["evalkit.jobs"]
    curves = c["evalkit.deletion_curve.calls"] + c["evalkit.insertion_curve.calls"]
    out["evalkit.curves_per_job"] = _ratio(curves, jobs)
    out["evalkit.curve_rows_per_job"] = _ratio(c["evalkit.curve_rows"], jobs)
    for fn in ("deletion_curve", "insertion_curve", "replacement_input", "benchmark"):
        out[f"evalkit.{fn}.self_s"] = s[f"evalkit.{fn}"]
    for fn in ("volume_divergence_integral", "surface_flux_integral"):
        out[f"divergence.{fn}.self_s"] = s[f"divergence.{fn}"]
    out["divergence.gradient_rows_per_sample"] = _ratio(
        c["divergence.gradient_rows"], c["divergence.samples"]
    )
    out["train.fit_toy_model.self_s"] = s["train.fit_toy_model"]
    return out


# The counts later changes are expected to move (ROADMAP items 2 and 3).
EXACT_COUNT_KEYS = (
    "neflag.model_calls_per_default_attr",
    "neflag.model_calls_per_m5_attr",
    "neflag.accept_ratio_sign",
    "neflag.accept_ratio_normalized",
    "evalkit.curves_per_job",
    "evalkit.curve_rows_per_job",
    "divergence.gradient_rows_per_sample",
)
