"""Command-line surface: attribute inputs, verify the flux math, run
deletion/insertion benchmarks, and train toy models.

Exit codes: 0 success, 2 usage or parse failure, 3 no negative flux found,
4 divergence-theorem verification failure, 5 no sample succeeded.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import evalkit
from .baselines import _completeness
from .divergence import divergence_theorem_report
from .errors import FluxgradError, NoNegativeFlux
from .geometry import SphereSpec
from .models import load_model, model_json_str
from .train import fit_toy_model, load_dataset_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_NEGATIVE_FLUX = 3
EXIT_VERIFY_FAIL = 4
EXIT_EMPTY = 5


class CliError(Exception):
    """Fatal usage or parse problem; message names the offending field."""


def _load_vector(path) -> np.ndarray:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"input: cannot read {path}: {exc}") from exc
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise CliError(f"input: {path} is not a flat list of numbers") from exc
    if not vals:
        raise CliError(f"input: {path} holds no numbers")
    return np.asarray(vals)


def _load_model_arg(path):
    try:
        return load_model(path)
    except OSError as exc:
        raise CliError(f"model: cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        # a document of the wrong shape fails as it is read
        raise CliError(f"model: {path} is not a valid model file: {exc}") from exc


def _parse_grid(text, size):
    """The (H, W) of an HxW layout of ``size`` features, or None if not given."""
    if text is None:
        return None
    try:
        h, w = (int(tok) for tok in text.lower().split("x"))
    except ValueError as exc:
        raise CliError(f"grid: expected HxW, got {text!r}") from exc
    if h < 1 or w < 1 or h * w != size:
        raise CliError(f"grid: {text} does not lay out {size} features")
    return h, w


def _parse_hidden(text):
    """The hidden layer sizes in a comma-separated list of positive integers."""
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise CliError(f"hidden: expected comma-separated integers, got {text!r}") from exc
    if any(size < 1 for size in sizes):
        raise CliError(f"hidden: layer sizes must be >= 1, got {text!r}")
    return sizes


def _check_out_dir(path):
    """Fail before any output is written if the directory ``path`` names is missing."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise CliError(f"out: directory {directory} does not exist")


def _write_outputs(files):
    """Write each (path, text) to a temporary file beside it, then replace the
    targets only once every file is written, so a failure leaves none of them."""
    tmps = []
    try:
        for path, text in files:
            tmps.append((f"{path}.{os.getpid()}.tmp", path))
            with open(tmps[-1][0], "w") as fh:
                fh.write(text)
        for tmp, path in tmps:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _ in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise CliError(f"out: cannot write {path}: {exc.strerror or exc}") from exc


def _method_fn(name, args):
    """The attribution method ``name`` configured from the options given; the rest keep its defaults."""
    if name == "neflag":
        params = dict(epsilon=args.epsilon, n_samples=args.samples,
                      max_steps=args.steps, step_rule=args.step_rule)
    elif name == "ig":
        baseline = _load_vector(args.baseline) if args.baseline else None
        params = dict(steps=args.steps, baseline=baseline)
    elif name == "smoothgrad":
        params = dict(sigma=args.sigma, samples=args.samples)
    elif name == "taylor":
        params = dict(epsilon=args.epsilon)
    else:
        params = {}
    try:
        return evalkit.make_method(name, **{k: v for k, v in params.items() if v is not None})
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from exc


def cmd_attribute(args) -> int:
    model = _load_model_arg(args.model)
    x = _load_vector(args.input)
    grid = _parse_grid(args.grid, x.size)
    method = _method_fn(args.method, args)
    try:
        attr = method(model, x, args.seed)
    except NoNegativeFlux as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_NEGATIVE_FLUX
    doc = attr.to_json()
    if args.method == "ig":
        doc["completeness"] = _completeness(model, x, attr)
    files = [(args.out + ".json", json.dumps(doc, indent=2, sort_keys=True) + "\n"),
             (args.out + ".csv", attr.csv_str())]
    if grid is not None:
        files.append((args.out + ".pgm", attr.pgm_str(grid)))
    _write_outputs(files)
    print(f"wrote {args.out}.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model_arg(args.model)
    x = _load_vector(args.input) if args.input else np.zeros(model.dim)
    if x.size != model.dim:
        raise CliError(f"input: length {x.size} does not match model dim {model.dim}")
    try:
        report = divergence_theorem_report(
            model, SphereSpec(x, args.epsilon), samples=args.samples, seed=args.seed
        )
    except ValueError as exc:  # NotSmooth, a bad --epsilon or --samples, MeasureOverflow for a vast ball
        raise CliError(str(exc)) from exc
    _write_outputs([(args.out, report.json_str())])
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: lhs={report.volume_integral:.6g} rhs={report.surface_integral:.6g}"
        f" diff={report.difference:.3g} stderr={report.combined_standard_error:.3g}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_eval(args) -> int:
    model = _load_model_arg(args.model)
    try:
        X, _ = load_dataset_csv(args.input)
    except (OSError, ValueError) as exc:
        raise CliError(f"input: {exc}") from exc
    if X.shape[1] != model.dim:
        raise CliError(
            f"input: dataset width {X.shape[1]} does not match model dim {model.dim}"
        )
    if args.limit < 0:
        raise CliError("limit: must be >= 0")
    if args.limit:
        X = X[: args.limit]
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names:
        raise CliError("methods: name at least one method")
    methods = {name: _method_fn(name, args) for name in names}
    cfg = evalkit.EvalConfig(replacement=args.replacement, grid=_parse_grid(args.grid, model.dim))
    report = evalkit.benchmark(model, list(X), methods, cfg, seed=args.seed)
    if all(r.samples_ok == 0 for r in report.results):
        print("error: no sample succeeded for any method", file=sys.stderr)
        return EXIT_EMPTY
    _write_outputs([(args.out + ".json", report.json_str()), (args.out + ".csv", report.csv_str())])
    print(report.csv_str(), end="")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    try:
        X, y = load_dataset_csv(args.input)
    except (OSError, ValueError) as exc:
        raise CliError(f"input: {exc}") from exc
    hidden = _parse_hidden(args.hidden)
    try:
        result = fit_toy_model(X, y, hidden=hidden, activation=args.activation,
                               epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    except ValueError as exc:
        raise CliError(f"train-toy: {exc}") from exc
    _write_outputs([(args.out, model_json_str(result.model))])
    print(f"final loss {result.loss:.6f}, training accuracy {result.accuracy:.4f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` its subparsers, whose usage
    errors are one ``error:`` line on stderr and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluxgrad",
        description="Feature attribution by negative-flux aggregation, with "
        "gradient baselines, flux verification, and deletion/insertion evaluation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output path (or prefix)")

    def method_options(p):  # an option not given keeps the method's own default
        every = "; eval sets it for every selected method that takes it"
        p.add_argument("--epsilon", type=float, help="sphere radius; default neflag and taylor 0.1" + every)
        p.add_argument("--samples", type=int,
                       help="negative-flux or noise samples; default neflag 20, smoothgrad 50" + every)
        p.add_argument("--steps", type=int, help="recurrence or path steps; default neflag 1, ig 100" + every)
        p.add_argument("--step-rule", choices=("sign", "normalized"), help="neflag step rule; default sign")
        p.add_argument("--baseline", help="baseline vector file (ig); default zeros")
        p.add_argument("--sigma", type=float, help="smoothgrad noise level; default 0.1")

    p = sub.add_parser("attribute", help="compute an attribution map for one input")
    common(p)
    p.add_argument("--input", required=True, help="flat vector file (csv or whitespace)")
    p.add_argument("--method", required=True, choices=evalkit.METHODS)
    method_options(p)
    p.add_argument("--grid", help="HxW layout; also emits a PGM heatmap")
    p.set_defaults(fn=cmd_attribute)

    p = sub.add_parser("verify", help="divergence-theorem cross-check on a model")
    common(p)
    p.add_argument("--input", help="sphere center vector file; default origin")
    p.add_argument("--epsilon", type=float, default=0.5, help="sphere radius")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval", help="deletion/insertion benchmark over a dataset")
    common(p)
    p.add_argument("--input", required=True, help="dataset CSV (last column label, ignored)")
    p.add_argument("--methods", default="neflag,ig,smoothgrad,saliency,random")
    p.add_argument("--replacement", choices=evalkit.REPLACEMENTS, default="black")
    method_options(p)
    p.add_argument("--grid", help="HxW layout for blur replacement")
    p.add_argument("--limit", type=int, default=0, help="cap the number of inputs")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("train-toy", help="train a toy MLP on a labeled CSV")
    p.add_argument("--input", required=True, help="dataset CSV, last column label")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--hidden", default="8", help="comma-separated hidden sizes")
    p.add_argument("--activation", choices=("relu", "tanh", "softplus"), default="tanh")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train_toy)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage error or the help
        return exc.code
    try:
        _check_out_dir(args.out)
        if args.seed < 0:
            raise CliError(f"seed: must be >= 0, got {args.seed}")
        with np.errstate(all="ignore"):  # stderr carries one error: line, never a numpy warning
            return args.fn(args)
    except (CliError, FluxgradError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
