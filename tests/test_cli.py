import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fluxgrad as fg
from fluxgrad import cli

from conftest import subprocess_env

CLI = [sys.executable, "-m", "fluxgrad.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=subprocess_env())


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    fg.save_model(fg.linear_model([3.0, 4.0]), root / "linear.json")
    fg.save_model(fg.quadratic_model([1.0, 2.0, 3.0]), root / "quadratic.json")
    fg.save_model(
        fg.random_mlp(2, hidden=(4,), activation="relu", seed=0), root / "relu.json"
    )
    (root / "origin2.txt").write_text("0.0, 0.0\n")
    (root / "huge2.txt").write_text("1e308 1e308\n")
    X, y = fg.blob_dataset(80, margin=1.0, seed=3)
    fg.save_dataset_csv(root / "blobs.csv", X, y)
    (root / "empty.csv").write_text("")
    return root


class TestAttribute:
    def test_sign_rule_hand_trace(self, fixtures, tmp_path):
        out = tmp_path / "att"
        res = run_cli(
            "attribute", "--model", str(fixtures / "linear.json"),
            "--input", str(fixtures / "origin2.txt"),
            "--method", "neflag", "--epsilon", "1.0", "--samples", "1",
            "--steps", "1", "--step-rule", "sign",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "att.json").read_text())
        assert doc["values"] == [3.0, 4.0]
        assert (tmp_path / "att.csv").read_text().startswith("feature,value")

    def test_ig_reports_completeness(self, fixtures, tmp_path):
        inp = tmp_path / "x.txt"
        inp.write_text("1.0 2.0")
        out = tmp_path / "ig"
        res = run_cli(
            "attribute", "--model", str(fixtures / "linear.json"),
            "--input", str(inp), "--method", "ig", "--steps", "100",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "ig.json").read_text())
        comp = doc["completeness"]
        assert comp["attribution_sum"] == pytest.approx(comp["delta_f"], abs=1e-9)

    def test_missing_model_is_usage_error(self, fixtures, tmp_path):
        res = run_cli(
            "attribute", "--input", str(fixtures / "origin2.txt"),
            "--method", "saliency", "--out", str(tmp_path / "x"),
        )
        assert res.returncode == 2
        assert "model" in res.stderr

    def test_no_negative_flux_exit_code(self, fixtures, tmp_path):
        fg.save_model(fg.quadratic_model([1.0, 1.0]), tmp_path / "bowl.json")
        res = run_cli(
            "attribute", "--model", str(tmp_path / "bowl.json"),
            "--input", str(fixtures / "origin2.txt"),
            "--method", "neflag", "--out", str(tmp_path / "x"),
        )
        assert res.returncode == 3

    def test_grid_emits_pgm(self, fixtures, tmp_path):
        inp = tmp_path / "x.txt"
        inp.write_text("1.0 2.0")
        res = run_cli(
            "attribute", "--model", str(fixtures / "linear.json"),
            "--input", str(inp), "--method", "saliency",
            "--grid", "1x2", "--out", str(tmp_path / "g"),
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "g.pgm").read_text().startswith("P2\n2 1\n255")


class TestVerify:
    def test_quadratic_passes(self, fixtures, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "verify", "--model", str(fixtures / "quadratic.json"),
            "--samples", "20000", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["lhs"] == pytest.approx(np.pi, rel=1e-6)

    def test_linear_both_sides_zero(self, fixtures, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "verify", "--model", str(fixtures / "linear.json"),
            "--input", str(fixtures / "origin2.txt"),
            "--samples", "5000", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert abs(doc["lhs"]) < 1e-8 and doc["pass"] is True

    def test_relu_model_rejected(self, fixtures, tmp_path):
        res = run_cli(
            "verify", "--model", str(fixtures / "relu.json"),
            "--out", str(tmp_path / "r.json"),
        )
        assert res.returncode == 2
        assert "not continuously differentiable" in res.stderr


class TestEval:
    def test_table_schema_and_determinism(self, fixtures, tmp_path):
        model = tmp_path / "toy.json"
        run = run_cli(
            "train-toy", "--input", str(fixtures / "blobs.csv"),
            "--epochs", "200", "--out", str(model),
        )
        assert run.returncode == 0, run.stderr
        outs = []
        for tag in ("a", "b"):
            res = run_cli(
                "eval", "--model", str(model),
                "--input", str(fixtures / "blobs.csv"),
                "--methods", "neflag,saliency,random",
                "--limit", "5", "--seed", "3",
                "--out", str(tmp_path / tag),
            )
            assert res.returncode == 0, res.stderr
            outs.append(
                ((tmp_path / f"{tag}.csv").read_bytes(),
                 (tmp_path / f"{tag}.json").read_bytes())
            )
        assert outs[0] == outs[1]
        header = outs[0][0].decode().splitlines()[0]
        assert "difference_mean" in header
        doc = json.loads(outs[0][1])
        assert [m["method"] for m in doc["methods"]] == ["neflag", "saliency", "random"]

    def test_unknown_method_is_usage_error(self, fixtures, tmp_path):
        res = run_cli(
            "eval", "--model", str(fixtures / "linear.json"),
            "--input", str(fixtures / "blobs.csv"),
            "--methods", "lime", "--out", str(tmp_path / "x"),
        )
        assert res.returncode == 2
        assert "method" in res.stderr


class TestTrainToy:
    def test_accuracy_printed(self, fixtures, tmp_path):
        res = run_cli(
            "train-toy", "--input", str(fixtures / "blobs.csv"),
            "--epochs", "500", "--out", str(tmp_path / "m.json"),
        )
        assert res.returncode == 0, res.stderr
        assert "accuracy" in res.stdout
        acc = float(res.stdout.strip().rsplit(" ", 1)[-1])
        assert acc >= 0.95
        model = fg.load_model(tmp_path / "m.json")
        assert model.kind == "mlp"

    def test_fixed_seed_byte_identical_model(self, fixtures, tmp_path):
        for tag in ("a", "b"):
            res = run_cli(
                "train-toy", "--input", str(fixtures / "blobs.csv"),
                "--epochs", "100", "--seed", "9",
                "--out", str(tmp_path / f"{tag}.json"),
            )
            assert res.returncode == 0, res.stderr
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_empty_csv_is_usage_error(self, fixtures, tmp_path):
        res = run_cli(
            "train-toy", "--input", str(fixtures / "empty.csv"),
            "--out", str(tmp_path / "m.json"),
        )
        assert res.returncode == 2
        assert "input" in res.stderr


NO_OUT = "<no --out>"  # a case holding this runs without the default --out

MISUSE = {
    "neflag-samples-0": ["attribute", "--method", "neflag", "--samples", "0"],
    "neflag-epsilon-0": ["attribute", "--method", "neflag", "--epsilon", "0"],
    "neflag-epsilon-neg": ["attribute", "--method", "neflag", "--epsilon", "-1"],
    "neflag-steps-0": ["attribute", "--method", "neflag", "--steps", "0"],
    "smoothgrad-samples-0": ["attribute", "--method", "smoothgrad", "--samples", "0"],
    "smoothgrad-sigma-neg": ["attribute", "--method", "smoothgrad", "--sigma", "-1"],
    "ig-steps-0": ["attribute", "--method", "ig", "--steps", "0"],
    "ig-non-finite-map": ["attribute", "--method", "ig", "--input", "{huge}"],
    "taylor-epsilon-neg": ["attribute", "--method", "taylor", "--epsilon", "-1"],
    "grid-too-big": ["attribute", "--method", "saliency", "--grid", "3x3"],
    "grid-negative": ["attribute", "--method", "saliency", "--grid=-1x-2"],
    "verify-epsilon-neg": ["verify", "--epsilon", "-1"],
    "verify-samples-0": ["verify", "--samples", "0"],
    "eval-samples-0": ["eval", "--samples", "0"],
    "eval-blur-grid": ["eval", "--replacement", "blur", "--grid", "3x3"],
    "eval-limit-neg": ["eval", "--limit", "-1"],
    "model-dim-contradicts-params": ["attribute", "--method", "saliency", "--model", "{baddim}"],
    "model-2d-linear-weight": ["attribute", "--method", "saliency", "--model", "{lin2d}"],
    "model-head-ignored-setting": ["attribute", "--method", "saliency", "--model", "{badhead}"],
    "attribute-out-dir-missing": ["attribute", "--method", "saliency", "--out", "{missing}"],
    "verify-out-dir-missing": ["verify", "--out", "{missing}"],
    "eval-out-dir-missing": ["eval", "--methods", "saliency", "--out", "{missing}"],
    "train-toy-out-dir-missing": ["train-toy", "--out", "{missing}"],
    "train-toy-hidden-not-int": ["train-toy", "--hidden", "abc"],
    "train-toy-hidden-0": ["train-toy", "--hidden", "0"],
    "train-toy-epochs-0": ["train-toy", "--epochs", "0"],
    "train-toy-lr-negative": ["train-toy", "--lr", "-0.5"],
    "train-toy-lr-0": ["train-toy", "--lr", "0"],
    "train-toy-nan-cell": ["train-toy", "--input", "{nancsv}"],
    "model-nan-weight": ["verify", "--model", "{nanweight}"],
    "verify-out-missing": ["verify", NO_OUT],
    "unknown-option": ["attribute", "--method", "saliency", "--bogus"],
    "eval-replacement-bad-choice": ["eval", "--replacement", "white"],
}


@pytest.mark.parametrize("argv", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_exits_2_with_one_line_and_no_output(fixtures, tmp_path, argv):
    doc = fg.model_to_json(fg.linear_model([3.0, 4.0]))
    (tmp_path / "baddim.json").write_text(json.dumps({**doc, "dim": 5}))
    (tmp_path / "lin2d.json").write_text(json.dumps({**doc, "params": {"a": [[3.0, 4.0]], "b": 0.0}}))
    badhead = {"type": "identity", "logit": True, "target": 9}
    (tmp_path / "badhead.json").write_text(json.dumps({**doc, "head": badhead}))
    (tmp_path / "nanweight.json").write_text(json.dumps({**doc, "params": {"a": [np.nan, 1.0], "b": 0.0}}))
    X, y = fg.blob_dataset(20, seed=3)
    X[4, 1] = np.nan
    fg.save_dataset_csv(tmp_path / "nan.csv", X, y)
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(baddim=tmp_path / "baddim.json", badhead=tmp_path / "badhead.json",
                     lin2d=tmp_path / "lin2d.json", nanweight=tmp_path / "nanweight.json",
                     nancsv=tmp_path / "nan.csv", missing=out / "missing" / "o",
                     huge=fixtures / "huge2.txt") for a in argv]
    model = ["--model", str(fixtures / "linear.json")]
    defaults = {
        "attribute": [*model, "--input", str(fixtures / "origin2.txt")],
        "verify": [*model, "--input", str(fixtures / "origin2.txt")],
        "eval": [*model, "--input", str(fixtures / "blobs.csv")],
        "train-toy": ["--input", str(fixtures / "blobs.csv")],
    }[argv[0]]
    out_option = [] if NO_OUT in argv else ["--out", str(out / "o")]
    # the case's own options come last, so they override the defaults
    res = run_cli(argv[0], *defaults, *out_option, *[a for a in argv[1:] if a != NO_OUT])
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


def test_extreme_inputs_print_no_numpy_warning(fixtures, tmp_path):
    # a subprocess, because pytest's warning capture would hide warnings from in-process stderr
    huge_csv = tmp_path / "huge.csv"
    fg.save_dataset_csv(huge_csv, np.full((2, 2), 1e308), [0, 1])
    model = ["--model", str(fixtures / "linear.json")]
    runs = [
        (["eval", *model, "--input", str(huge_csv), "--methods", "saliency"], 5),
        (["attribute", *model, "--input", str(fixtures / "huge2.txt"), "--method", "saliency"], 0),
        (["attribute", *model, "--input", str(fixtures / "huge2.txt"), "--method", "ig"], 2),
    ]
    for i, (argv, code) in enumerate(runs):
        res = run_cli(*argv, "--out", str(tmp_path / f"o{i}"))
        assert res.returncode == code, res.stderr
        assert "Warning" not in res.stderr and len(res.stderr.splitlines()) <= 1, res.stderr


@pytest.mark.parametrize("subcommand", ["attribute", "eval"])
def test_method_options_not_given_keep_the_library_defaults(subcommand):
    # a dim-4 tanh MLP with a sigmoid head, where IG's step count and SmoothGrad's sample count show
    model = fg.random_mlp(4, hidden=(5,), activation="tanh", seed=2, head=fg.Head("sigmoid"))
    x = np.array([0.3, -1.2, 0.8, 2.0])
    argv = [subcommand, "--model", "m.json", "--input", "x.txt", "--out", "o"]
    for name in fg.evalkit.METHODS:
        extra = ["--method", name] if subcommand == "attribute" else []
        args = cli.build_parser().parse_args(argv + extra)
        got = cli._method_fn(name, args)(model, x, 7)
        want = fg.make_method(name)(model, x, 7)
        assert np.array_equal(got.values, want.values) and got.params == want.params, name


def test_eval_method_options_set_every_selected_method_that_takes_them():
    model = fg.random_mlp(4, hidden=(5,), activation="tanh", seed=2, head=fg.Head("sigmoid"))
    x = np.array([0.3, -1.2, 0.8, 2.0])
    args = cli.build_parser().parse_args(["eval", "--model", "m.json", "--input", "x.csv", "--out", "o",
                                          "--steps", "3", "--samples", "4", "--epsilon", "0.2"])
    neflag = cli._method_fn("neflag", args)(model, x, 7).params
    assert (neflag["m"], neflag["n"], neflag["epsilon"]) == (3, 4, 0.2)
    assert cli._method_fn("ig", args)(model, x, 7).params["steps"] == 3
    assert cli._method_fn("smoothgrad", args)(model, x, 7).params["samples"] == 4
    point = cli._method_fn("taylor", args)(model, x, 7).params["expansion_point"]
    assert np.linalg.norm(np.asarray(point) - x) == pytest.approx(0.2)


def test_cli_import_loads_no_scipy():
    code = "import sys, fluxgrad.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool_or_logging():
    code = ("import sys, fluxgrad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class FullDisk:
    """A file whose every write fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_last_write_leaves_no_output(fixtures, tmp_path, monkeypatch, capsys):
    writes = []

    def open_failing_third_write(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode:
            writes.append(path)
            if len(writes) == 3:
                return FullDisk(fh)
        return fh

    monkeypatch.setattr(cli, "open", open_failing_third_write, raising=False)
    inp = tmp_path / "x.txt"
    inp.write_text("1.0 2.0")
    code = cli.main(["attribute", "--model", str(fixtures / "linear.json"), "--input", str(inp),
                     "--method", "saliency", "--grid", "1x2", "--out", str(tmp_path / "OUT")])
    assert code == 2 and len(writes) == 3  # .json, .csv, then the failing .pgm
    assert list(tmp_path.glob("OUT*")) == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out: cannot write"), lines


# ---------------------------------------------------------------------------
# fuzzing main(argv) in-process: argument vectors and malformed model JSON

SUBCOMMAND_OPTIONS = {
    "attribute": ["--method", "--epsilon", "--samples", "--steps", "--step-rule", "--baseline",
                  "--sigma", "--grid", "--seed"],
    "verify": ["--epsilon", "--samples", "--seed"],
    "eval": ["--methods", "--replacement", "--epsilon", "--samples", "--steps", "--step-rule",
             "--baseline", "--sigma", "--grid", "--limit", "--seed"],
    "train-toy": ["--hidden", "--activation", "--epochs", "--lr", "--seed"],
}
# (good values, bad values) per option; "@name" is a file in the fuzz
# directory and "OUT" the run's output directory
NUMBERS = (["0.1", "1", "3"], ["0", "-1", "-0.5", "nan", "inf", "1e308", "1e-320", "abc", ""])
VALUES = {
    "--model": (["@linear.json", "@mlp.json", "@bowl.json"], ["@bad.json", "@bad.json", "@missing.json"]),
    "vector": (["@x2.txt", "@x0.txt"], ["@x3.txt", "@junk.txt", "@data.csv", "@missing.txt"]),
    "dataset": (["@data.csv"], ["@empty.csv", "@x2.txt", "@missing.csv"]),
    "--baseline": (["@x2.txt"], ["@x3.txt", "@junk.txt"]),
    "--out": (["OUT/o"], ["OUT/missing/o", "OUT"]),
    "--method": (["neflag", "ig", "smoothgrad", "saliency", "taylor", "random"], ["lime"]),
    "--methods": (["saliency", "neflag,random", "ig,taylor,smoothgrad"], ["lime", ",", ""]),
    "--step-rule": (["sign", "normalized"], ["damped"]),
    "--replacement": (["black", "mean", "blur"], ["white"]),
    "--activation": (["relu", "tanh", "softplus"], ["sigmoid"]),
    "--grid": (["1x2", "2x1"], ["0x0", "axb", "1x", "2x3", "-1x-2"]),
    "--hidden": (["3", "3,2"], ["0", "abc", ",", "-1"]),
    # small counts: verify and smoothgrad cost grows with --samples
    "--samples": (["1", "3"], ["0", "-2", "abc", "nan"]),
    "--epochs": (["1", "3"], ["0", "-2", "x"]),
    "--steps": (["1", "2"], ["0", "-1", "1.5"]),
    "--limit": (["0", "2"], ["-1", "x"]),
    "--seed": (["0", "7", str(2**70)], ["-1", "x"]),
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "dim", "params", "head", "a", "b", "type",
                                       "target", "layers", "W", "activation"]), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    fg.save_model(fg.linear_model([3.0, 4.0]), root / "linear.json")
    fg.save_model(fg.random_mlp(2, hidden=(3,), activation="tanh", seed=0,
                                head=fg.Head("sigmoid")), root / "mlp.json")
    fg.save_model(fg.quadratic_model([1.0, 1.0]), root / "bowl.json")
    (root / "x2.txt").write_text("0.5, -1.0\n")
    (root / "x0.txt").write_text("0 0\n")
    (root / "x3.txt").write_text("1 2 3\n")
    (root / "junk.txt").write_text("a b\n")
    X, y = fg.blob_dataset(4, margin=1.0, seed=3)
    fg.save_dataset_csv(root / "data.csv", X, y)
    (root / "empty.csv").write_text("")
    return root


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from([*SUBCOMMAND_OPTIONS] * 3 + ["bogus"]))
    options = ["--out", "--model", "--input", "--method"] if sub == "attribute" else \
        ["--out", "--input"] if sub == "train-toy" else ["--out", "--model", "--input"]
    options = [o for o in options if draw(st.integers(0, 19))]  # now and then one is missing
    options += draw(st.lists(st.sampled_from(SUBCOMMAND_OPTIONS.get(sub, []) + ["--unknown"]), max_size=4))
    argv = [sub]
    for option in options:
        if option == "--unknown":
            argv.append(option)
            continue
        key = ("dataset" if sub in ("eval", "train-toy") else "vector") if option == "--input" else option
        good, bad = VALUES.get(key, NUMBERS)
        argv += [option, draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))]
    # keep each run small: verify draws 100k samples and train-toy 500 epochs by default
    return argv + {"verify": ["--samples", "500"], "train-toy": ["--epochs", "3"]}.get(sub, [])


@st.composite
def model_docs(draw):
    doc = fg.model_to_json(fg.linear_model([3.0, 4.0]))
    for key in draw(st.lists(st.sampled_from(["kind", "dim", "head", "params"]), min_size=1, max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(JSON)
    return json.dumps(draw(st.sampled_from([doc, draw(JSON)])))[: draw(st.integers(0, 400))]


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), model_text=model_docs())
def test_fuzzed_main_returns_a_documented_exit_code(fuzz_root, argv, model_text):
    with tempfile.TemporaryDirectory(dir=fuzz_root) as out:
        bad = os.path.join(out, "bad.json")
        with open(bad, "w") as fh:
            fh.write(model_text)

        def resolve(arg):
            if arg.startswith("@"):
                return bad if arg == "@bad.json" else str(fuzz_root / arg[1:])
            return out + arg[3:] if arg.startswith("OUT") else arg

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([resolve(a) for a in argv])
        assert code in {0, 2, 3, 4, 5}, (argv, code)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
