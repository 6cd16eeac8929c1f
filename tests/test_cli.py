import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fluxgrad as fg

CLI = [sys.executable, "-m", "fluxgrad.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    fg.save_model(fg.linear_model([3.0, 4.0]), root / "linear.json")
    fg.save_model(fg.quadratic_model([1.0, 2.0, 3.0]), root / "quadratic.json")
    fg.save_model(
        fg.random_mlp(2, hidden=(4,), activation="relu", seed=0), root / "relu.json"
    )
    (root / "origin2.txt").write_text("0.0, 0.0\n")
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


MISUSE = {
    "neflag-samples-0": ["attribute", "--method", "neflag", "--samples", "0"],
    "neflag-epsilon-0": ["attribute", "--method", "neflag", "--epsilon", "0"],
    "neflag-epsilon-neg": ["attribute", "--method", "neflag", "--epsilon", "-1"],
    "neflag-steps-0": ["attribute", "--method", "neflag", "--steps", "0"],
    "smoothgrad-samples-0": ["attribute", "--method", "smoothgrad", "--samples", "0"],
    "smoothgrad-sigma-neg": ["attribute", "--method", "smoothgrad", "--sigma", "-1"],
    "ig-steps-0": ["attribute", "--method", "ig", "--steps", "0"],
    "taylor-epsilon-neg": ["attribute", "--method", "taylor", "--epsilon", "-1"],
    "grid-too-big": ["attribute", "--method", "saliency", "--grid", "3x3"],
    "grid-negative": ["attribute", "--method", "saliency", "--grid=-1x-2"],
    "verify-epsilon-neg": ["verify", "--epsilon", "-1"],
    "verify-samples-0": ["verify", "--samples", "0"],
    "eval-samples-0": ["eval", "--samples", "0"],
    "eval-blur-grid": ["eval", "--replacement", "blur", "--grid", "3x3"],
    "eval-limit-neg": ["eval", "--limit", "-1"],
    "model-dim-contradicts-params": ["attribute", "--method", "saliency", "--model", "{baddim}"],
    "attribute-out-dir-missing": ["attribute", "--method", "saliency", "--out", "{missing}"],
    "verify-out-dir-missing": ["verify", "--out", "{missing}"],
    "eval-out-dir-missing": ["eval", "--methods", "saliency", "--out", "{missing}"],
    "train-toy-out-dir-missing": ["train-toy", "--out", "{missing}"],
    "train-toy-hidden-not-int": ["train-toy", "--hidden", "abc"],
    "train-toy-hidden-0": ["train-toy", "--hidden", "0"],
    "train-toy-epochs-0": ["train-toy", "--epochs", "0"],
}


@pytest.mark.parametrize("argv", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_exits_2_with_one_line_and_no_output(fixtures, tmp_path, argv):
    doc = fg.model_to_json(fg.linear_model([3.0, 4.0]))
    (tmp_path / "baddim.json").write_text(json.dumps({**doc, "dim": 5}))
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(baddim=tmp_path / "baddim.json", missing=out / "missing" / "o")
            for a in argv]
    model = ["--model", str(fixtures / "linear.json")]
    defaults = {
        "attribute": [*model, "--input", str(fixtures / "origin2.txt")],
        "verify": [*model, "--input", str(fixtures / "origin2.txt")],
        "eval": [*model, "--input", str(fixtures / "blobs.csv")],
        "train-toy": ["--input", str(fixtures / "blobs.csv")],
    }[argv[0]]
    # the case's own options come last, so they override the defaults
    res = run_cli(argv[0], *defaults, "--out", str(out / "o"), *argv[1:])
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


def test_cli_import_loads_no_scipy():
    code = "import sys, fluxgrad.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
