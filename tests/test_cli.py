"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv) so exit codes and stdout JSON can
be asserted cheaply; one test uses a real subprocess to check wiring.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvmlc
from mvmlc import autodiff as ad
from mvmlc import data
from mvmlc.cli import DEFAULTS, _config, build_parser, main, read_config_file
from mvmlc.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from mvmlc.trainer import TrainConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(out, n=40, m=2, c=4, seed=3, dims="6,5"):
    return ["synth", "--n", str(n), "--m", str(m), "--c", str(c),
            "--dims", dims, "--seed", str(seed), "--out", str(out)]


def _edited_checkpoint(path, edit):
    """Write a real checkpoint to ``path`` with ``edit`` applied to its
    parsed header and its arrays."""
    save_checkpoint(ModelParams.initialize(ModelConfig(d_e=8, heads=2), [6, 5], 4), path)
    with np.load(path) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    meta = json.loads(arrays.pop("__meta__").tobytes())
    edit(meta, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def unknown_config_key(path, _array):
    _edited_checkpoint(path, lambda meta, arrays: meta["config"].update(d_model=8))


def without_names(path, _array):
    _edited_checkpoint(path, lambda meta, arrays: meta.pop("names"))


def without_a_parameter(path, _array):
    def edit(meta, arrays):
        meta["names"].remove("cls_enc.0.wo")
        del arrays["param:cls_enc.0.wo"]
    _edited_checkpoint(path, edit)


def with_a_narrow_gain(path, _array):
    # a (1,) gain would broadcast over the (d_e,) it stands for
    _edited_checkpoint(path, lambda meta, arrays: arrays.update(
        {"param:view_enc.0.ln1_g": np.ones(1, dtype=np.float32)}))


def with_a_float64_weight(path, _array):
    _edited_checkpoint(path, lambda meta, arrays: arrays.update(
        {"param:head_main.w": arrays["param:head_main.w"].astype(np.float64)}))


class TestSynth:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *synth_args(tmp_path / "ds"))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 40 and payload["m"] == 2 and payload["c"] == 4
        ds = data.load_dataset(tmp_path / "ds")
        assert ds.view_dims == [6, 5]
        assert (tmp_path / "ds" / "run_manifest.json").exists()

    def test_deterministic_files(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "a"))
        run_cli(capsys, *synth_args(tmp_path / "b"))
        for name in ("view_0.csv", "view_1.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_view_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(synth_args(tmp_path / "ds", m=0))
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestCorrupt:
    def test_masks_and_counts(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=100, m=4, c=5, dims="6,5,7,4"))
        code, out, _ = run_cli(
            capsys, "corrupt", "--data", str(tmp_path / "ds"),
            "--view-missing", "0.5", "--label-missing", "0.5",
            "--seed", "1", "--out", str(tmp_path / "bad"),
        )
        assert code == 0
        ds = data.load_dataset(tmp_path / "bad")
        for v in range(4):  # exact per-view zero counts
            assert int((ds.view_mask[:, v] == 0).sum()) == 50
        assert int(ds.view_mask.sum(axis=1).min()) >= 1
        original = data.load_dataset(tmp_path / "ds")
        for j in range(5):
            pos = original.labels[:, j] == 1
            hidden_pos = int(((ds.label_mask[:, j] == 0) & pos).sum())
            assert hidden_pos == math.floor(0.5 * int(pos.sum()))

    def test_zero_ratios_preserve_data(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds"))
        code, _, _ = run_cli(capsys, "corrupt", "--data", str(tmp_path / "ds"),
                             "--seed", "1", "--out", str(tmp_path / "same"))
        assert code == 0
        a = data.load_dataset(tmp_path / "ds")
        b = data.load_dataset(tmp_path / "same")
        for x, y in zip(a.views, b.views):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(b.view_mask, 1.0)
        np.testing.assert_array_equal(b.label_mask, 1.0)

    def test_infeasible_ratio_exits_3(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=10, m=2))
        code, _, err = run_cli(capsys, "corrupt", "--data", str(tmp_path / "ds"),
                               "--view-missing", "0.9", "--seed", "0",
                               "--out", str(tmp_path / "bad"))
        assert code == 3
        assert "error" in err

    def test_label_ratio_of_one_exits_3(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=10, m=2))
        code, out, err = run_cli(capsys, "corrupt", "--data", str(tmp_path / "ds"),
                                 "--label-missing", "1.0", "--seed", "0",
                                 "--out", str(tmp_path / "bad"))
        assert code == 3
        assert out == "" and "ratio must be in [0, 1)" in err

    def test_missing_dataset_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "corrupt", "--data", str(tmp_path / "nope"),
                               "--seed", "0", "--out", str(tmp_path / "bad"))
        assert code == 1


def train_args(data_dir, out_dir, **kw):
    argv = ["train", "--data", str(data_dir), "--out", str(out_dir),
            "--epochs", "3", "--batch", "16", "--d-e", "16", "--heads", "2",
            "--seed", "5", "--train-ratio", "0.7"]
    for key, value in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestTrainEval:
    @pytest.fixture
    def trained(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        code, out, _ = run_cli(capsys, *train_args(tmp_path / "ds", tmp_path / "run"))
        assert code == 0
        return tmp_path, json.loads(out)

    def test_artifacts_written(self, trained):
        tmp_path, payload = trained
        run = tmp_path / "run"
        for name in ("model.ckpt", "history.jsonl", "report.json",
                     "run_manifest.json", "train_data", "test_data"):
            assert (run / name).exists()
        assert len((run / "history.jsonl").read_text().splitlines()) == 3
        assert 0.0 <= payload["report"]["ap"] <= 1.0

    def test_eval_reproduces_train_report(self, capsys, trained):
        tmp_path, payload = trained
        run = tmp_path / "run"
        code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(run / "model.ckpt"),
                               "--data", str(run / "test_data"),
                               "--seed", "5", "--out", str(tmp_path / "evalrun"))
        assert code == 0
        fresh = json.loads(out)
        for key in ("ap", "one_minus_rl", "auc", "n_eval"):
            assert fresh[key] == payload["report"][key]

    def test_train_deterministic(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        _, out_a, _ = run_cli(capsys, *train_args(tmp_path / "ds", tmp_path / "a"))
        _, out_b, _ = run_cli(capsys, *train_args(tmp_path / "ds", tmp_path / "b"))
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["final_train"] == b["final_train"]
        assert a["report"]["ap"] == b["report"]["ap"]
        ckpt_a = (tmp_path / "a" / "model.ckpt").read_bytes()
        ckpt_b = (tmp_path / "b" / "model.ckpt").read_bytes()
        assert ckpt_a == ckpt_b

    def test_corruption_flags(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=60, m=3, dims="6,5,7"))
        code, out, _ = run_cli(capsys, *train_args(
            tmp_path / "ds", tmp_path / "run", view_missing=0.4, label_missing=0.5))
        assert code == 0
        train_ds = data.load_dataset(tmp_path / "run" / "train_data")
        test_ds = data.load_dataset(tmp_path / "run" / "test_data")
        assert np.any(train_ds.view_mask == 0)
        assert np.any(test_ds.view_mask == 0)       # view corruption is global
        assert np.any(train_ds.label_mask == 0)     # label corruption: train only
        np.testing.assert_array_equal(test_ds.label_mask, 1.0)

    def test_stdout_is_single_json_document(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        _, out, _ = run_cli(capsys, *train_args(tmp_path / "ds", tmp_path / "run"))
        json.loads(out)  # raises if anything but one JSON document

    @pytest.mark.parametrize("bad", [{"heads": 3}, {"epochs": 0}, {"eval_every": -3}])
    def test_bad_options_fail_before_writing(self, capsys, tmp_path, bad):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        code, out, err = run_cli(capsys, *train_args(tmp_path / "ds", tmp_path / "run", **bad))
        assert code == 1 and out == "" and "ValueError" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["view_missing", "label_missing"])
    def test_ratio_of_one_exits_3_before_writing(self, capsys, tmp_path, flag):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        code, out, err = run_cli(capsys, *train_args(tmp_path / "ds", tmp_path / "run",
                                                     **{flag: 1.0}))
        assert code == 3 and out == "" and "ratio must be in [0, 1)" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("data_dir, bad, error", [
        ("nope", {}, "MissingFile"),
        ("ds", {"train_ratio": 1.5}, "DegenerateSplit"),
        ("nan_ds", {}, "NonFiniteFeatures"),
    ])
    def test_bad_data_fails_before_writing(self, capsys, tmp_path, data_dir, bad, error):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        if data_dir == "nan_ds":
            shutil.copytree(tmp_path / "ds", tmp_path / data_dir)
            view = tmp_path / data_dir / "view_1.csv"
            rows = view.read_text().splitlines()
            rows[0] = ",".join(["nan"] + rows[0].split(",")[1:])
            view.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, *train_args(tmp_path / data_dir, tmp_path / "run", **bad))
        assert code == 1 and out == "" and error in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name, write", [("array.npy", np.save), ("no_meta.npz", np.savez),
                                             ("extra.ckpt", unknown_config_key),
                                             ("nameless.ckpt", without_names),
                                             ("dropped.ckpt", without_a_parameter),
                                             ("narrow.ckpt", with_a_narrow_gain),
                                             ("float64.ckpt", with_a_float64_weight)])
    def test_eval_of_a_malformed_checkpoint_exits_1(self, capsys, tmp_path, name, write):
        run_cli(capsys, *synth_args(tmp_path / "ds"))
        write(tmp_path / name, np.zeros(3))
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / name),
                                 "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "ev"))
        assert code == 1 and out == ""
        assert err.splitlines() == [err.strip()] and err.startswith("error: ValueError")
        assert name in err

    @staticmethod
    def _masked_run(capsys, tmp_path, seed, error_filter):
        """The 60-row dataset with views missing at 0.6 and labels at 0.5,
        trained at batch 40 on its 42 training rows; returns the exit code
        and stderr."""
        run_cli(capsys, "synth", "--n", "60", "--m", "3", "--c", "4", "--seed", "0",
                "--out", str(tmp_path / "ds"))
        run_cli(capsys, "corrupt", "--data", str(tmp_path / "ds"), "--view-missing", "0.6",
                "--seed", str(seed), "--out", str(tmp_path / "dsm"))
        with warnings.catch_warnings():
            if error_filter:
                warnings.simplefilter("error", UserWarning)
            code, _, err = run_cli(capsys, "train", "--data", str(tmp_path / "dsm"),
                                   "--out", str(tmp_path / "run"), "--label-missing", "0.5",
                                   "--batch", "40", "--epochs", "3", "--d-e", "8", "--heads", "2")
        return code, err

    @pytest.mark.parametrize("seed", range(4))
    def test_no_tail_batch_without_a_valid_pair(self, capsys, tmp_path, seed):
        # 42 rows at batch 40 run as 21 + 21, not 40 + a 2-row tail that can
        # hold no valid pair and so skip the graph constraint with a warning
        code, err = self._masked_run(capsys, tmp_path, seed, error_filter=True)
        assert code == 0, err

    def test_warning_raised_as_error_exits_1_with_one_line(self, capsys, tmp_path):
        # evaluating against the masked training split warns, and the filter
        # turns that warning into an exception
        self._masked_run(capsys, tmp_path, 0, error_filter=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            code, _, err = run_cli(capsys, "eval", "--checkpoint",
                                   str(tmp_path / "run" / "model.ckpt"),
                                   "--data", str(tmp_path / "run" / "train_data"),
                                   "--out", str(tmp_path / "ev"))
        assert code == 1
        assert err.splitlines()[-1].startswith(
            "error: UserWarning: evaluating against a dataset with masked labels")
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1

    def test_eval_records_the_checkpoint_config(self, capsys, tmp_path):
        run_cli(capsys, *synth_args(tmp_path / "ds", n=50))
        run = tmp_path / "run"
        run_cli(capsys, *train_args(tmp_path / "ds", run, d_e=8, precision="float64", epochs=1))
        checkpoint, test_data = str(run / "model.ckpt"), str(run / "test_data")
        code, _, _ = run_cli(capsys, "eval", "--checkpoint", checkpoint, "--data", test_data,
                             "--seed", "5", "--out", str(tmp_path / "evalrun"))
        assert code == 0
        trained = json.loads((run / "run_manifest.json").read_text())["options"]
        model_keys = ("d_e", "heads", "layers_v", "layers_c", "dropout", "gamma", "precision")
        expected = {"checkpoint": checkpoint, "data": test_data, "seed": 5,
                    **{key: trained[key] for key in model_keys}}
        assert expected["d_e"] == 8 and expected["precision"] == "float64"
        report = json.loads((tmp_path / "evalrun" / "report.json").read_text())
        manifest = json.loads((tmp_path / "evalrun" / "run_manifest.json").read_text())
        assert report["meta"]["options"] == manifest["options"] == expected


class TestConfigFile:
    def test_file_parsed_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nd_e = 16\nheads = 2  # per-layer\nlr = 0.002\n")
        parsed = read_config_file(cfg)
        assert parsed == {"epochs": 2, "d_e": 16, "heads": 2, "lr": 0.002}
        run_cli(capsys, *synth_args(tmp_path / "ds", n=30))
        code, out, _ = run_cli(capsys, "train", "--data", str(tmp_path / "ds"),
                               "--out", str(tmp_path / "run"), "--config", str(cfg),
                               "--epochs", "1", "--batch", "16", "--seed", "0")
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        assert manifest["options"]["epochs"] == 1      # flag wins
        assert manifest["options"]["d_e"] == 16        # file wins over default
        assert manifest["options"]["lr"] == 0.002

    def test_defaults_are_the_config_defaults(self):
        assert _config(ModelConfig, DEFAULTS) == ModelConfig()
        assert _config(TrainConfig, DEFAULTS) == TrainConfig()

    def test_config_file_reaches_the_checkpoint(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision = float64\nlayers_c = 2\nepochs = 1\nd_e = 8\nheads = 2\n")
        run_cli(capsys, *synth_args(tmp_path / "ds", n=30))
        code, _, _ = run_cli(capsys, "train", "--data", str(tmp_path / "ds"), "--out",
                             str(tmp_path / "run"), "--config", str(cfg), "--batch", "16")
        assert code == 0
        config = load_checkpoint(tmp_path / "run" / "model.ckpt").config
        assert config.dtype == "float64" and config.layers_c == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_thing = 3\n")
        with pytest.raises(ValueError):
            read_config_file(cfg)


class TestManifest:
    @pytest.mark.parametrize("command", ["synth", "corrupt", "gradcheck"])
    def test_records_only_the_options_read(self, capsys, tmp_path, monkeypatch, command):
        # the manifest does not depend on the finite differences, so skip them
        monkeypatch.setattr(ad, "gradient_check", lambda *args, **kwargs: 0.0)
        run_cli(capsys, *synth_args(tmp_path / "ds"))
        out = ["--seed", "1", "--out", str(tmp_path / "run")]
        argv, keys = {
            "synth": (synth_args(tmp_path / "run"),
                      {"seed", "n", "m", "c", "d_latent", "dims", "noise"}),
            "corrupt": (["corrupt", "--data", str(tmp_path / "ds"), *out],
                        {"seed", "data", "view_missing", "label_missing"}),
            "gradcheck": (["gradcheck", *out], {"seed", "alpha", "beta", "gamma"}),
        }[command]
        assert run_cli(capsys, *argv)[0] == 0
        manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        assert set(manifest["options"]) == keys


class TestObjectiveFlags:
    @pytest.mark.parametrize("flag", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_train_and_gradcheck_share_the_objective_flags(self, command, flag):
        parser = build_parser()
        required = {"train": ["--data", "d", "--out", "o"], "gradcheck": []}[command]
        args = parser.parse_args([command, *required, f"--{flag}", "0.25"])
        assert getattr(args, flag) == 0.25
        assert getattr(parser.parse_args([command, *required]), flag) is None
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        helps = [next(a.help for a in subparsers[name]._actions if a.dest == flag)
                 for name in ("train", "gradcheck")]
        assert helps[0] == helps[1]


class TestGradcheck:
    def test_passes_and_reports(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "0",
                                 "--out", str(tmp_path / "gc"))
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_rel_err"] < 1e-4
        assert set(payload["per_group"]) == {
            "embed", "view_attention", "fusion", "class_tokens", "class_attention", "heads",
        }
        assert (tmp_path / "gc" / "gradcheck.json").exists()


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        # the child imports the same mvmlc as this process, however it was found
        src = str(Path(mvmlc.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "mvmlc", *synth_args(tmp_path / "ds", n=20)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["n"] == 20

    def test_train_and_eval_never_import_scipy(self, tmp_path):
        # gelu's erf is a numpy kernel in both precisions
        script = """
import sys
import numpy as np
from mvmlc import data, trainer
from mvmlc.model import ModelConfig
ds = data.make_synthetic(40, 2, 4, 3, [6, 5], seed=0)
for dtype in ("float32", "float64"):
    config = ModelConfig(d_e=8, heads=2, dtype=dtype)
    params, _ = trainer.train(config, trainer.TrainConfig(epochs=1, batch_size=16), ds)
    assert params["cls"].data.dtype == np.dtype(dtype)
    trainer.evaluate(params, ds)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        src = str(Path(mvmlc.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
