"""Command-line interface: subcommands, artifacts, exit codes."""

import json

from motionloc.cli import main
from motionloc.datagen import load_corpus

TINY = {
    "corpus": {"n_train": 4, "n_test": 3},
    "train": {"epochs": 2},
}


def write_cfg(tmp_path, extra=None):
    data = json.loads(json.dumps(TINY))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestGenerate:
    def test_smoke(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 3, "n_test": 2}))
        code = main(["generate", "--spec", str(spec),
                     "--out", str(tmp_path / "corpus")])
        assert code == 0
        assert "3 train / 2 test" in capsys.readouterr().out
        train, test, _ = load_corpus(tmp_path / "corpus")
        assert len(train) == 3 and len(test) == 2

    def test_seed_override_changes_corpus(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 2, "n_test": 1}))
        for seed, name in ((1, "a"), (2, "b")):
            assert main(["generate", "--spec", str(spec), "--seed", str(seed),
                         "--out", str(tmp_path / name)]) == 0
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["spec"]["seed"] == 1
        assert b["spec"]["seed"] == 2

    def test_unknown_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"length": 9}))
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path)])
        assert code == 2
        assert "length" in capsys.readouterr().err

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([3, 2]))
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus must be an object" in err and "Traceback" not in err


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"out_dir": str(tmp_path / "run")})
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "run" / "loss_curve.csv").exists()
        assert (tmp_path / "run" / "checkpoint" / "manifest.json").exists()
        capsys.readouterr()
        assert main(["eval", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "mAP" in out
        assert (tmp_path / "run" / "report.json").exists()

    def test_eval_uses_checkpoint_config(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, {"out_dir": str(run),
                                   "graph": {"mode": "dense"}})
        assert main(["train", "--config", cfg]) == 0
        capsys.readouterr()
        # no --config: the dense graph comes from the checkpoint's config.json
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["eval", "--config", cfg, "--checkpoint",
                     str(run / "checkpoint"), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_eval_refuses_config_that_changes_the_model(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config",
                     write_cfg(tmp_path, {"out_dir": str(run)})]) == 0
        capsys.readouterr()
        for change, key in (({"graph": {"mode": "dense"}}, "graph.mode"),
                            ({"model": {"guidance_stream": "both"}},
                             "model.guidance_stream"),
                            ({"corpus": {"d": 8}}, "corpus.d")):
            cfg = write_cfg(tmp_path, {"out_dir": str(run), **change})
            assert main(["eval", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert key in err and "Traceback" not in err, err
        # settings that only change the evaluation are taken
        cfg = write_cfg(tmp_path, {"out_dir": str(run),
                                   "inference": {"theta_c": 0.3}})
        assert main(["eval", "--config", cfg]) == 0

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"out_dir": str(tmp_path / "nothing")})
        assert main(["eval", "--config", cfg]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_train_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["train", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_train_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trainer": {}}))
        assert main(["train", "--config", str(path)]) == 2
        assert "trainer" in capsys.readouterr().err

    def test_train_string_epochs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": "5"}}))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "train.epochs must be int" in err and "Traceback" not in err

    def test_train_bool_batch_size(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"batch_size": True}}))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "train.batch_size must be int" in err and "Traceback" not in err


class TestAblate:
    def test_custom_matrix(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"tables": {
            "demo": [{"name": "base"},
                     {"name": "xe", "overrides": {"loss": {"loss_kind": "xe"}}}],
        }}))
        code = main(["ablate", "--config", cfg, "--matrix", str(matrix),
                     "--out", str(tmp_path / "abl")])
        assert code == 0
        lines = (tmp_path / "abl" / "ablation_demo.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "demo" in capsys.readouterr().out


class TestLossSurface:
    def test_grid_rows(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        assert main(["loss-surface", "--grid", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,mu,loss"
        assert len(lines) == 2501
        assert "2500" in capsys.readouterr().out


class TestDumpGraph:
    def test_adjacency_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "adj.csv"
        code = main(["dump-graph", "--config", cfg, "--index", "1",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 64
        assert "positional edges" in capsys.readouterr().out

    def test_index_out_of_range(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["dump-graph", "--config", cfg, "--index", "99",
                     "--out", str(tmp_path / "adj.csv")]) == 2
        assert "out of range" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["generate"]) == 1
