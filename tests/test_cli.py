"""Command-line interface: subcommands, artifacts, exit codes."""

import dataclasses
import hashlib
import json
import math
import typing

import numpy as np

from motionloc.cli import main
from motionloc.datagen import CorpusSpec, corpus_fingerprint, generate_corpus
from motionloc.runner import (ExperimentConfig, config_from_dict,
                              evaluate_params, train_experiment)

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


def _generate(capsys, *flags):
    """Run `generate`, return its printed sha256 fingerprint."""
    assert main(["generate", *flags]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "sha256 " in out, out
    return out.split("sha256 ")[1].strip()


class TestGenerate:
    def test_smoke(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 3, "n_test": 2}))
        assert main(["generate", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "3 train / 2 test" in out and "confounder share" in out
        train, test = generate_corpus(CorpusSpec(n_train=3, n_test=2))
        assert f"{sum(len(v.gt_intervals) for v in train + test)} intervals" in out
        assert out.rstrip().endswith(corpus_fingerprint(train + test))
        assert list(tmp_path.iterdir()) == [spec]

    def test_golden_fingerprints(self, tmp_path, capsys):
        # the generator's numpy streams, pinned: a change here changes
        # every loss curve, report and ablation table downstream
        assert _generate(capsys) == \
            "8ef59ff0d344b36185c9f63c1276baff3d81684cc3371932b75725aa694b7991"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"T": 256, "n_train": 32, "n_test": 200,
                                    "seed": 0}))
        assert _generate(capsys, "--spec", str(spec)) == \
            "f017cf59fbe05e01b9b7ddf224e411f940f54bd278d4f09bfc73c4532d7914f6"

    def test_seed_override_changes_corpus(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 2, "n_test": 1}))
        printed = [_generate(capsys, "--spec", str(spec), "--seed", str(seed))
                   for seed in (1, 2)]
        expect = [corpus_fingerprint(sum(generate_corpus(
            CorpusSpec(n_train=2, n_test=1, seed=seed)), []))
            for seed in (1, 2)]
        assert printed == expect and printed[0] != printed[1]

    def test_out_flag_is_gone(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "corpus")]) == 1
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    def test_unknown_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"length": 9}))
        code = main(["generate", "--spec", str(spec)])
        assert code == 2
        assert "length" in capsys.readouterr().err

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([3, 2]))
        code = main(["generate", "--spec", str(spec)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus must be an object" in err and "Traceback" not in err

    def test_oversized_layout_names_the_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"T": 12}))
        assert main(["generate", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "more than corpus.T=12" in err and "Traceback" not in err


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

    def test_eval_out_names_only_the_report_directory(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, {"out_dir": str(run)})
        assert main(["train", "--config", cfg]) == 0
        capsys.readouterr()
        # the checkpoint is found under the config's out_dir, not under --out
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "report.json").exists()
        assert (tmp_path / "rep" / "report.csv").exists()
        assert not (run / "report.json").exists()

    def test_cli_eval_scores_the_in_process_weights(self, tmp_path, capsys):
        """A checkpoint round trip is exact: CLI train -> eval writes the
        reports evaluate_params writes from the weights training returned."""
        extra = {"corpus": {"n_train": 24, "n_test": 12},
                 "train": {"epochs": 5}}
        cfg = write_cfg(tmp_path, {"out_dir": str(tmp_path / "run"), **extra})
        assert main(["train", "--config", cfg]) == 0
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
        inproc = config_from_dict(
            {**json.loads(json.dumps(TINY)), **extra,
             "out_dir": str(tmp_path / "inproc")})
        params, _, _ = train_experiment(inproc)
        evaluate_params(inproc, params, out=tmp_path / "inproc")
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "inproc" / name).read_bytes(), name

    def test_golden_reports(self, tmp_path, capsys):
        """CLI train -> eval on 24/12 videos for 5 epochs writes these
        report.json bytes in each graph mode. Taken with numpy 2.4.6 and
        OpenBLAS 0.3.31 on x86-64: another BLAS build may round the graph
        and forward products differently and fail here with correct code."""
        golden = {
            "sparse": "9ab7664efec467784ddbec302a5e0e93d56a7e069c06298ae790498fa1a8057b",
            "dense": "1dc38969fe9783dbe5ecbbf9596cef87fb7f50e32c42be90d7ad6f081f011138",
            "mlp": "c9d29f31af91c9737acd175c2e3c44488acfaa45de15067d5bbe2229d4eb8731",
        }
        for mode, digest in golden.items():
            run = tmp_path / mode
            cfg = write_cfg(tmp_path, {"out_dir": str(run), "graph": {"mode": mode},
                                       "corpus": {"n_train": 24, "n_test": 12},
                                       "train": {"epochs": 5}})
            assert main(["train", "--config", cfg]) == 0
            assert main(["eval", "--config", cfg]) == 0
            report = (run / "report.json").read_bytes()
            assert hashlib.sha256(report).hexdigest() == digest, mode

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"out_dir": str(tmp_path / "nothing")})
        assert main(["eval", "--config", cfg]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_eval_refuses_a_stale_checkpoint_config(self, tmp_path, capsys):
        # a config.json from an older train may hold a key the schema has
        # dropped; eval names it rather than guessing what it meant
        run = tmp_path / "run"
        assert main(["train", "--config",
                     write_cfg(tmp_path, {"out_dir": str(run)})]) == 0
        capsys.readouterr()
        written = json.loads((run / "config.json").read_text())
        written["graph"]["row_normalize"] = True
        (run / "config.json").write_text(json.dumps(written))
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row_normalize" in err, err
        assert "Traceback" not in err

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


# values each validator must refuse, one list per (section, key)
_OUT_OF_RANGE = {
    ("corpus", "n_train"): [0, -3], ("corpus", "n_test"): [0],
    ("corpus", "T"): [0], ("corpus", "d"): [-1], ("corpus", "C"): [0],
    ("corpus", "confounder_rate"): [1.5, -0.1],
    ("corpus", "noise_sigma"): [-0.5],
    ("graph", "theta_pos"): [0.0, 1.0, 2], ("graph", "gamma"): [1.0, -1],
    ("graph", "mode"): ["star", ""],
    ("model", "k_layers"): [0], ("model", "guidance_stream"): ["audio"],
    ("loss", "r"): [0, -2], ("loss", "regularizer_mask"): ["some"],
    ("loss", "loss_kind"): ["hinge"],
    ("train", "epochs"): [0], ("train", "batch_size"): [0, -16],
    ("train", "lr"): [0.0, -1e-3],
    ("inference", "theta_c"): [1.5, -0.2], ("inference", "nms_iou"): [1.01],
    ("inference", "theta_a_list"): [[], [0.2, 0.1], [0.1, 1.5], [0.1, 0.1]],
    (None, "eval_iou"): [[], [0.0], [0.5, 1.5]],
}


def _wrong_types(want):
    """JSON values that do not fit a field annotated `want`."""
    wrong = [None, {}, {"x": 1}]
    wrong += [7] if want is str else ["5"]
    if want is not bool:
        wrong += [True, False]
    if want is int:
        wrong += [2.5, [1]]
    if want is float:
        wrong += [math.nan, math.inf, -math.inf]
    if want is tuple:
        wrong += [0.5, ["0.5"], [True], [math.nan], [0.5, math.inf]]
    return wrong


def _fields():
    """(section, key, annotation) of every config field; section None is
    the top level."""
    out = []
    for name, want in typing.get_type_hints(ExperimentConfig).items():
        if want in (tuple, str):
            out.append((None, name, want))
        else:
            out += [(name, key, hint) for key, hint
                    in typing.get_type_hints(want).items()]
    return out


def _mutate(rng, data):
    """Apply one random malformation to a config dict in place; returns
    the key it set, or None when an earlier mutation left no room."""
    kind = rng.integers(4)
    sections = [k for k, v in data.items() if isinstance(v, dict)]
    if kind == 0:                      # a value of the wrong type
        fields = _fields()
        section, key, want = fields[rng.integers(len(fields))]
        options = _wrong_types(want)
        value = options[rng.integers(len(options))]
    elif kind == 1:                    # an unknown key
        section = [None, *sections][rng.integers(len(sections) + 1)]
        key, value = f"bogus_{rng.integers(1000)}", 1
    elif kind == 2:                    # an out-of-range value
        keys = list(_OUT_OF_RANGE)
        section, key = keys[rng.integers(len(keys))]
        options = _OUT_OF_RANGE[(section, key)]
        value = options[rng.integers(len(options))]
    else:                              # a section that is not an object
        section, key = None, sections[rng.integers(len(sections))]
        value = [[], 3, "corpus", None, True][rng.integers(5)]
    target = data if section is None else data[section]
    if not isinstance(target, dict):   # an earlier mutation broke it
        return None
    target[key] = value
    return key


class TestMalformedConfig:
    def test_random_malformations_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(20240)
        valid = dataclasses.asdict(ExperimentConfig())
        path = tmp_path / "cfg.json"
        commands = (["train"], ["eval"], ["ablate"], ["dump-graph"])
        for trial in range(400):
            data = json.loads(json.dumps(valid))
            keys = [_mutate(rng, data) for _ in range(1 + rng.integers(2))]
            path.write_text(json.dumps(data))
            command = commands[trial % len(commands)]
            code = main([*command, "--config", str(path),
                         "--out", str(tmp_path / "out")])
            captured = capsys.readouterr()
            assert code == 2, (trial, data)
            assert captured.err.startswith("error: "), (trial, captured.err)
            assert "Traceback" not in captured.err and not captured.out
            # refused for the config itself, not for a missing checkpoint,
            # and the message names a key that was set
            assert "no checkpoint" not in captured.err, (trial, data)
            assert any(k in captured.err for k in keys if k), \
                (trial, captured.err)
        assert not (tmp_path / "out").exists()

    def test_every_wrong_type_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for section, key, want in _fields():
            where = key if section is None else f"{section}.{key}"
            for value in _wrong_types(want):
                data = ({key: value} if section is None
                        else {section: {key: value}})
                path.write_text(json.dumps(data))
                code = main(["dump-graph", "--config", str(path),
                             "--out", str(tmp_path / "adj.csv")])
                err = capsys.readouterr().err
                assert code == 2, (where, value)
                assert err.startswith(f"error: {where} must be "), err
        assert not (tmp_path / "adj.csv").exists()

    def test_every_out_of_range_value_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for (section, key), values in _OUT_OF_RANGE.items():
            where = key if section is None else f"{section}.{key}"
            for value in values:
                data = ({key: value} if section is None
                        else {section: {key: value}})
                path.write_text(json.dumps(data))
                code = main(["dump-graph", "--config", str(path),
                             "--out", str(tmp_path / "adj.csv")])
                err = capsys.readouterr().err
                assert code == 2, (where, value)
                assert err.startswith(f"error: {where} "), err
        assert not (tmp_path / "adj.csv").exists()


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
        # no flag is required any more; a flag without its value is the
        # same usage error
        assert main(["train", "--config"]) == 1
        assert "usage error" in capsys.readouterr().err
