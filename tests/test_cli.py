"""Command-line interface: subcommands, artifacts, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import typing
import warnings

import numpy as np
import pytest

from motionloc import runner
from motionloc.cli import main
from motionloc.datagen import CorpusSpec, corpus_fingerprint, generate_corpus
from motionloc.runner import (ExperimentConfig, config_from_dict,
                              evaluate_params, train_experiment)

TINY = {
    "corpus": {"n_train": 4, "n_test": 3},
    "train": {"epochs": 2},
}


# invalid JSON whose error json reports at line 2
BROKEN_JSON = '{\n  oops\n}'


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

    def test_invalid_spec_json_names_file_and_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(BROKEN_JSON)
        assert main(["generate", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {spec}: invalid JSON at line 2: ")

    def test_oversized_layout_names_the_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"T": 12}))
        assert main(["generate", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "more than corpus.T=12" in err and "Traceback" not in err

    @pytest.mark.parametrize("sigma", [1e39, 1e308])
    def test_overflowing_noise_names_the_key(self, tmp_path, capsys, sigma):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 3, "n_test": 2,
                                    "noise_sigma": sigma}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["generate", "--spec", str(spec)]) == 2
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: corpus.noise_sigma="), err


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

    def test_golden_training_bytes(self, tmp_path, capsys):
        """CLI train for 2 epochs on the default corpus (200 videos of T=64,
        batch 16, so each step runs two 8-video tapes) writes these
        loss_curve.csv bytes and checkpoint blobs (one sha256 over the
        .bin files in name order), with the guided loss and with xe.
        Taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64: another
        BLAS build may round the products differently and fail here with
        correct code."""
        golden = {
            "motion_guided": (
                "9e71fc8f5985c75d89ef142a0f203451881a27880abbf27d8c4c23095b7a857b",
                "0b1d70017d244774e763ab909bf070b4eb237258320d5b18145d29ca62759377"),
            "xe": (
                "d920bae54b1d581fd0c4736ac56f3a2a8a1039a4a67116ba5915c3a13be71ffb",
                "2aa8044457985d699f3fa1b27351c0e9d8031370d52bed92217c1b6e9313cf58"),
        }
        for kind, (curve, blobs) in golden.items():
            run = tmp_path / kind
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(json.dumps({"out_dir": str(run), "train": {"epochs": 2},
                                       "loss": {"loss_kind": kind}}))
            assert main(["train", "--config", str(cfg)]) == 0
            digest = hashlib.sha256((run / "loss_curve.csv").read_bytes())
            assert digest.hexdigest() == curve, kind
            digest = hashlib.sha256()
            for path in sorted((run / "checkpoint").glob("*.bin")):
                digest.update(path.read_bytes())
            assert digest.hexdigest() == blobs, kind

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


class TestNegativeSeeds:
    """A seed below 0 is refused by name before any directory or corpus
    exists, not by numpy's seeding."""

    def test_generate_seed_flag(self, capsys):
        assert main(["generate", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: corpus.seed must be >= 0, got -1\n"
        assert not captured.out

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_train_seed_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path), "--seed", "-1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: train.seed must be >= 0, got -1\n"
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("section", ["corpus", "train"])
    def test_config_seed(self, tmp_path, capsys, section):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, {section: {"seed": -3}, "out_dir": str(out)})
        assert main(["train", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {section}.seed must be >= 0, got -3\n"
        assert not captured.out and not out.exists()


def _entry(name, **fields):
    """A manifest edit: tensor name's entry with fields replaced."""
    return lambda m: {**m, name: {**m[name], **fields}}


# manifest edit -> what the error must name; the default config's
# embed.tap0 is 32 x 32
BAD_MANIFESTS = {
    "list": (lambda m: list(m.values()), "manifest.json"),
    "missing": (lambda m: {k: v for k, v in m.items() if k != "embed.tap0"},
                "embed.tap0"),
    "unknown": (lambda m: {**m, "gcn.2": m["gcn.1"]}, "gcn.2"),
    "one-dim": (_entry("embed.tap0", shape=[3]), "embed.tap0"),
    "string-dim": (_entry("embed.tap0", shape=["a", 2]), "embed.tap0"),
    "float-dim": (_entry("embed.tap0", shape=[32.0, 32]), "embed.tap0"),
    "other-shape": (_entry("embed.tap0", shape=[64, 16]), "[32, 32]"),
    "outside-file": (_entry("embed.tap0", file="../tap0.bin"), "embed.tap0"),
    "absolute-file": (_entry("embed.tap0", file="/dev/null"), "embed.tap0"),
    "directory": (_entry("embed.tap0", file="."), "embed.tap0"),
    "no-file": (_entry("embed.tap0", file=None), "embed.tap0"),
    "missing-file": (_entry("embed.tap0", file="gone.bin"), "embed.tap0"),
    "short-file": (_entry("embed.tap0", file="gcn_0.bin"), "embed.tap0"),
}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config",
                 write_cfg(root, {"corpus": {"n_train": 2, "n_test": 1},
                                  "train": {"epochs": 1},
                                  "out_dir": str(root / "run")})]) == 0
    return root / "run"


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_eval_rejects_a_manifest_that_does_not_fit(trained_run, tmp_path,
                                                   capsys, case):
    edit, named = BAD_MANIFESTS[case]
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    # the right bytes, but outside the checkpoint directory
    shutil.copy(run / "checkpoint" / "embed_tap0.bin", run / "tap0.bin")
    manifest = run / "checkpoint" / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert "aaaa" not in err and not (tmp_path / "rep").exists()


def test_eval_invalid_manifest_json_names_file_and_line(trained_run, tmp_path,
                                                       capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    manifest = run / "checkpoint" / "manifest.json"
    manifest.write_text(BROKEN_JSON)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {manifest}: invalid JSON at line 2: ")


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

    def test_an_eval_iou_without_half_prints_every_row(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"base": {"eval_iou": [0.3]}, "tables": {
            "t": [{"name": "base"},
                  {"name": "xe", "overrides": {"loss": {"loss_kind": "xe"}}}],
        }}))
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(matrix), "--out", str(tmp_path / "abl")]) == 0
        table = (tmp_path / "abl" / "ablation_t.csv").read_text().splitlines()
        header = table[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in table[1:]]
        assert [row["map_0.5"] for row in rows] == ["", ""]
        assert capsys.readouterr().out.splitlines() == ["table t:"] + [
            f"  {row['name']}: avg mAP {float(row['avg_map']):.4f}" for row in rows]

    @pytest.mark.parametrize("tables, named", [
        ({"t": [5]}, "cell 0 of table 't'"),
        ({"t": 5}, "table 't'"),
        ({"t": [{"name": "a"}, {"overrides": {}}]}, "cell 1 of table 't'"),
        ({"t": [{"name": 7}]}, "cell 0 of table 't'"),
    ])
    def test_malformed_table_names_the_cell(self, tmp_path, capsys, tables,
                                            named):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"tables": tables}))
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(matrix), "--out", str(tmp_path / "abl")]) == 2
        # the error line alone: no cell logged its training before it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: ") and named in err[0], err

    @pytest.mark.parametrize("matrix, message", [
        ({"base": 3, "tables": {}},
         "ablation matrix 'base' must be an object, got int"),
        ({"base": [], "tables": {"t": [{"name": "a"}]}},
         "ablation matrix 'base' must be an object, got list"),
        ({"tables": {}}, "ablation matrix has no cells"),
        ({"tables": {"t": [], "u": []}}, "ablation matrix has no cells"),
        ({"bsae": {"train": {"seed": 1}}, "tables": {"t": [{"name": "a"}]}},
         "unknown key(s) in ablation matrix: bsae"),
        ({"tables": {"t": [{"name": "base"},
                           {"name": "dense_typo",
                            "overides": {"graph": {"mode": "dense"}}}]}},
         "unknown key(s) in cell 1 of table 't': overides"),
    ])
    def test_refused_matrix_makes_no_directory(self, tmp_path, capsys, matrix,
                                               message):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(path), "--out", str(tmp_path / "abl")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "abl").exists()

    def test_a_matrix_base_out_dir_is_refused(self, tmp_path, capsys,
                                              monkeypatch):
        # neither --out nor the --config names a directory, so the run would
        # fall back to runs/default under the working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(runner.OUT_ROOT_ENV, raising=False)
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"base": {"out_dir": "from_base"},
                                      "tables": {"t": [{"name": "a"}]}}))
        assert main(["ablate", "--config", write_cfg(tmp_path),
                     "--matrix", str(matrix)]) == 2
        assert capsys.readouterr().err == (
            "error: base.out_dir cannot be set in an ablation matrix; "
            "name the output directory with --out\n")
        assert not (tmp_path / "from_base").exists()
        assert not (tmp_path / "runs").exists()

    def test_a_cell_out_dir_is_that_cells_error(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"tables": {"t": [
            {"name": "a"},
            {"name": "moved", "overrides": {"out_dir": str(tmp_path / "cell")}},
        ]}}))
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(matrix), "--out", str(tmp_path / "abl")]) == 0
        error = ("ConfigError: overrides.out_dir cannot be set in an ablation "
                 "matrix; name the output directory with --out")
        with open(tmp_path / "abl" / "ablation_t.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["name"], row["error"]) for row in rows] == [
            ("a", ""), ("moved", error)]
        assert rows[1]["avg_map"] == ""
        out, err = capsys.readouterr()
        assert out.splitlines()[2] == f"  moved: FAILED ({error})"
        assert err.splitlines() == ["[t/a] training"]
        assert not (tmp_path / "cell").exists()

    def test_seed_flag_wins_over_the_matrix_base(self, tmp_path):
        """--config < matrix base < --seed < a cell's own overrides."""
        cfg = write_cfg(tmp_path, {"train": {"seed": 2}})
        cells = [{"name": "flag"},
                 {"name": "own", "overrides": {"train": {"seed": 1}}}]

        def table(seed, base):
            out = tmp_path / f"abl-{seed}-{len(base)}"
            matrix = tmp_path / "matrix.json"
            matrix.write_text(json.dumps({"base": base, "tables": {"t": cells}}))
            assert main(["ablate", "--config", cfg, "--matrix", str(matrix),
                         "--seed", str(seed), "--out", str(out)]) == 0
            return (out / "ablation_t.csv").read_bytes().splitlines()

        with_base = table(5, {"train": {"seed": 1}})
        assert with_base == table(5, {})
        seed_1 = table(1, {})
        assert with_base[1] != seed_1[1]  # "flag" trained with seed 5
        assert with_base[2] == seed_1[2]  # "own" trained with seed 1

    @pytest.mark.parametrize("base, message", [
        (3, "ablation matrix 'base' must be an object, got int"),
        ({"train": 3}, "train must be an object, got int"),
    ])
    def test_seed_flag_with_a_malformed_base_exits_2(self, tmp_path, capsys,
                                                    base, message):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"base": base,
                                      "tables": {"t": [{"name": "a"}]}}))
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(matrix), "--seed", "5",
                     "--out", str(tmp_path / "abl")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "abl").exists()

    def test_a_dead_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        # the forked worker inherits the patch and exits without a result
        monkeypatch.setattr(runner, "run_training", lambda *a, **k: os._exit(3))
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"tables": {"demo": [{"name": "base"}]}}))
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(matrix), "--out", str(tmp_path / "abl")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: an ablation worker ended with exit code 3; "
                          "no result for demo/base"], err
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)

    def test_invalid_matrix_json_names_file_and_line(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(BROKEN_JSON)
        assert main(["ablate", "--config", write_cfg(tmp_path), "--matrix",
                     str(matrix), "--out", str(tmp_path / "abl")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {matrix}: invalid JSON at line 2: ")


class TestLossSurface:
    def test_grid_rows(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        assert main(["loss-surface", "--grid", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,mu,loss"
        assert len(lines) == 2501
        assert "2500" in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["0", "-3", "x"])
    def test_grid_must_be_positive(self, tmp_path, capsys, grid):
        out = tmp_path / "surface.csv"
        assert main(["loss-surface", "--grid", grid, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--grid" in err, err
        assert not out.exists()


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


class TestRefusedPaths:
    """A path the OS refuses ends in one error line and exit 2."""

    @pytest.mark.parametrize("argv, refused, reason", [
        (["loss-surface", "--grid", "2", "--out", "{dir}"], "dir",
         "Is a directory"),
        (["dump-graph", "--config", "{cfg}", "--out", "{dir}"], "dir",
         "Is a directory"),
        (["loss-surface", "--grid", "2", "--out", "{file}/x.csv"], "file",
         "File exists"),
        (["ablate", "--config", "{cfg}", "--matrix", "{dir}",
          "--out", "{dir}/abl"], "dir", "Is a directory"),
        (["ablate", "--config", "{cfg}", "--out", "{file}"], "file",
         "File exists"),
    ], ids=["surface-out-dir", "graph-out-dir", "surface-out-under-file",
            "ablate-matrix-dir", "ablate-out-file"])
    def test_exits_2(self, tmp_path, capsys, argv, refused, reason):
        paths = {"dir": tmp_path / "d", "file": tmp_path / "f",
                 "cfg": write_cfg(tmp_path)}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: ") and reason in err[0], err
        assert str(paths[refused]) in err[0], err
        assert not any(tmp_path.glob("d/abl*")), "nothing is written"


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
