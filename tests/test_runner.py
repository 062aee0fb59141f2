"""Training loop, evaluation, config plumbing, and ablation driver."""

import dataclasses
import json
import math

import numpy as np
import pytest

from motionloc import numcore as nc
from motionloc import runner
from motionloc.datagen import CorpusSpec, generate_corpus
from motionloc.network import init_params, load_params
from motionloc.runner import (ConfigError, ExperimentConfig, TrainConfig,
                              TrainingError,
                              config_from_dict, load_config,
                              default_ablation_matrix, evaluate_params,
                              resolve_out, run_ablation, run_evaluation,
                              run_training, train_experiment,
                              write_loss_curve)

TINY = {
    "corpus": {"n_train": 6, "n_test": 4},
    "train": {"epochs": 2},
}


def tiny_cfg(**extra):
    data = json.loads(json.dumps(TINY))
    for key, value in extra.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    return config_from_dict(data)


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_cfg(graph={"mode": "dense"}, eval_iou=[0.5, 0.75])
        again = config_from_dict(dataclasses.asdict(cfg))
        assert again == cfg

    def test_partial_override_keeps_defaults(self):
        cfg = config_from_dict({"loss": {"loss_kind": "xe"}})
        assert cfg.loss.loss_kind == "xe"
        assert cfg.loss.r == 8
        assert cfg.train.epochs == 200
        assert cfg.corpus == CorpusSpec()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="optimizer"):
            config_from_dict({"optimizer": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_dict({"train": {"learning_rate": 1e-3}})

    def test_invalid_value_is_config_error(self):
        with pytest.raises(ConfigError, match="epochs"):
            config_from_dict({"train": {"epochs": 0}})

    def test_value_types_checked(self):
        # an int stands for a float, lists of numbers fill tuple fields
        cfg = config_from_dict({"train": {"lr": 1}, "eval_iou": [0.5, 1],
                                "inference": {"theta_a_list": [0, 0.5]}})
        assert cfg.train.lr == 1 and cfg.eval_iou == (0.5, 1)
        assert cfg.inference.theta_a_list == (0, 0.5)
        for bad in ({"train": {"epochs": 2.0}}, {"train": {"batch_size": True}},
                    {"graph": {"use_semantic": 1}}, {"graph": {"mode": 3}},
                    {"corpus": {"noise_sigma": "0.1"}}, {"eval_iou": 0.5},
                    {"eval_iou": [0.5, False]}, {"out_dir": 7}):
            with pytest.raises(ConfigError, match="must be"):
                config_from_dict(bad)

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_cfg(out_dir="runs/x")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert load_config(path) == cfg

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{\n  bad\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_out_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MOTIONLOC_OUT_ROOT", str(tmp_path))
        assert resolve_out("runs/a") == tmp_path / "runs" / "a"
        assert resolve_out("/abs/x") == __import__("pathlib").Path("/abs/x")
        monkeypatch.delenv("MOTIONLOC_OUT_ROOT")
        assert resolve_out("runs/a") == __import__("pathlib").Path("runs/a")


class TestTraining:
    def test_zero_epochs_keeps_init(self):
        cfg = tiny_cfg()
        cfg = dataclasses.replace(cfg, train=TrainConfig(epochs=0, seed=3))
        train_videos, _ = generate_corpus(cfg.corpus)
        params, curve = run_training(cfg, train_videos)
        assert curve == []
        fresh = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, 3)
        for got, want in zip(params.trainable(), fresh.trainable()):
            assert np.array_equal(got.value, want.value)

    def test_xe_descends_below_uniform_on_separable_corpus(self):
        cfg = config_from_dict({
            "corpus": {"n_train": 20, "n_test": 1, "noise_sigma": 0.0,
                       "confounder_rate": 0.0},
            "train": {"epochs": 50},
            "loss": {"loss_kind": "xe"},
        })
        train_videos, _ = generate_corpus(cfg.corpus)
        _, curve = run_training(cfg, train_videos)
        assert curve[-1][1] < math.log(cfg.corpus.C)

    def test_same_seed_bitwise_identical_curve(self, tmp_path):
        cfg = tiny_cfg(train={"epochs": 3})
        train_videos, _ = generate_corpus(cfg.corpus)
        _, curve_a = run_training(cfg, train_videos)
        _, curve_b = run_training(cfg, train_videos)
        assert curve_a == curve_b
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_loss_curve(a, curve_a)
        write_loss_curve(b, curve_b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_curve(self):
        train_videos, _ = generate_corpus(tiny_cfg().corpus)
        _, curve_a = run_training(tiny_cfg(), train_videos)
        _, curve_b = run_training(tiny_cfg(train={"seed": 1}), train_videos)
        assert curve_a != curve_b

    def test_tape_bound_does_not_change_training(self, monkeypatch):
        cfg = tiny_cfg(corpus={"n_train": 20}, train={"epochs": 2})
        train_videos, _ = generate_corpus(cfg.corpus)
        params_a, curve_a = run_training(cfg, train_videos)
        # one video per tape instead of eight
        monkeypatch.setattr(runner, "TAPE_SNIPPETS", 1)
        params_b, curve_b = run_training(cfg, train_videos)
        assert curve_a == curve_b
        for a, b in zip(params_a.trainable(), params_b.trainable()):
            np.testing.assert_array_equal(a.value, b.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_first_video_in_batch_order(self):
        cfg = tiny_cfg(train={"epochs": 1, "batch_size": 6})
        train_videos, _ = generate_corpus(cfg.corpus)
        diverging = (1, 5)
        for i in diverging:
            # finite inputs whose convolutions overflow to inf, then nan
            train_videos[i] = dataclasses.replace(
                train_videos[i],
                appearance=np.full_like(train_videos[i].appearance, 1e308))
        order = nc.split_rng(cfg.train.seed, 100).permutation(6).tolist()
        first = min(diverging, key=order.index)
        with pytest.raises(TrainingError,
                           match=f"epoch 0 on video {train_videos[first].id}$"):
            run_training(cfg, train_videos)

    def test_artifacts_written(self, tmp_path):
        cfg = tiny_cfg(out_dir=str(tmp_path / "run"))
        params, curve, out = train_experiment(cfg)
        assert (out / "loss_curve.csv").read_text().splitlines()[0] == \
            "epoch,mean_loss"
        assert len((out / "loss_curve.csv").read_text().splitlines()) == \
            cfg.train.epochs + 1
        assert (out / "checkpoint" / "manifest.json").exists()
        assert load_config(out / "config.json") == cfg
        restored = load_params(out / "checkpoint")
        for got, want in zip(restored.trainable(), params.trainable()):
            np.testing.assert_array_equal(got.value, want.value)


class TestEvaluation:
    def test_untrained_model_near_chance(self):
        cfg = config_from_dict({})
        params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model,
                             cfg.train.seed)
        _, test_videos = generate_corpus(cfg.corpus)
        report = run_evaluation(cfg, params, test_videos)
        # random-init weights localize far below trained quality (~0.85)
        assert report.map[0.5] < 0.25

    def test_evaluation_is_pure(self):
        cfg = tiny_cfg()
        _, test_videos = generate_corpus(cfg.corpus)
        params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, 0)
        a = run_evaluation(cfg, params, test_videos)
        b = run_evaluation(cfg, params, test_videos)
        assert a.to_json() == b.to_json()

    def test_evaluate_params_writes_reports(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, 0)
        report = evaluate_params(cfg, params, out=tmp_path / "e")
        text = (tmp_path / "e" / "report.json").read_text()
        assert text == report.to_json()
        assert (tmp_path / "e" / "report.csv").exists()
        assert cfg.model.guidance_stream in report.kl


class TestAblation:
    def test_identical_deltas_identical_rows(self, tmp_path):
        cfg = tiny_cfg()
        matrix = {"tables": {"t": [
            {"name": "a", "overrides": {"loss": {"loss_kind": "xe"}}},
            {"name": "b", "overrides": {"loss": {"loss_kind": "xe"}}},
        ]}}
        rows = run_ablation(cfg, matrix, tmp_path)["t"]
        a, b = rows
        assert a["error"] == "" and b["error"] == ""
        assert {k: v for k, v in a.items() if k != "name"} == \
            {k: v for k, v in b.items() if k != "name"}

    def test_failed_cell_is_isolated(self, tmp_path):
        cfg = tiny_cfg()
        matrix = {"tables": {"t": [
            {"name": "broken", "overrides": {"corpus": {"T": 8}}},
            {"name": "fine"},
        ]}}
        rows = run_ablation(cfg, matrix, tmp_path)["t"]
        assert "GenerationError" in rows[0]["error"]
        assert rows[0]["avg_map"] is None
        assert rows[1]["error"] == "" and rows[1]["avg_map"] is not None
        csv = (tmp_path / "ablation_t.csv").read_text().splitlines()
        assert csv[0].startswith("name,map_0.3")
        assert len(csv) == 3

    def test_default_matrix_shape(self):
        matrix = default_ablation_matrix()
        assert set(matrix["tables"]) == {"loss", "graph"}
        for rows in matrix["tables"].values():
            assert len(rows) == 5

    def test_shared_cells_cached(self, tmp_path, monkeypatch):
        import motionloc.runner as runner
        calls = []
        original = runner.run_training

        def counting(cfg, videos, log=None):
            calls.append(1)
            return original(cfg, videos, log=log)

        monkeypatch.setattr(runner, "run_training", counting)
        cfg = tiny_cfg()
        matrix = {"tables": {
            "t1": [{"name": "base"}],
            "t2": [{"name": "same_base"}],
        }}
        runner.run_ablation(cfg, matrix, tmp_path)
        assert len(calls) == 1


class TestValidation:
    def test_experiment_validate_covers_sections(self):
        cfg = ExperimentConfig()
        cfg.validate()
        bad = dataclasses.replace(cfg, eval_iou=())
        with pytest.raises(ValueError, match="eval_iou"):
            bad.validate()
        bad = dataclasses.replace(cfg, train=TrainConfig(batch_size=0))
        with pytest.raises(ValueError, match="batch_size"):
            bad.validate()
