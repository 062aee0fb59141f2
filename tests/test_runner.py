"""Training loop, evaluation, config plumbing, and ablation driver."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from motionloc import numcore as nc
from motionloc import runner
from motionloc.datagen import CorpusSpec, generate_corpus
from motionloc.motiongraph import build_graph, pack_adjacency, unpack_adjacency
from motionloc.network import guidance_features, init_params, load_params
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


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_first_bad_section_in_file_order_is_reported(self):
        # each section is typed, then range-checked, before the next one;
        # the range of eval_iou comes after every section
        for data, message in (
                ({"loss": {"r": 0}, "corpus": {"T": 0}},
                 "loss.r must be >= 1, got 0"),
                ({"corpus": {"T": 0}, "loss": {"r": "8"}},
                 "corpus.T must be >= 1"),
                ({"train": {"epochs": 0, "lr": "x"}},
                 "train.lr must be a finite number, got 'x'"),
                ({"eval_iou": [2], "train": {"epochs": 0}},
                 "train.epochs must be >= 1, got 0")):
            with pytest.raises(ConfigError) as caught:
                config_from_dict(data)
            assert str(caught.value) == message

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

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_tape_bound_does_not_change_training(self, monkeypatch, mode):
        cfg = tiny_cfg(corpus={"n_train": 20}, train={"epochs": 2},
                       graph={"mode": mode})
        train_videos, _ = generate_corpus(cfg.corpus)
        builds = _count_builds(monkeypatch)
        params_a, curve_a = run_training(cfg, train_videos)
        assert builds == [8, 8, 4]
        builds.clear()
        # one video per tape and per graph build instead of eight
        monkeypatch.setattr(runner, "TAPE_SNIPPETS", 1)
        params_b, curve_b = run_training(cfg, train_videos)
        assert builds == [1] * 20
        assert curve_a == curve_b
        for a, b in zip(params_a.trainable(), params_b.trainable()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_only_propagating_modes_pack_graphs(self, monkeypatch):
        calls = []

        def counted(adjacency):
            calls.append(adjacency.shape)
            return pack_adjacency(adjacency)

        monkeypatch.setattr(runner, "pack_adjacency", counted)
        builds = _count_builds(monkeypatch)
        train_videos, _ = generate_corpus(tiny_cfg(corpus={"n_train": 20}).corpus)
        run_training(tiny_cfg(graph={"mode": "sparse"}), train_videos)
        assert calls == [(64, 64)] * len(train_videos)
        assert len(builds) == math.ceil(len(train_videos) / 8)
        calls.clear()
        builds.clear()
        run_training(tiny_cfg(graph={"mode": "mlp"}), train_videos)
        assert calls == [] and builds == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_first_video_in_batch_order(self):
        cfg = tiny_cfg(train={"epochs": 1, "batch_size": 6})
        train_videos, _ = generate_corpus(cfg.corpus)
        diverging = (1, 5)
        for i in diverging:
            # finite inputs whose convolutions overflow to inf, then nan
            train_videos[i] = dataclasses.replace(
                train_videos[i],
                appearance=np.full(train_videos[i].appearance.shape, 1e308))
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
        restored = load_params(out / "checkpoint", cfg.corpus.d, cfg.corpus.C,
                               cfg.model)
        for got, want in zip(restored.trainable(), params.trainable()):
            np.testing.assert_array_equal(got.value, want.value)


def _count_builds(monkeypatch):
    """The number of videos of each runner.build_graph call, in order."""
    builds = []

    def counted(motion, *args):
        builds.append(len(motion))
        return build_graph(motion, *args)

    monkeypatch.setattr(runner, "build_graph", counted)
    return builds


def _graphs(cfg, videos):
    params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, cfg.train.seed)
    return [build_graph(guidance_features(v, cfg.model), params.W1, params.W2,
                        cfg.graph).adjacency for v in videos]


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_packed_zero_noise_graphs_unpack_to_stack_bytes(mode):
    """Background snippets of a noiseless corpus have zero features, so
    their adjacency rows are all zero (or uniform in dense mode)."""
    cfg = tiny_cfg(corpus={"noise_sigma": 0.0}, graph={"mode": mode})
    train_videos, _ = generate_corpus(cfg.corpus)
    graphs = _graphs(cfg, train_videos)
    if mode == "sparse":
        assert any(not row.any() for A in graphs for row in A)
    out = np.full((len(graphs),) + graphs[0].shape, np.nan)
    got = unpack_adjacency([pack_adjacency(A) for A in graphs], out)
    assert got.tobytes() == np.stack(graphs).tobytes()


def test_packed_default_corpus_takes_a_third_of_dense_bytes():
    cfg = ExperimentConfig()
    train_videos, _ = generate_corpus(cfg.corpus)
    graphs = _graphs(cfg, train_videos)
    packed = sum(bits.nbytes + weights.nbytes
                 for bits, weights in map(pack_adjacency, graphs))
    assert packed <= sum(A.nbytes for A in graphs) / 3


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

    def test_no_videos_is_a_named_error(self):
        cfg = tiny_cfg()
        params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, 0)
        with pytest.raises(nc.DomainError, match="at least one video"):
            run_evaluation(cfg, params, [])

    def test_evaluate_params_writes_reports(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, 0)
        report = evaluate_params(cfg, params, out=tmp_path / "e")
        text = (tmp_path / "e" / "report.json").read_text()
        assert text == report.to_json()
        assert (tmp_path / "e" / "report.csv").exists()
        assert cfg.model.guidance_stream in report.kl


def test_a_run_takes_one_clip_length():
    """Training and evaluation take videos of one T and name the lengths
    of a list that mixes them."""
    cfg = tiny_cfg()
    a, _ = generate_corpus(CorpusSpec(n_train=3, n_test=1, T=80, seed=3))
    b, _ = generate_corpus(CorpusSpec(n_train=2, n_test=1, T=64, seed=4))
    mixed = a[:2] + b + a[2:]
    params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, 0)
    with pytest.raises(nc.ShapeMismatchError, match=r"T = \[64, 80\]"):
        run_training(cfg, mixed)
    with pytest.raises(nc.ShapeMismatchError, match=r"T = \[64, 80\]"):
        run_evaluation(cfg, params, mixed)


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
        text = (tmp_path / "ablation_t.csv").read_text()
        assert text.startswith("name,map_0.3")
        # the error text holds commas; each row keeps the header's 8 fields
        table = list(csv.reader(text.splitlines()))
        assert len(table) == 3
        assert all(len(fields) == 8 for fields in table)
        assert table[0][-1] == "error"
        assert table[1][-1] == rows[0]["error"] and "," in rows[0]["error"]

    def test_default_matrix_shape(self):
        matrix = default_ablation_matrix()
        assert set(matrix["tables"]) == {"loss", "graph"}
        for rows in matrix["tables"].values():
            assert len(rows) == 5

    def test_shared_cells_cached(self, tmp_path):
        # cells train in worker processes, so count trainings by their log lines
        cfg = tiny_cfg()
        matrix = {"tables": {
            "t1": [{"name": "base"}],
            "t2": [{"name": "same_base"}],
        }}
        log = []
        runner.run_ablation(cfg, matrix, tmp_path, log=log.append)
        assert log == ["[t1/base] training"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_and_csvs_equal_serial_oracle(self, tmp_path):
        cfg = tiny_cfg()
        xe = {"loss": {"loss_kind": "xe"}}
        matrix = {"tables": {
            "t1": [{"name": "base"},
                   {"name": "xe", "overrides": xe},
                   {"name": "too_short", "overrides": {"corpus": {"T": 8}}},
                   {"name": "diverges", "overrides": {"train": {"lr": 1e300}}}],
            "t2": [{"name": "dense", "overrides": {"graph": {"mode": "dense"}}},
                   {"name": "xe_again", "overrides": xe},
                   {"name": "diverges_again",
                    "overrides": {"train": {"lr": 1e300}}}],
        }}
        log = []
        tables = run_ablation(cfg, matrix, tmp_path / "pool", log=log.append)
        assert_no_child()
        oracle = _serial_ablation(cfg, matrix)
        assert tables == oracle
        errors = [row["error"] for row in oracle["t1"]]
        assert errors[0] == errors[1] == ""
        assert errors[2].startswith("GenerationError: ")
        assert errors[3].startswith("TrainingError: non-finite loss")
        for tname, rows in oracle.items():
            runner._write_ablation_csv(tmp_path / f"oracle_{tname}.csv", rows)
            assert (tmp_path / "pool" / f"ablation_{tname}.csv").read_bytes() == \
                (tmp_path / f"oracle_{tname}.csv").read_bytes()
        # one training line per distinct config handed to a worker, also
        # when the worker then fails to generate its corpus
        assert log == ["[t1/base] training", "[t1/xe] training",
                       "[t1/too_short] training", "[t1/diverges] training",
                       "[t2/dense] training"]

    def test_no_worker_outlives_a_raise(self, tmp_path):
        cfg = tiny_cfg()
        matrix = {"tables": {
            "t1": [{"name": "base"}],
            "t2": [{"name": "dense", "overrides": {"graph": {"mode": "dense"}}}],
        }}
        (tmp_path / "ablation_t1.csv").mkdir()  # the first table cannot be written
        with pytest.raises(IsADirectoryError):
            run_ablation(cfg, matrix, tmp_path)
        assert_no_child()
        assert not (tmp_path / "ablation_t2.csv").exists()

    def test_a_raise_stops_the_workers_at_once(self, monkeypatch, tmp_path):
        # the dense cell's worker would train for a minute; the unwritable
        # first table must end the run without waiting for it
        train = runner.run_training

        def slow_dense(cfg, videos, log=None):
            if cfg.graph.mode == "dense":
                time.sleep(60)
            return train(cfg, videos, log)

        monkeypatch.setattr(runner, "run_training", slow_dense)
        matrix = {"tables": {
            "t1": [{"name": "base"}],
            "t2": [{"name": "dense", "overrides": {"graph": {"mode": "dense"}}}],
        }}
        (tmp_path / "ablation_t1.csv").mkdir()
        start = time.monotonic()
        with pytest.raises(IsADirectoryError):
            run_ablation(tiny_cfg(), matrix, tmp_path)
        assert time.monotonic() - start < 20
        assert_no_child()

    def test_the_parent_runs_no_forward(self, monkeypatch, tmp_path):
        # patched before the workers fork: they inherit the patches,
        # and the counter counts only the parent's own calls
        calls = []
        activations, forward = runner._activations, runner.full_forward
        generate = runner.generate_corpus

        def counted_activations(cfg, params, videos):
            calls.append("activations")
            if cfg.loss.loss_kind == "xe":
                raise nc.DomainError("no forward for xe")
            return activations(cfg, params, videos)

        def counted_forward(*args):
            calls.append("full_forward")
            return forward(*args)

        def counted_generate(spec):
            calls.append("generate_corpus")
            return generate(spec)

        kl_calls = []
        kl = runner.kl_guidance

        def counted_kl(motionness, mask):
            kl_calls.append(len(motionness))
            return kl(motionness, mask)

        monkeypatch.setattr(runner, "_activations", counted_activations)
        monkeypatch.setattr(runner, "full_forward", counted_forward)
        monkeypatch.setattr(runner, "generate_corpus", counted_generate)
        monkeypatch.setattr(runner, "kl_guidance", counted_kl)
        cfg = tiny_cfg()
        rows = run_ablation(cfg, {"tables": {"t": [
            {"name": "base"},
            {"name": "xe", "overrides": {"loss": {"loss_kind": "xe"}}},
            {"name": "dense", "overrides": {"graph": {"mode": "dense"}}},
        ]}}, tmp_path)["t"]
        assert rows[1]["error"] == "DomainError: no forward for xe"
        assert rows[1]["avg_map"] is None
        assert rows[0]["error"] == rows[2]["error"] == ""
        assert None not in (rows[0]["avg_map"], rows[2]["avg_map"])
        assert calls == []
        # the parent scores KL: one call per test video of the two scored cells
        assert kl_calls == [cfg.corpus.T] * (2 * cfg.corpus.n_test)

    def test_a_dead_worker_ends_the_run(self, monkeypatch, tmp_path):
        # the forked worker inherits the patch and exits without a result
        monkeypatch.setattr(runner, "run_training", lambda *a, **k: os._exit(3))
        with pytest.raises(ChildProcessError,
                           match="ended with exit code 3; no result for t/base$"):
            run_ablation(tiny_cfg(), {"tables": {"t": [{"name": "base"}]}},
                         tmp_path)
        assert_no_child()

    def test_a_failed_cell_travels_as_its_text(self, monkeypatch, tmp_path):
        # an exception of a local class cannot be pickled; its row must
        # still read as in a serial run
        class LocalError(Exception):
            pass

        def boom(*args):
            raise LocalError("no parameters")

        monkeypatch.setattr(runner, "init_params", boom)
        cfg = tiny_cfg()
        matrix = {"tables": {"t": [
            {"name": "base"},
            {"name": "xe", "overrides": {"loss": {"loss_kind": "xe"}}},
        ]}}
        rows = run_ablation(cfg, matrix, tmp_path)
        assert rows == _serial_ablation(cfg, matrix)
        assert [row["error"] for row in rows["t"]] == \
            ["LocalError: no parameters"] * 2

    def test_no_cell_resolves_no_worker_forks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a worker forked"))
        rows = run_ablation(tiny_cfg(), {"tables": {"t": [
            {"name": "short", "overrides": {"corpus": {"T": 0}}},
            {"name": "typo", "overrides": {"corpus": {"tee": 64}}},
        ]}}, tmp_path)["t"]
        assert [row["error"] for row in rows] == [
            "ConfigError: corpus.T must be >= 1",
            "ConfigError: unknown key(s) in corpus: tee"]
        table = list(csv.reader((tmp_path / "ablation_t.csv").read_text()
                                .splitlines()))
        assert [fields[0] for fields in table] == ["name", "short", "typo"]

    def test_the_parent_loads_no_process_pool(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", _TWO_CELL_ABLATION,
                               str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


_TWO_CELL_ABLATION = """
import sys
from motionloc.runner import config_from_dict, run_ablation
cfg = config_from_dict({"corpus": {"n_train": 6, "n_test": 4},
                        "train": {"epochs": 2}})
rows = run_ablation(cfg, {"tables": {"t": [
    {"name": "base"},
    {"name": "xe", "overrides": {"loss": {"loss_kind": "xe"}}},
]}}, sys.argv[1])["t"]
assert [row["error"] for row in rows] == ["", ""], rows
print("multiprocessing" in sys.modules, "concurrent.futures" in sys.modules)
"""


def _serial_ablation(base_cfg, matrix):
    """run_ablation's tables, one cell at a time: generate, train, evaluate."""
    tables = {}
    for tname, cells in matrix["tables"].items():
        rows = []
        for cell in cells:
            row = {"name": cell["name"], "error": ""}
            try:
                cfg = config_from_dict(cell.get("overrides", {}), base=base_cfg)
                train_videos, test_videos = generate_corpus(cfg.corpus)
                params, _ = run_training(cfg, train_videos)
                report = run_evaluation(cfg, params, test_videos)
                values = [report.map.get(t) for t in runner.ABLATION_IOUS] + \
                    [report.avg_map, next(iter(report.kl.values()))]
            except Exception as e:
                row["error"] = f"{type(e).__name__}: {e}"
                values = [None] * (len(runner.ABLATION_IOUS) + 2)
            keys = [f"map_{t}" for t in runner.ABLATION_IOUS] + ["avg_map", "kl"]
            row.update(zip(keys, values))
            rows.append(row)
        tables[tname] = rows
    return tables


class TestValidation:
    def test_out_of_range_configs_cannot_be_built(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError, match="eval_iou"):
            dataclasses.replace(cfg, eval_iou=())
        with pytest.raises(ValueError, match="batch_size"):
            dataclasses.replace(cfg.train, batch_size=0)

    def test_zero_epochs_is_refused(self):
        # a run of zero epochs, which would return the initial weights,
        # is not a config one can build
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            TrainConfig(epochs=0)
