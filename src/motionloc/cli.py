"""Command-line front end.

Subcommands cover the whole pipeline: a corpus summary with its
fingerprint (every run regenerates the corpus from its spec; none is
stored), training, evaluation from a checkpoint, the ablation matrix,
the loss-surface dump, and a per-video adjacency dump. Exit codes: 0 on
success, 1 on usage errors, 2 on runtime failures (bad config, paths
the system refuses, diverged training).
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .datagen import (GenerationError, corpus_fingerprint, generate_corpus,
                      interval_mask)
from .motiongraph import adjacency_mean_distance, build_graph
from .network import guidance_features, init_params, load_params
from .numcore import DomainError, NonFiniteError, ShapeMismatchError
from .objective import default_surface_grids, loss_surface
from .runner import (ConfigError, ExperimentConfig, TrainingError,
                     config_from_dict, default_ablation_matrix,
                     evaluate_params, load_config, read_json,
                     resolve_out, run_ablation, train_experiment)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _load_experiment(args):
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["train"] = {"seed": args.seed}
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = config_from_dict(overrides, base=cfg)
    return cfg


def _cmd_generate(args):
    data = read_json(args.spec) if args.spec else {}
    cfg = config_from_dict({"corpus": data})
    if args.seed is not None:
        cfg = config_from_dict({"corpus": {"seed": args.seed}}, base=cfg)
    train, test = generate_corpus(cfg.corpus)
    videos = train + test
    background = sum(v.T - interval_mask(v.T, v.gt_intervals).sum() for v in videos)
    confounders = sum(len(v.confounder_idx) for v in videos)
    print(f"generated {len(train)} train / {len(test)} test videos, "
          f"{sum(len(v.gt_intervals) for v in videos)} intervals, "
          f"confounder share {confounders / max(background, 1):.3f}, "
          f"sha256 {corpus_fingerprint(videos)}")


def _cmd_train(args):
    cfg = _load_experiment(args)
    _, curve, out = train_experiment(
        cfg, log=lambda msg: print(msg, file=sys.stderr))
    print(f"trained {cfg.train.epochs} epochs, "
          f"final loss {curve[-1][1]:.4f}, artifacts in {out}")


def _checkpoint_mismatch(trained, cfg):
    """Keys that fix what a checkpoint's weights mean, where cfg differs."""
    keys = [(section, f.name) for section in ("model", "graph")
            for f in dataclasses.fields(getattr(trained, section))]
    keys += [("corpus", "d"), ("corpus", "C")]
    return [f"{section}.{name}" for section, name in keys
            if getattr(getattr(trained, section), name)
            != getattr(getattr(cfg, section), name)]


def _cmd_eval(args):
    # --out names the report directory only; without --checkpoint the
    # checkpoint lives under the out_dir of --config (or the default)
    if args.checkpoint:
        ckpt = Path(args.checkpoint)
    else:
        own = load_config(args.config) if args.config else ExperimentConfig()
        ckpt = resolve_out(own.out_dir) / "checkpoint"
    if not (ckpt / "manifest.json").exists():
        raise FileNotFoundError(f"no checkpoint at {ckpt} (pass --checkpoint, "
                                "or a --config whose out_dir holds one)")
    # the config train wrote next to the checkpoint is the base; --config
    # may change how the model is evaluated, not the model it describes
    trained_path = ckpt.parent / "config.json"
    if not trained_path.exists():
        raise FileNotFoundError(f"no config.json next to checkpoint {ckpt}")
    trained = load_config(trained_path)
    cfg = load_config(args.config, base=trained) if args.config else trained
    changed = _checkpoint_mismatch(trained, cfg)
    if changed:
        raise ConfigError(
            f"--config changes what checkpoint {ckpt} was trained with: "
            f"{', '.join(changed)}")
    params = load_params(ckpt, trained.corpus.d, trained.corpus.C, trained.model)
    out = args.out if args.out is not None else cfg.out_dir
    report = evaluate_params(cfg, params, out=out)
    ious = ", ".join(f"{t:g}: {report.map[t]:.4f}" for t in sorted(report.map))
    print(f"mAP {{{ious}}} avg {report.avg_map:.4f}")


def _cmd_ablate(args):
    cfg = _load_experiment(args)
    matrix = default_ablation_matrix()
    if args.matrix:
        matrix = read_json(args.matrix)
    out = args.out if args.out is not None else cfg.out_dir
    results = run_ablation(cfg, matrix, out,
                           log=lambda msg: print(msg, file=sys.stderr))
    for tname, rows in results.items():
        print(f"table {tname}:")
        for row in rows:
            if row["error"]:
                print(f"  {row['name']}: FAILED ({row['error']})")
            else:
                print(f"  {row['name']}: avg mAP {row['avg_map']:.4f}")


def _cmd_loss_surface(args):
    p_grid, mu_grid = default_surface_grids(args.grid)
    surface = loss_surface(p_grid, mu_grid)
    lines = ["p,mu,loss"]
    for i, p in enumerate(p_grid):
        for j, mu in enumerate(mu_grid):
            lines.append(f"{float(p)!r},{float(mu)!r},{surface[i, j]!r}")
    out = resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(p_grid) * len(mu_grid)} surface points to {out}")


def _cmd_dump_graph(args):
    cfg = _load_experiment(args)
    train, test = generate_corpus(cfg.corpus)
    videos = train if args.split == "train" else test
    if not 0 <= args.index < len(videos):
        raise ConfigError(
            f"index {args.index} out of range for {args.split} "
            f"split of {len(videos)} videos")
    video = videos[args.index]
    params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, cfg.train.seed)
    graph = build_graph(guidance_features(video, cfg.model), params.W1,
                        params.W2, cfg.graph)
    out = resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # mlp mode propagates over no graph, which the identity matrix stands for
    adjacency = np.eye(video.T) if graph.adjacency is None else graph.adjacency
    np.savetxt(out, adjacency, delimiter=",")
    print(f"video {video.id}: {np.count_nonzero(graph.pos_edges)} positional "
          f"edges, {np.count_nonzero(graph.smt_edges)} semantic edges, "
          f"mean span {adjacency_mean_distance(adjacency):.3f}, "
          f"adjacency written to {out}")


def build_parser():
    parser = _Parser(prog="motionloc",
                     description="motion-guided temporal localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate",
                       help="summarize and fingerprint a synthetic corpus")
    p.add_argument("--spec", help="JSON file of corpus fields")
    p.add_argument("--seed", type=int, help="override corpus seed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a model end to end")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override training seed")
    p.add_argument("--out", help="override output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--out", help="report output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the loss/graph comparison tables")
    p.add_argument("--config", help="base experiment config JSON")
    p.add_argument("--matrix", help="ablation matrix JSON")
    p.add_argument("--seed", type=int, help="override training seed")
    p.add_argument("--out", help="output directory for table CSVs")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("loss-surface",
                       help="dump the guided-loss surface as CSV")
    p.add_argument("--grid", type=_positive_int, default=50,
                   help="points per axis")
    p.add_argument("--out", default="surface.csv", help="output CSV path")
    p.set_defaults(func=_cmd_loss_surface)

    p = sub.add_parser("dump-graph",
                       help="write one video's adjacency matrix as CSV")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--split", choices=["train", "test"], default="train")
    p.add_argument("--index", type=int, default=0, help="video index")
    p.add_argument("--out", default="adjacency.csv", help="output CSV path")
    p.set_defaults(func=_cmd_dump_graph)
    return parser


_RUNTIME_ERRORS = (ConfigError, TrainingError, GenerationError, DomainError,
                   NonFiniteError, ShapeMismatchError, OSError, ValueError)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except _RUNTIME_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
