"""In-memory spans around motionloc's public functions.

A Tracer replaces each wrapped function on the module where its caller
looks the name up (``motionloc.runner.full_forward`` is what
``run_training`` calls, ``motionloc.network.base_forward`` is what
``full_forward`` calls), records one span per call, and puts the
original back when the traced block ends. Nothing in ``src/`` changes.

Each span is ``[name, start, end, parent]``, with ``parent`` the index
of the enclosing span or -1, and all of them stay in memory until the
run reports. A few wrappers also count what the call produced (edges,
proposals, tape nodes); that bookkeeping runs inside an unnamed child
span, so it is excluded from every reported self time.
"""

import statistics
import time
from collections import Counter

import numpy as np

from motionloc import localization, motiongraph, network, numcore, runner

# (span name, module whose global the caller looks up, attribute)
WRAPPED = (
    ("datagen.generate_corpus", runner, "generate_corpus"),
    ("motiongraph.build_graph", runner, "build_graph"),
    ("motiongraph.build_positional_edges", motiongraph, "build_positional_edges"),
    ("motiongraph.build_semantic_edges", motiongraph, "build_semantic_edges"),
    ("motiongraph.build_adjacency", motiongraph, "build_adjacency"),
    ("motiongraph.build_dense_adjacency", motiongraph, "build_dense_adjacency"),
    ("network.full_forward", runner, "full_forward"),
    ("network.base_forward", network, "base_forward"),
    ("network.guidance_forward", network, "guidance_forward"),
    ("objective.per_video_loss", runner, "per_video_loss"),
    ("numcore.backward", numcore, "backward"),
    ("numcore.adam_step", numcore, "adam_step"),
    ("localization.localize_video", runner, "localize_video"),
    ("localization.generate_proposals", localization, "generate_proposals"),
    ("localization.nms", localization, "nms"),
    ("metrics.map_at", runner, "map_at"),
    ("metrics.kl_guidance", runner, "kl_guidance"),
    ("runner.run_training", runner, "run_training"),
    ("runner.run_evaluation", runner, "run_evaluation"),
    ("runner.run_ablation", runner, "run_ablation"),
)

# a percentile needs at least ten samples beyond it
P90_MIN_CALLS = 100


def _edge_count(edges):
    """Edges held as a set of pairs or as a boolean mask."""
    if isinstance(edges, np.ndarray):
        return int(np.count_nonzero(edges))
    return len(edges)


def tape_census(root):
    """Op-name histogram of the tape reachable from root via DiffNode.parents."""
    ops = Counter()
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops[node.op] += 1
        stack.extend(node.parents)
    return ops


class Tracer:
    """Records spans and counts while installed (``with tracer:``)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.tape_ops = Counter()
        self.traced_ops = 0
        self.missing = [name for name, owner, attr in WRAPPED
                        if not callable(getattr(owner, attr, None))]
        self._open = []
        self._saved = []
        self._after = {
            "motiongraph.build_graph": self._count_edges,
            "localization.generate_proposals": self._count_generated,
            "localization.nms": self._count_kept,
            "objective.per_video_loss": self._count_tape,
            "runner.run_ablation": self._count_cells,
        }

    def __enter__(self):
        for name, owner, attr in WRAPPED:
            if name in self.missing:
                continue
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, self._after.get(name)))
        self.traced_ops += 1
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def _wrap(self, name, fn, after):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if after is not None:
                hidden = [None, clock(), 0.0, open_[-1] if open_ else -1]
                spans.append(hidden)
                after(result)
                hidden[2] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_edges(self, graph):
        self.counts["graphs"] += 1
        self.counts["pos_edges"] += _edge_count(graph.pos_edges)
        self.counts["smt_edges"] += _edge_count(graph.smt_edges)

    def _count_generated(self, proposals):
        self.counts["proposals_generated"] += len(proposals)

    def _count_kept(self, proposals):
        self.counts["proposals_kept"] += len(proposals)

    def _count_tape(self, result):
        loss, _ = result
        ops = tape_census(loss)
        self.counts["loss_tapes"] += 1
        self.counts["tape_nodes"] += sum(ops.values())
        self.tape_ops.update(ops)

    def _count_cells(self, tables):
        self.counts["ablation_cells"] += sum(len(rows) for rows in tables.values())

    def metrics(self):
        """Per-layer metrics, counts and self times averaged per traced op."""
        n = max(self.traced_ops, 1)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = {name: [] for name, _, _ in WRAPPED}
        self_s = Counter()
        trained_in_ablation = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name is None:
                continue
            durations[name].append(end - start)
            self_s[name] += end - start - child[i]
            if (name == "runner.run_training" and parent >= 0
                    and self.spans[parent][0] == "runner.run_ablation"):
                trained_in_ablation += 1
        out = {}
        for name, _, _ in WRAPPED:
            d = durations[name]
            out[f"{name}.calls"] = len(d) / n
            out[f"{name}.self_s"] = self_s[name] / n
            out[f"{name}.p50_ms"] = 1e3 * statistics.median(d) if d else 0.0
            out[f"{name}.p90_ms"] = (1e3 * statistics.quantiles(d, n=10)[8]
                                     if len(d) >= P90_MIN_CALLS else 0.0)
        c = self.counts
        graphs, tapes = max(c["graphs"], 1), max(c["loss_tapes"], 1)
        out["motiongraph.pos_edges_per_video"] = c["pos_edges"] / graphs
        out["motiongraph.smt_edges_per_video"] = c["smt_edges"] / graphs
        out["numcore.tape_nodes_per_step"] = c["tape_nodes"] / tapes
        for op, count in self.tape_ops.items():
            out[f"numcore.op.{op}.count"] = count / tapes
        out["localization.proposals_generated"] = c["proposals_generated"] / n
        out["localization.proposals_kept"] = c["proposals_kept"] / n
        out["runner.ablation_cells"] = c["ablation_cells"] / n
        out["runner.ablation_cells_trained"] = trained_in_ablation / n
        return out
