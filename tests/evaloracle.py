"""The one-video-at-a-time evaluation path, kept as an oracle.

These are the loop implementations that the array code in
`localization`, `metrics` and `runner.run_evaluation` replaced: one
Proposal object per segment, a scalar IoU, a set of runs per threshold,
greedy NMS against the kept list, a matcher that re-sorts and re-scores
every detection per threshold, and one graph build, forward and
localization per video. The tests compare old and
new with exact equality.

Not collected by pytest (no test_ prefix); test modules import it as
`import evaloracle`.
"""
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from motionloc.datagen import interval_mask
from motionloc.metrics import AVG_MAP_RANGE, EvalReport, kl_guidance
from motionloc.motiongraph import build_graph
from motionloc.network import full_forward, guidance_features
from motionloc.numcore import DomainError, as_matrix, constant
from motionloc.objective import aggregate_topk


@dataclass(frozen=True)
class Proposal:
    start: int   # inclusive snippet indices
    end: int
    cls: int
    confidence: float

    def segment(self):
        return (self.start, self.end)


def classify_video(tcas, r, theta_c):
    """Classes whose softmax top-k video score clears theta_c (argmax fallback)."""
    p = aggregate_topk(constant(tcas), r)[0].value[0]
    chosen = [c for c in range(p.size) if p[c] > theta_c]
    return chosen or [int(np.argmax(p))]


def iou(a, b):
    """Temporal IoU of two inclusive segments, treated as [s, e+1)."""
    inter = min(a[1], b[1]) + 1 - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = (a[1] + 1 - a[0]) + (b[1] + 1 - b[0]) - inter
    return inter / union


def runs(mask):
    """Maximal [start, end] runs of True entries."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def generate_proposals(scores, theta_a_list, cls):
    raw = np.asarray(scores, dtype=np.float64).reshape(-1)
    lo, hi = raw.min(), raw.max()
    norm = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    segments = set()
    for theta in theta_a_list:
        segments.update(runs(norm > theta))
    return sorted(
        (Proposal(s, e, cls, float(raw[s:e + 1].mean())) for s, e in segments),
        key=lambda p: (p.start, p.end))


def nms(proposals, iou_threshold):
    pending = sorted(proposals,
                     key=lambda p: (-p.confidence, p.start, p.end, p.cls))
    kept = []
    for cand in pending:
        if all(iou(cand.segment(), k.segment()) <= iou_threshold for k in kept):
            kept.append(cand)
    return kept


def localize_video(tcas, r, cfg):
    scores = as_matrix(tcas, "tcas")
    out = []
    for c in classify_video(scores, r, cfg.theta_c):
        props = generate_proposals(scores[:, c], cfg.theta_a_list, c)
        out.extend(nms(props, cfg.nms_iou))
    return sorted(out, key=lambda p: (p.cls, p.start, p.end))


def match_detections(dets, gt_by_video, iou_threshold):
    order = sorted(dets, key=lambda d: (-d[1].confidence, d[0],
                                        d[1].start, d[1].end))
    used = {vid: [False] * len(segs) for vid, segs in gt_by_video.items()}
    flags = []
    for vid, prop in order:
        segs = gt_by_video.get(vid, [])
        best, best_iou = -1, 0.0
        for g, seg in enumerate(segs):
            if used[vid][g]:
                continue
            v = iou(prop.segment(), seg)
            if v > best_iou:
                best, best_iou = g, v
        if best >= 0 and best_iou > iou_threshold:
            used[vid][best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def average_precision(dets, gt_by_video, iou_threshold):
    npos = sum(len(v) for v in gt_by_video.values())
    if npos == 0:
        raise DomainError("average_precision needs at least one gt instance")
    flags = match_detections(dets, gt_by_video, iou_threshold)
    if not flags:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    recall = tp / npos
    precision = tp / (tp + fp)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(
        np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def map_at(dets_by_class, gt_by_class, iou_list):
    classes = sorted(c for c, g in gt_by_class.items()
                     if sum(len(v) for v in g.values()) > 0)
    if not classes:
        raise DomainError("no ground truth in any class")
    report = EvalReport()
    thresholds = sorted(set(iou_list) | set(AVG_MAP_RANGE))
    per_thr = {}
    for t in thresholds:
        aps = []
        for c in classes:
            ap = average_precision(dets_by_class.get(c, []), gt_by_class[c], t)
            report.ap[(t, c)] = ap
            aps.append(ap)
        per_thr[t] = float(np.mean(aps))
    report.map = {t: per_thr[t] for t in sorted(set(iou_list))}
    report.avg_map = float(np.mean([per_thr[t] for t in AVG_MAP_RANGE]))
    return report


def forward(cfg, params, video):
    """One video's graph build and forward, on its own."""
    graph = build_graph(guidance_features(video, cfg.model), params.W1,
                        params.W2, cfg.graph)
    adjacency = None if graph.adjacency is None else graph.adjacency[None]
    return full_forward([video], adjacency, params, cfg.model)


def run_evaluation(cfg, params, videos):
    dets_by_class = defaultdict(list)
    gt_by_class = defaultdict(lambda: defaultdict(list))
    kls = []
    for video in videos:
        out = forward(cfg, params, video)
        for prop in localize_video(out.tcas.value[0], cfg.loss.r, cfg.inference):
            dets_by_class[prop.cls].append((video.id, prop))
        kls.append(kl_guidance(out.motionness.value[0],
                               interval_mask(video.T, video.gt_intervals)))
        for s, e, c in video.gt_intervals:
            gt_by_class[c][video.id].append((s, e))
    gt = {c: dict(v) for c, v in gt_by_class.items()}
    report = map_at(dict(dets_by_class), gt, cfg.eval_iou)
    report.kl[cfg.model.guidance_stream] = float(np.mean(kls))
    return report
