"""Detection evaluation (AP / mAP over IoU thresholds) and the KL diagnostic.

Detections arrive as one localization.Detections over the whole corpus,
their `video` indexing a list of video ids; ground truth is a per-class,
per-video-id list of inclusive segments, so videos that share an id
share one ground-truth pool. Matching is greedy in confidence order
against the highest-IoU unmatched ground truth, and AP integrates the
precision-recall curve with all-points interpolation.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .localization import segment_iou
from .numcore import DomainError

KL_EPS = 1e-8
AVG_MAP_RANGE = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))  # 0.5 .. 0.95


def _ranked(dets, video_ids, gt_by_video):
    """One class's detections in confidence order as the rank of their
    video id, their IoU rows against that id's gt, and each row's maximum.

    Ties in confidence go to the smaller video id string, then the
    earlier start, end and video index. Rows are padded to the largest
    pool with the empty segment [0, -1], whose IoU is 0.
    """
    ids, id_rank = np.unique(np.array(video_ids, dtype=str), return_inverse=True)
    pools = [list(gt_by_video.get(vid, [])) for vid in ids.tolist()]
    width = max([1, *map(len, pools)])
    gt = np.array([segs + [(0, -1)] * (width - len(segs)) for segs in pools],
                  dtype=np.int64).reshape(ids.size, width, 2)
    rank = id_rank[dets.video]
    order = np.lexsort((dets.video, dets.end, dets.start, rank, -dets.confidence))
    rank = rank[order]
    ious = segment_iou(dets.start[order, None], dets.end[order, None],
                       gt[rank, :, 0], gt[rank, :, 1])
    return rank.tolist(), ious.tolist(), ious.max(axis=1)


def _flags(ranked, iou_threshold):
    """TP flags in confidence order; each gt consumed at most once.

    A detection takes the first strict IoU maximum among its video id's
    unused gt and is a TP when that clears the threshold; one whose best
    IoU over all of its gt does not is an FP without any search.
    """
    ranks, rows, best = ranked
    used = {}
    flags = np.zeros(len(rows), dtype=bool)
    for i in np.flatnonzero(best > iou_threshold).tolist():
        row = rows[i]
        taken = used.setdefault(ranks[i], [False] * len(row))
        g_best, g_iou = -1, 0.0
        for g, v in enumerate(row):
            if v > g_iou and not taken[g]:
                g_best, g_iou = g, v
        if g_best >= 0 and g_iou > iou_threshold:
            taken[g_best] = True
            flags[i] = True
    return flags


def _ap(flags, gt_by_video):
    """All-points interpolated AP of TP flags in confidence order, for a
    class with ground truth (map_at skips the others)."""
    npos = sum(len(v) for v in gt_by_video.values())
    if not flags.size:
        return 0.0
    tp = np.cumsum(flags, dtype=np.float64)
    fp = np.cumsum(~flags, dtype=np.float64)
    recall = tp / npos
    precision = tp / (tp + fp)
    # precision envelope over recall, integrated at recall change points
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(
        np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


@dataclass
class EvalReport:
    ap: dict = field(default_factory=dict)       # (iou, cls) -> AP
    map: dict = field(default_factory=dict)      # iou -> mean AP
    avg_map: float = 0.0                         # mean over 0.5:0.05:0.95
    kl: dict = field(default_factory=dict)       # variant -> KL value

    def to_json(self):
        payload = {
            "map": {f"{t:g}": self.map[t] for t in sorted(self.map)},
            "avg_map": self.avg_map,
            "kl": {k: self.kl[k] for k in sorted(self.kl)},
            "ap": {f"{t:g}/{c}": v for (t, c), v in sorted(self.ap.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write_csv(self, path):
        classes = sorted({c for _, c in self.ap})
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iou"] + [f"ap_class_{c}" for c in classes] + ["map"])
            for t in sorted(self.map):
                row = [repr(t)]
                row += [repr(self.ap[(t, c)]) if (t, c) in self.ap else ""
                        for c in classes]
                row.append(repr(self.map[t]))
                w.writerow(row)
            w.writerow(["avg_map", repr(self.avg_map)])
            for name in sorted(self.kl):
                w.writerow([f"kl_{name}", repr(self.kl[name])])


def map_at(dets, video_ids, gt_by_class, iou_list):
    """EvalReport over the requested thresholds plus the averaged range.

    dets.video indexes video_ids. Classes appear in the means only when
    they have ground truth; a class with gt but no detections
    contributes AP 0.
    """
    classes = sorted(c for c, g in gt_by_class.items()
                     if sum(len(v) for v in g.values()) > 0)
    if not classes:
        raise DomainError("no ground truth in any class")
    thresholds = sorted(set(iou_list) | set(AVG_MAP_RANGE))
    aps = {}
    for c in classes:
        # one sort and one IoU row per detection serve every threshold
        gt = gt_by_class[c]
        ranked = _ranked(dets.take(dets.cls == c), video_ids, gt)
        aps.update({(t, c): _ap(_flags(ranked, t), gt) for t in thresholds})
    per_thr = {t: float(np.mean([aps[(t, c)] for c in classes]))
               for t in thresholds}
    return EvalReport(
        ap={(t, c): aps[(t, c)] for t in thresholds for c in classes},
        map={t: per_thr[t] for t in sorted(set(iou_list))},
        avg_map=float(np.mean([per_thr[t] for t in AVG_MAP_RANGE])))


def kl_guidance(motionness, gt_mask):
    """KL(gt || guidance) after smoothing both to distributions over T."""
    m = np.asarray(motionness, dtype=np.float64).reshape(-1)
    g = np.asarray(gt_mask, dtype=np.float64).reshape(-1)
    if m.shape != g.shape or m.size < 1:
        raise DomainError(f"length mismatch: {m.shape} vs {g.shape}")
    if g.sum() <= 0:
        raise DomainError("gt_mask needs at least one positive snippet")
    p = (g + KL_EPS) / (g + KL_EPS).sum()
    q = (m + KL_EPS) / (m + KL_EPS).sum()
    return float((p * np.log(p / q)).sum())
