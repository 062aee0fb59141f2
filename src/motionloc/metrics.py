"""Detection evaluation (AP / mAP over IoU thresholds) and the KL diagnostic.

Detections are (video_id, Proposal) pairs pooled per class over the whole
corpus; ground truth is a per-video list of inclusive segments. Matching
is greedy in confidence order against the highest-IoU unmatched ground
truth, and AP integrates the precision-recall curve with all-points
interpolation.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .localization import iou
from .numcore import DomainError

KL_EPS = 1e-8
AVG_MAP_RANGE = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))  # 0.5 .. 0.95


def _match_detections(dets, gt_by_video, iou_threshold):
    """TP/FP flags in confidence order; each gt consumed at most once."""
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
    """All-points interpolated AP for one class.

    dets: iterable of (video_id, Proposal); gt_by_video: video_id -> list
    of inclusive segments. Classes without ground truth have no defined
    AP (the caller excludes them from the mean).
    """
    npos = sum(len(v) for v in gt_by_video.values())
    if npos == 0:
        raise DomainError("average_precision needs at least one gt instance")
    flags = _match_detections(dets, gt_by_video, iou_threshold)
    if not flags:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
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


def map_at(dets_by_class, gt_by_class, iou_list):
    """EvalReport over the requested thresholds plus the averaged range.

    Classes appear in the means only when they have ground truth; a class
    with gt but no detections contributes AP 0.
    """
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
