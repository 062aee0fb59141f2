import json
import math
from fractions import Fraction

import numpy as np
import pytest

from motionloc import metrics
from motionloc.localization import Detections
from motionloc.numcore import DomainError


def _p(s, e, conf, cls=0):
    return (s, e, cls, conf)


def _dets(pairs):
    """Detections and their video id list from (video_id, (s, e, cls, conf))
    pairs; ids are numbered in order of first appearance."""
    ids = list(dict.fromkeys(vid for vid, _ in pairs))
    rows = [(ids.index(vid), c, s, e, conf) for vid, (s, e, c, conf) in pairs]
    return Detections(*(zip(*rows) if rows else ((),) * 5)), ids


def _ap(pairs, gt, thr):
    dets, ids = _dets(pairs)
    return metrics.map_at(dets, ids, {0: gt}, [thr]).ap[(thr, 0)]


def _map(dets_by_class, gt, iou_list):
    dets, ids = _dets([pair for c in sorted(dets_by_class)
                       for pair in dets_by_class[c]])
    return metrics.map_at(dets, ids, gt, iou_list)


def test_ap_perfect_detections():
    gt = {"v1": [(0, 4), (10, 14)], "v2": [(3, 6)]}
    dets = [("v1", _p(0, 4, 0.9)), ("v1", _p(10, 14, 0.8)),
            ("v2", _p(3, 6, 0.7))]
    assert _ap(dets, gt, 0.5) == 1.0


def test_ap_zero_detections():
    assert _ap([], {"v": [(0, 3)]}, 0.5) == 0.0


def test_ap_requires_ground_truth():
    with pytest.raises(DomainError):
        _ap([("v", _p(0, 3, 0.5))], {"v": []}, 0.5)


def test_ap_hand_case_half():
    """High-confidence miss then low-confidence hit: PR (0,0), (1, 0.5) -> 0.5."""
    gt = {"v": [(10, 19)]}
    dets = [("v", _p(0, 4, 0.9)), ("v", _p(10, 19, 0.1))]
    assert _ap(dets, gt, 0.5) == pytest.approx(0.5)


def _oracle_ap(dets, gt_by_video, thr):
    """Exact-rational AP; matching found by enumerating assignments.

    Every injective detection-to-gt assignment is generated; the one kept
    is the unique assignment consistent with the greedy rule (each
    detection, in confidence order, takes the highest-IoU unmatched gt
    above the threshold, or nothing when none qualifies).
    """
    import itertools

    def fiou(a, b):
        inter = min(a[1], b[1]) + 1 - max(a[0], b[0])
        if inter <= 0:
            return Fraction(0)
        return Fraction(inter, (a[1] + 1 - a[0]) + (b[1] + 1 - b[0]) - inter)

    thr = Fraction(thr).limit_denominator(10**6)
    order = sorted(dets, key=lambda d: (-d[1][3], d[0], d[1][0], d[1][1]))
    gt_keys = [(vid, g) for vid, segs in gt_by_video.items()
               for g in range(len(segs))]
    npos = len(gt_keys)
    choices = [gt_keys + [None]] * len(order)
    consistent = None
    for assign in itertools.product(*choices):
        taken = [a for a in assign if a is not None]
        if len(set(taken)) != len(taken):
            continue
        ok = True
        matched = set()
        for (vid, prop), a in zip(order, assign):
            avail = [(v, g) for (v, g) in gt_keys
                     if v == vid and (v, g) not in matched]
            scored = [((v, g), fiou(prop[:2], gt_by_video[v][g]))
                      for (v, g) in avail]
            qualifying = [(key, s) for key, s in scored if s > thr]
            if not qualifying:
                if a is not None:
                    ok = False
                    break
                continue
            best = max(qualifying, key=lambda ks: ks[1])
            if a != best[0]:
                ok = False
                break
            matched.add(a)
        if ok:
            assert consistent is None, "greedy assignment must be unique"
            consistent = assign
    flags = [a is not None for a in consistent]
    # all-points interpolation with exact arithmetic
    pts = []
    tp = fp = 0
    for f in flags:
        tp, fp = tp + f, fp + (not f)
        pts.append((Fraction(tp, npos), Fraction(tp, tp + fp)))
    ap = Fraction(0)
    prev_r = Fraction(0)
    for i, (r, _) in enumerate(pts):
        if r != prev_r:
            envelope = max(p for rr, p in pts[i:])
            ap += (r - prev_r) * envelope
            prev_r = r
    return ap


def test_ap_matches_exhaustive_oracle():
    gt = {"v1": [(0, 4), (10, 14)], "v2": [(2, 6)]}
    dets = [("v1", _p(0, 4, 0.9)), ("v2", _p(3, 7, 0.8)),
            ("v1", _p(11, 12, 0.7))]
    got = _ap(dets, gt, 0.5)
    want = _oracle_ap(dets, gt, 0.5)
    assert want == Fraction(2, 3)  # hand-derived for this scenario
    assert got == pytest.approx(float(want), abs=1e-12)
    # a second threshold flips the middle detection to FP
    got = _ap(dets, gt, 0.75)
    want = _oracle_ap(dets, gt, 0.75)
    assert got == pytest.approx(float(want), abs=1e-12)


def test_ap_random_against_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        gt = {"v1": [(0, 4)], "v2": [(5, 11), (20, 24)]}
        dets = []
        for _ in range(int(rng.integers(1, 5))):
            vid = "v1" if rng.random() < 0.5 else "v2"
            s = int(rng.integers(0, 22))
            e = s + int(rng.integers(0, 8))
            dets.append((vid, _p(s, e, round(float(rng.random()), 3))))
        thr = float(rng.choice([0.3, 0.5, 0.7]))
        got = _ap(dets, gt, thr)
        want = float(_oracle_ap(dets, gt, thr))
        assert got == pytest.approx(want, abs=1e-12)


def _ap_from_flags(flags, npos):
    """Reference AP from TP/FP flags, the precision envelope taken by a
    backward loop."""
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    mrec = np.concatenate([[0.0], tp / npos, [1.0]])
    mpre = np.concatenate([[0.0], tp / (tp + fp), [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def test_ap_envelope_matches_loop_oracle():
    """Random TP/FP sequences: a TP repeats the next unused gt segment, an
    FP lies past all of them, confidences fall in list order."""
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        flags = [bool(f) for f in rng.random(n) < rng.random()]
        npos = sum(flags) + int(rng.integers(0 if any(flags) else 1, 5))
        gt = {"v": [(10 * k, 10 * k + 4) for k in range(npos)]}
        dets, k = [], 0
        for i, f in enumerate(flags):
            s = 10 * k if f else 10 * (npos + i)
            k += f
            dets.append(("v", _p(s, s + 4, 1.0 - i / 64)))
        ranked = metrics._ranked(*_dets(dets), gt)
        assert metrics._flags(ranked, 0.5).tolist() == flags
        assert (_ap(dets, gt, 0.5)
                == _ap_from_flags(flags, npos))


def test_ap_confidence_transform_invariance():
    gt = {"v": [(0, 4), (8, 12), (20, 27)]}
    dets = [("v", _p(0, 3, 0.2)), ("v", _p(9, 12, 0.5)),
            ("v", _p(15, 18, 0.8)), ("v", _p(21, 27, 0.4))]
    base = _ap(dets, gt, 0.5)
    warped = [(v, (s, e, c, math.exp(3 * conf))) for v, (s, e, c, conf) in dets]
    assert _ap(warped, gt, 0.5) == pytest.approx(base)


def test_map_monotone_in_iou_threshold():
    rng = np.random.default_rng(1)
    for _ in range(20):
        gt = {0: {"v": [(0, 9), (20, 29)]}, 1: {"v": [(12, 17)]}}
        dets = {c: [("v", _p(int(s), int(s + rng.integers(1, 12)),
                             float(rng.random()), c))
                    for s in rng.integers(0, 30, size=6)] for c in (0, 1)}
        report = _map(dets, gt, iou_list=[0.1, 0.3, 0.5, 0.7, 0.9])
        vals = [report.map[t] for t in sorted(report.map)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_map_single_class_and_exclusion():
    gt = {0: {"v": [(0, 4)]}, 1: {"v": []}}  # class 1 has no gt anywhere
    dets = {0: [("v", _p(0, 4, 0.9))], 1: [("v", _p(7, 9, 0.8, 1))]}
    report = _map(dets, gt, iou_list=[0.5])
    assert report.map[0.5] == 1.0  # class 1 excluded, not averaged as 0
    assert (0.5, 1) not in report.ap
    thumos = [round(0.1 * i, 1) for i in range(1, 10)]
    report = _map(dets, gt, iou_list=thumos)
    assert sorted(report.map) == thumos
    assert report.avg_map == pytest.approx(
        np.mean([report.ap[(t, 0)] for t in metrics.AVG_MAP_RANGE]))


def test_kl_matched_and_half_uniform():
    gt = np.zeros(32)
    gt[:16] = 1.0
    prop = gt * 0.8
    assert metrics.kl_guidance(prop, gt) == pytest.approx(0.0, abs=1e-5)
    uniform = np.full(32, 0.5)
    assert metrics.kl_guidance(uniform, gt) == pytest.approx(math.log(2), abs=1e-5)


def test_kl_properties():
    rng = np.random.default_rng(2)
    gt = (rng.random(40) < 0.4).astype(float)
    gt[0] = 1.0
    for _ in range(20):
        m = rng.random(40)
        assert metrics.kl_guidance(m, gt) >= 0.0
    assert metrics.kl_guidance(gt.copy(), gt) < 1e-9
    with pytest.raises(DomainError):
        metrics.kl_guidance(np.ones(8), np.zeros(8))
    with pytest.raises(DomainError):
        metrics.kl_guidance(np.ones(8), np.ones(9))


def test_report_serialization(tmp_path):
    gt = {0: {"v": [(0, 4)]}}
    dets = {0: [("v", _p(0, 4, 0.9))]}
    report = _map(dets, gt, iou_list=[0.5])
    report.kl["motion"] = 0.0123
    blob = report.to_json()
    parsed = json.loads(blob)
    assert parsed["map"]["0.5"] == 1.0
    assert parsed["kl"]["motion"] == 0.0123
    out = tmp_path / "report.csv"
    report.write_csv(out)
    text = out.read_text()
    assert "avg_map" in text and "kl_motion" in text
    # byte-determinism of both emissions
    report2 = _map(dets, gt, iou_list=[0.5])
    report2.kl["motion"] = 0.0123
    assert report2.to_json() == blob
    report2.write_csv(tmp_path / "report2.csv")
    assert (tmp_path / "report2.csv").read_bytes() == out.read_bytes()
