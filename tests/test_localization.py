import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motionloc import localization as loc
from motionloc.localization import Detections, InferenceConfig


def _iou(a, b):
    return loc.segment_iou(a[0], a[1], b[0], b[1])


def _dets(rows):
    """Detections from (start, end, cls, confidence) rows of video 0."""
    s, e, c, conf = zip(*rows) if rows else ((),) * 4
    return Detections([0] * len(rows), c, s, e, conf)


def _rows(dets):
    return list(zip(dets.start.tolist(), dets.end.tolist(), dets.cls.tolist(),
                    dets.confidence.tolist()))


def _propose(scores, thetas, cls=0):
    return loc.generate_proposals(np.asarray(scores)[None], thetas, [0], [cls])


def test_iou_hand_cases():
    assert _iou((0, 9), (5, 14)) == pytest.approx(5 / 15)
    assert _iou((3, 7), (3, 7)) == 1.0
    assert _iou((0, 4), (5, 9)) == 0.0
    assert _iou((0, 0), (0, 0)) == 1.0
    # n x m: every pair, rows in the order of the first argument
    a = np.array([(0, 9), (20, 24)])
    b = np.array([(5, 14), (0, 9), (30, 31)])
    np.testing.assert_array_equal(
        loc.segment_iou(a[:, :1], a[:, 1:], b[:, 0], b[:, 1]),
        [[5 / 15, 1.0, 0.0], [0.0, 0.0, 0.0]])
    empty = np.zeros((0, 1), dtype=int)
    assert loc.segment_iou(empty, empty, b[:1, 0], b[:1, 1]).shape == (0, 1)


def _classes(tcas, theta_c):
    dets = loc.localize_video(tcas[None], r=8, cfg=InferenceConfig(theta_c=theta_c))
    return sorted(set(dets.cls.tolist()))


def test_classify_dominant_and_fallback():
    T, C = 8, 5
    ramp = np.arange(T, dtype=float)[:, None]   # every column has proposals
    tcas = np.zeros((T, C)) + ramp
    tcas[:, 2] += 5.0
    assert _classes(tcas, 0.2) == [2]
    # uniform scores: p = 0.2 each, not > 0.2, argmax falls back to class 0
    assert _classes(np.ones((T, C)) + ramp, 0.2) == [0]
    # degenerate threshold admits everything
    assert _classes(np.ones((T, C)) + ramp, 0.0) == [0, 1, 2, 3, 4]


def test_run_detection_hand_case():
    scores = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    props = _propose(scores, [0.5], cls=3)
    assert list(zip(props.start.tolist(), props.end.tolist())) == [(1, 2), (5, 5)]
    assert props.cls.tolist() == [3, 3]
    assert props.confidence.tolist() == [1.0, 1.0]


def test_all_below_threshold_is_empty():
    # a normalized column peaks at exactly 1.0 and the sweep is strict
    assert len(_propose(np.array([0.1, 0.2, 0.15]), [1.0])) == 0
    # constant column normalizes to zero everywhere: nothing clears any theta
    assert len(_propose(np.full(6, 3.3), [0.0, 0.1])) == 0


def _runs_loop(mask):
    """Reference runs of True entries, found one step at a time."""
    out = []
    start = None
    for t, on in enumerate(mask):
        if on and start is None:
            start = t
        elif not on and start is not None:
            out.append((start, t - 1))
            start = None
    if start is not None:
        out.append((start, len(mask) - 1))
    return out


def test_runs_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        T = int(rng.integers(1, 70))
        masks = rng.random((int(rng.integers(1, 5)), T)) < rng.random()
        # every row's runs, rows in order; a 1-D mask is one row
        want = [run for mask in masks for run in _runs_loop(mask)]
        rows, starts, ends = loc._runs(masks)
        assert list(zip(starts.tolist(), ends.tolist())) == want
        assert rows.tolist() == [i for i, mask in enumerate(masks)
                                 for _ in _runs_loop(mask)]
        _, starts, ends = loc._runs(masks[0])
        assert list(zip(starts.tolist(), ends.tolist())) == _runs_loop(masks[0])


def test_threshold_nesting_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.random(30)
        lo = _rows(_propose(scores, [0.3]))
        hi = _rows(_propose(scores, [0.7]))
        for h in hi:
            assert any(l[0] <= h[0] and h[1] <= l[1] for l in lo)


def test_affine_transform_keeps_segments():
    rng = np.random.default_rng(1)
    scores = rng.random(40) * 5
    grid = [0.1, 0.4, 0.8]
    base = _propose(scores, grid)
    moved = _propose(2.5 * scores + 7.0, grid)
    assert base.start.tolist() == moved.start.tolist()
    assert base.end.tolist() == moved.end.tolist()


def test_proposal_bounds_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(1, 40))
        scores = rng.standard_normal(T)
        props = _propose(scores, [0.0, 0.25, 0.5], cls=1)
        assert np.all((0 <= props.start) & (props.start <= props.end)
                      & (props.end < T))


def test_nms_duplicates_and_disjoint():
    a = (0, 5, 0, 0.9)
    b = (0, 5, 0, 0.8)
    assert _rows(loc.nms(_dets([a, b]), 0.7)) == [a]
    c = (10, 15, 0, 0.5)
    assert set(_rows(loc.nms(_dets([a, c]), 0.7))) == {a, c}
    # another class or another video never suppresses
    d = (0, 5, 1, 0.5)
    assert set(_rows(loc.nms(_dets([a, d]), 0.7))) == {a, d}
    two = Detections([0, 1], [0, 0], [0, 0], [5, 5], [0.9, 0.8])
    assert loc.nms(two, 0.7).video.tolist() == [0, 1]


def test_nms_tie_keeps_earlier_start():
    a = (4, 9, 0, 0.5)
    b = (2, 7, 0, 0.5)  # same confidence, earlier start, IoU 0.5
    kept = loc.nms(_dets([a, b]), 0.3)
    assert _rows(kept) == [b]


def test_nms_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(0, 11))
        props = []
        for _ in range(n):
            s = int(rng.integers(0, 30))
            e = s + int(rng.integers(0, 12))
            props.append((s, e, 0, round(float(rng.random()), 2)))
        thr = float(rng.uniform(0.2, 0.9))
        kept = _rows(loc.nms(_dets(props), thr))
        order = sorted(props, key=lambda p: (-p[3], p[0], p[1], p[2]))
        rank = {p: i for i, p in enumerate(order)}
        kept_set = set(kept)
        # antichain: no kept pair in conflict
        for i, p in enumerate(kept):
            for q in kept[i + 1:]:
                assert _iou(p[:2], q[:2]) <= thr
        # every suppressed proposal conflicts with an earlier-ranked kept one
        for p in props:
            if p not in kept_set:
                assert any(_iou(p[:2], q[:2]) > thr
                           and rank[q] < rank[p] for q in kept)
        # determinism under the tie rule
        assert _rows(loc.nms(_dets(props[::-1]), thr)) == kept


def test_localize_video_end_to_end():
    T, C = 16, 3
    tcas = np.zeros((T, C))
    tcas[2:6, 1] = 4.0
    tcas[10:12, 1] = 3.0
    props = _rows(loc.localize_video(tcas[None], r=8, cfg=InferenceConfig()))
    assert props
    assert all(p[2] == 1 for p in props)
    assert any(p[:2] == (2, 5) for p in props)
    # deterministic ordering by (cls, start, end)
    assert props == sorted(props, key=lambda p: (p[2], p[0], p[1]))
    # a stack of videos: each video's detections, in video order
    stack = np.stack([tcas, tcas[::-1], tcas])
    dets = loc.localize_video(stack, r=8, cfg=InferenceConfig())
    for v in range(3):
        one = loc.localize_video(stack[v:v + 1], r=8, cfg=InferenceConfig())
        assert _rows(dets.take(dets.video == v)) == _rows(one)
    assert dets.video.tolist() == sorted(dets.video.tolist())


def test_inference_config_validation():
    assert InferenceConfig().theta_a_list == loc.DEFAULT_THETA_A
    assert len(loc.DEFAULT_THETA_A) == 11
    assert loc.DEFAULT_THETA_A[0] == 0.0 and loc.DEFAULT_THETA_A[-1] == 0.25
    for bad in ({"theta_c": 1.5}, {"theta_a_list": ()},
                {"theta_a_list": (0.2, 0.1)}, {"theta_a_list": (0.1, 0.1)},
                {"nms_iou": -0.2}):
        with pytest.raises(ValueError):
            InferenceConfig(**bad)


# np.unique without indices imports numpy.ma (numpy 2.4): about 1.2 MB of
# RSS in each process that localizes, such as an ablation's parent
_SCORE_TWO_VIDEOS = """
import sys
import numpy as np
from motionloc.localization import InferenceConfig, localize_video
from motionloc.metrics import map_at
tcas = np.zeros((2, 16, 3))
tcas[0, 2:6, 1] = 4.0
tcas[1, 9:14, 2] = 3.0
dets = localize_video(tcas, 8, InferenceConfig())
assert map_at(dets, [[(2, 5, 1)], [(9, 13, 2)]], (0.5,)).map[0.5] == 1.0
print("numpy.ma" in sys.modules)
"""


def test_localizing_and_scoring_leave_numpy_ma_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _SCORE_TWO_VIDEOS],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
