import numpy as np
import pytest

from motionloc import localization as loc
from motionloc.localization import InferenceConfig, Proposal


def _iou(a, b):
    return loc.segment_iou([a], [b])[0, 0]


def test_iou_hand_cases():
    assert _iou((0, 9), (5, 14)) == pytest.approx(5 / 15)
    assert _iou((3, 7), (3, 7)) == 1.0
    assert _iou((0, 4), (5, 9)) == 0.0
    assert _iou((0, 0), (0, 0)) == 1.0
    # n x m: every pair, rows in the order of the first argument
    np.testing.assert_array_equal(
        loc.segment_iou([(0, 9), (20, 24)], [(5, 14), (0, 9), (30, 31)]),
        [[5 / 15, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert loc.segment_iou([], [(0, 1)]).shape == (0, 1)


def test_classify_dominant_and_fallback():
    T, C = 8, 5
    tcas = np.zeros((T, C))
    tcas[:, 2] = 5.0
    assert loc.classify_video(tcas, r=8, theta_c=0.2) == [2]
    # uniform scores: p = 0.2 each, not > 0.2, argmax falls back to class 0
    assert loc.classify_video(np.ones((T, C)), r=8, theta_c=0.2) == [0]
    # degenerate threshold admits everything
    assert loc.classify_video(np.ones((T, C)), r=8, theta_c=0.0) == [0, 1, 2, 3, 4]


def test_run_detection_hand_case():
    scores = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    props = loc.generate_proposals(scores, [0.5], cls=3)
    assert [(p.start, p.end) for p in props] == [(1, 2), (5, 5)]
    assert all(p.cls == 3 for p in props)
    assert all(p.confidence == pytest.approx(1.0) for p in props)


def test_all_below_threshold_is_empty():
    # a normalized column peaks at exactly 1.0 and the sweep is strict
    props = loc.generate_proposals(np.array([0.1, 0.2, 0.15]), [1.0], cls=0)
    assert props == []
    # constant column normalizes to zero everywhere: nothing clears any theta
    assert loc.generate_proposals(np.full(6, 3.3), [0.0, 0.1], cls=0) == []


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
        starts, ends = loc._runs(masks)
        assert list(zip(starts.tolist(), ends.tolist())) == want
        starts, ends = loc._runs(masks[0])
        assert list(zip(starts.tolist(), ends.tolist())) == _runs_loop(masks[0])


def test_threshold_nesting_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.random(30)
        lo = loc.generate_proposals(scores, [0.3], cls=0)
        hi = loc.generate_proposals(scores, [0.7], cls=0)
        for h in hi:
            assert any(l.start <= h.start and h.end <= l.end for l in lo)


def test_affine_transform_keeps_segments():
    rng = np.random.default_rng(1)
    scores = rng.random(40) * 5
    grid = [0.1, 0.4, 0.8]
    base = loc.generate_proposals(scores, grid, cls=0)
    moved = loc.generate_proposals(2.5 * scores + 7.0, grid, cls=0)
    assert [(p.start, p.end) for p in base] == [(p.start, p.end) for p in moved]


def test_proposal_bounds_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(1, 40))
        scores = rng.standard_normal(T)
        for p in loc.generate_proposals(scores, [0.0, 0.25, 0.5], cls=1):
            assert 0 <= p.start <= p.end < T


def test_nms_duplicates_and_disjoint():
    a = Proposal(0, 5, 0, 0.9)
    b = Proposal(0, 5, 0, 0.8)
    assert loc.nms([a, b], 0.7) == [a]
    c = Proposal(10, 15, 0, 0.5)
    assert set(loc.nms([a, c], 0.7)) == {a, c}


def test_nms_tie_keeps_earlier_start():
    a = Proposal(4, 9, 0, 0.5)
    b = Proposal(2, 7, 0, 0.5)  # same confidence, earlier start, IoU 0.5
    kept = loc.nms([a, b], 0.3)
    assert kept == [b]


def test_nms_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(0, 11))
        props = []
        for _ in range(n):
            s = int(rng.integers(0, 30))
            e = s + int(rng.integers(0, 12))
            props.append(Proposal(s, e, 0, round(float(rng.random()), 2)))
        thr = float(rng.uniform(0.2, 0.9))
        kept = loc.nms(props, thr)
        order = sorted(props, key=lambda p: (-p.confidence, p.start, p.end, p.cls))
        rank = {p: i for i, p in enumerate(order)}
        kept_set = set(kept)
        # antichain: no kept pair in conflict
        for i, p in enumerate(kept):
            for q in kept[i + 1:]:
                assert _iou(p.segment(), q.segment()) <= thr
        # every suppressed proposal conflicts with an earlier-ranked kept one
        for p in props:
            if p not in kept_set:
                assert any(_iou(p.segment(), q.segment()) > thr
                           and rank[q] < rank[p] for q in kept)
        # determinism under the tie rule
        assert loc.nms(list(reversed(props)), thr) == kept


def test_localize_video_end_to_end():
    T, C = 16, 3
    tcas = np.zeros((T, C))
    tcas[2:6, 1] = 4.0
    tcas[10:12, 1] = 3.0
    props = loc.localize_video(tcas, r=8, cfg=InferenceConfig())
    assert props
    assert all(p.cls == 1 for p in props)
    assert any((p.start, p.end) == (2, 5) for p in props)
    # deterministic ordering by (cls, start, end)
    assert props == sorted(props, key=lambda p: (p.cls, p.start, p.end))


def test_inference_config_validation():
    InferenceConfig().validate()
    assert len(loc.DEFAULT_THETA_A) == 11
    assert loc.DEFAULT_THETA_A[0] == 0.0 and loc.DEFAULT_THETA_A[-1] == 0.25
    for bad in (InferenceConfig(theta_c=1.5),
                InferenceConfig(theta_a_list=()),
                InferenceConfig(theta_a_list=(0.2, 0.1)),
                InferenceConfig(theta_a_list=(0.1, 0.1)),
                InferenceConfig(nms_iou=-0.2)):
        with pytest.raises(ValueError):
            bad.validate()
