"""The array evaluation path against the loops it replaced (evaloracle).

Every comparison is exact: the same detections in the same order with
the same confidence bits, the same kept sets, the same TP flags, and
the same report.json text. The array code sweeps, suppresses and
matches many (video, class) pairs in one call; the oracle takes them
one at a time.
"""

import dataclasses

import numpy as np
import pytest

import evaloracle as old
from motionloc import localization as loc
from motionloc import metrics, runner
from motionloc.datagen import CorpusSpec, generate_corpus
from motionloc.localization import DEFAULT_THETA_A, Detections, InferenceConfig
from motionloc.network import init_params


def _exact(dets):
    """Detections as (video, cls, start, end, confidence bits) rows."""
    return list(zip(dets.video.tolist(), dets.cls.tolist(), dets.start.tolist(),
                    dets.end.tolist(), [c.hex() for c in dets.confidence.tolist()]))


def _exact_props(video, props):
    return [(video, p.cls, p.start, p.end, p.confidence.hex()) for p in props]


def _score_column(rng, T):
    kind = rng.integers(4)
    if kind == 0:                      # distinct values
        return rng.random(T) * 10.0 ** rng.uniform(-3, 3)
    if kind == 1:                      # a few levels: ties and plateaus
        return rng.integers(0, 4, T) / 4.0
    if kind == 2:                      # constant: normalizes to zero
        return np.full(T, rng.random())
    # smooth bumps, long runs, nested across thresholds
    return np.convolve(rng.random(T + 15), np.ones(16) / 16, "valid") + 5.0


def _theta_list(rng):
    if rng.random() < 0.5:
        return DEFAULT_THETA_A
    grid = [0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 1.0]
    picked = rng.choice(len(grid), size=int(rng.integers(1, 6)), replace=False)
    return tuple(grid[i] for i in sorted(picked))


def test_proposals_match_oracle():
    """One P x T block against one oracle call per column; columns belong
    to arbitrary (video, cls) pairs and keep their block order."""
    rng = np.random.default_rng(90)
    repeated = 0
    for _ in range(300):
        T = int(rng.integers(1, 300))
        P = int(rng.integers(1, 6))
        block = np.stack([_score_column(rng, T) for _ in range(P)])
        thetas = _theta_list(rng)
        video = rng.integers(0, 4, P)
        cls = rng.integers(0, 5, P)
        got = loc.generate_proposals(block, thetas, video, cls)
        want = [row for p in range(P) for row in _exact_props(
            int(video[p]), old.generate_proposals(block[p], thetas, int(cls[p])))]
        assert _exact(got) == want
        assert len(got) == len(want)
        for column in block:
            lo, hi = column.min(), column.max()
            if hi > lo:
                norm = (column - lo) / (hi - lo)
                found = sum(len(old.runs(norm > t)) for t in thetas)
                repeated += found > len(old.generate_proposals(column, thetas, 0))
    assert repeated > 100  # segments found at several thresholds were merged


def _random_detections(rng, n):
    """Segments over a few videos and classes; repeats and tied
    confidences are common."""
    pool = []
    for _ in range(n):
        if pool and rng.random() < 0.2:           # the same segment again
            v, c, s, e, _ = pool[rng.integers(len(pool))]
        else:
            v, c = int(rng.integers(3)), int(rng.integers(3))
            s = int(rng.integers(0, 30))
            e = s + int(rng.integers(0, 12))
        pool.append((v, c, s, e, round(float(rng.random()), 1)))
    return pool


def _dets(rows):
    return Detections(*(zip(*rows) if rows else ((),) * 5))


def test_nms_matches_oracle():
    """One call over many (video, cls) pairs against one oracle call per
    pair; suppression never crosses a pair."""
    rng = np.random.default_rng(91)
    thresholds = [0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.7, 1.0]
    crossed = 0
    for _ in range(600):
        rows = _random_detections(rng, int(rng.integers(0, 60)))
        thr = thresholds[rng.integers(len(thresholds))] if rng.random() < 0.7 \
            else float(rng.random())
        want = []
        for v, c in sorted({(v, c) for v, c, *_ in rows}):
            props = [old.Proposal(s, e, c, conf)
                     for rv, rc, s, e, conf in rows if (rv, rc) == (v, c)]
            want += _exact_props(v, old.nms(props, thr))
        got = loc.nms(_dets(rows), thr)
        assert _exact(got) == want
        assert _exact(loc.nms(_dets(rows[::-1]), thr)) == want
        pooled = old.nms([old.Proposal(s, e, 0, conf) for _, _, s, e, conf in rows], thr)
        crossed += len(pooled) < len(want)
    assert crossed > 50  # one pooled NMS would have suppressed across pairs


def _stack(rng, N, T, C):
    """N videos of T x C scores; some columns and whole videos constant."""
    stack = np.stack([np.stack([_score_column(rng, T) for _ in range(C)], axis=1)
                      for _ in range(N)])
    for v in range(N):
        if rng.random() < 0.2:
            stack[v] = rng.random()    # uniform scores: argmax fallback, no runs
    return stack


def test_localize_stack_matches_per_video_oracle():
    rng = np.random.default_rng(93)
    silent = 0
    for _ in range(60):
        N, T, C = int(rng.integers(1, 7)), int(rng.integers(1, 120)), 5
        stack = _stack(rng, N, T, C)
        cfg = InferenceConfig(theta_c=float(rng.choice([0.0, 0.2, 0.5])),
                              theta_a_list=_theta_list(rng),
                              nms_iou=float(rng.choice([0.3, 0.7, 1.0])))
        r = int(rng.integers(1, 9))
        got = loc.localize_video(stack, r, cfg)
        want = []
        for v in range(N):
            props = old.localize_video(stack[v], r, cfg)
            want += _exact_props(v, props)
            silent += not props
        assert _exact(got) == want
    assert silent > 10  # videos whose chosen columns are constant


def _random_ground_truth(rng, ids, classes):
    """Per class, per video id: equal-length intervals on a grid, so a
    detection often overlaps two of them equally; some ids have none."""
    gt = {}
    for c in classes:
        per_video = {}
        for vid in ids:
            if rng.random() < 0.3:
                continue
            length = int(rng.integers(3, 8))
            starts = sorted(rng.choice(np.arange(0, 40, length),
                                       size=int(rng.integers(1, 4)),
                                       replace=False).tolist())
            per_video[vid] = [(s, s + length - 1) for s in starts]
        gt[c] = per_video
    return gt


def _random_matching_input(rng, video_ids, classes):
    """Ground truth keyed by id, and detections as rows (video index, cls,
    s, e, conf) in video-index order, as evaluation produces them."""
    gt = _random_ground_truth(rng, sorted(set(video_ids)), classes)
    rows = []
    for c in classes:
        if rng.random() < 0.15:
            continue                   # a class nothing was detected for
        for _ in range(int(rng.integers(0, 30))):
            v = int(rng.integers(len(video_ids)))
            segs = gt[c].get(video_ids[v], [])
            if segs and rng.random() < 0.7:
                s, e = segs[rng.integers(len(segs))]
                s += int(rng.integers(-3, 4))
                e += int(rng.integers(-3, 4))
                s, e = max(0, min(s, e)), max(0, s, e)
            else:
                s = int(rng.integers(0, 40))
                e = s + int(rng.integers(0, 10))
            rows.append((v, c, s, e, round(float(rng.random()), 1)))
    rows.sort(key=lambda row: row[0])
    return gt, rows


def _oracle_dets(rows, video_ids):
    out = {}
    for v, c, s, e, conf in rows:
        out.setdefault(c, []).append((video_ids[v], old.Proposal(s, e, c, conf)))
    return out


# list order differs from string order ("v10" < "v9"), and some ids repeat:
# videos that share an id share its ground truth
ID_LISTS = {
    "distinct": ["a0", "a1", "a2", "a3", "a4", "a5"],
    "unsorted": ["v9", "v10", "b", "v1", "a", "v100"],
    "duplicate": ["v9", "v10", "v9", "a", "v10", "v9"],
}


def _check_matching(video_ids, seed):
    rng = np.random.default_rng(seed)
    classes = [0, 1, 2, 3]
    checked = empty_classes = 0
    for _ in range(200):
        gt, rows = _random_matching_input(rng, video_ids, classes)
        dets, want_dets = _dets(rows), _oracle_dets(rows, video_ids)
        for c in classes:
            if not any(gt[c].values()):
                continue
            mine = dets.take(dets.cls == c)
            empty_classes += not len(mine)
            ranked = metrics._ranked(mine, video_ids, gt[c])
            thresholds = (0.1, 0.3, 0.5, 0.7, 0.95)
            aps = metrics.map_at(mine, video_ids, {c: gt[c]}, thresholds).ap
            for t in thresholds:
                assert metrics._flags(ranked, t).tolist() == old.match_detections(
                    want_dets.get(c, []), gt[c], t)
                got = aps[(t, c)]
                want = old.average_precision(want_dets.get(c, []), gt[c], t)
                assert got.hex() == want.hex()
                checked += 1
        if not any(any(g.values()) for g in gt.values()):
            continue
        got = metrics.map_at(dets, video_ids, gt, [0.3, 0.5, 0.7])
        want = old.map_at(want_dets, gt, [0.3, 0.5, 0.7])
        assert list(got.ap.items()) == list(want.ap.items())
        assert got.to_json() == want.to_json()
    assert checked > 2000
    assert empty_classes > 20  # classes with gt and no detections score AP 0


def test_matching_and_map_match_oracle():
    _check_matching(ID_LISTS["distinct"], 92)


@pytest.mark.parametrize("ids", ["unsorted", "duplicate"])
def test_matching_with_unsorted_and_shared_ids(ids):
    _check_matching(ID_LISTS[ids], 94)


def _videos(ids):
    """One T=80 corpus of 19 videos: runs of 6 (480 snippets) end off a
    divisor of 512, and the last run holds one. Ids are distinct, out of
    string order, or shared between videos."""
    videos, _ = generate_corpus(CorpusSpec(n_train=19, n_test=1, T=80, seed=3))
    if ids == "unsorted":
        return [dataclasses.replace(v, id=f"v{(7 * i) % 19}")
                for i, v in enumerate(videos)]
    if ids == "duplicate":
        return [dataclasses.replace(v, id=f"v{i % 5}")
                for i, v in enumerate(videos)]
    return videos


def _check_run_evaluation(mode, ids, monkeypatch):
    cfg = runner.config_from_dict({"graph": {"mode": mode}})
    videos = _videos(ids)
    params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, seed=5)
    want = old.run_evaluation(cfg, params, videos).to_json()
    assert runner.run_evaluation(cfg, params, videos).to_json() == want
    # one video per run instead of up to eight
    monkeypatch.setattr(runner, "TAPE_SNIPPETS", 1)
    assert runner.run_evaluation(cfg, params, videos).to_json() == want


@pytest.mark.parametrize("mode", ["sparse", "dense", "mlp"])
def test_run_evaluation_matches_per_video_oracle(mode, monkeypatch):
    _check_run_evaluation(mode, "distinct", monkeypatch)


@pytest.mark.parametrize("ids", ["unsorted", "duplicate"])
def test_run_evaluation_with_unsorted_and_shared_ids(ids, monkeypatch):
    _check_run_evaluation("sparse", ids, monkeypatch)
