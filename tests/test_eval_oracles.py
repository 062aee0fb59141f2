"""The array evaluation path against the loops it replaced (evaloracle).

Every comparison is exact: the same proposals in the same order with
the same confidence bits, the same kept lists, the same TP flags, and
the same report.json text.
"""

import dataclasses

import numpy as np
import pytest

import evaloracle as old
from motionloc import localization as loc
from motionloc import metrics, runner
from motionloc.datagen import CorpusSpec, generate_corpus
from motionloc.localization import DEFAULT_THETA_A, Proposal
from motionloc.network import init_params


def _exact(props):
    """Proposals with their confidences as bit patterns and field types."""
    return [(p.start, p.end, p.cls, p.confidence.hex(),
             type(p.start), type(p.end), type(p.confidence)) for p in props]


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
    rng = np.random.default_rng(90)
    repeated = 0
    for _ in range(600):
        T = int(rng.integers(1, 300))
        scores, thetas = _score_column(rng, T), _theta_list(rng)
        cls = int(rng.integers(5))
        got = loc.generate_proposals(scores, thetas, cls)
        want = old.generate_proposals(scores, thetas, cls)
        assert _exact(got) == _exact(want)
        lo, hi = scores.min(), scores.max()
        if hi > lo:
            norm = (scores - lo) / (hi - lo)
            repeated += sum(len(old.runs(norm > t)) for t in thetas) > len(want)
    assert repeated > 100  # segments found at several thresholds were merged


def _random_proposals(rng, n):
    pool = []
    for _ in range(n):
        if pool and rng.random() < 0.2:           # the same segment again
            s, e, _, _ = pool[rng.integers(len(pool))]
        else:
            s = int(rng.integers(0, 30))
            e = s + int(rng.integers(0, 12))
        conf = round(float(rng.random()), 1)      # ties are common
        pool.append((s, e, int(rng.integers(3)), conf))
    return [Proposal(*p) for p in pool]


def test_nms_matches_oracle():
    rng = np.random.default_rng(91)
    thresholds = [0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.7, 1.0]
    for _ in range(800):
        props = _random_proposals(rng, int(rng.integers(0, 40)))
        thr = thresholds[rng.integers(len(thresholds))] if rng.random() < 0.7 \
            else float(rng.random())
        want = old.nms(props, thr)
        assert loc.nms(props, thr) == want
        assert _exact(loc.nms(props[::-1], thr)) == _exact(old.nms(props[::-1], thr))


def _random_ground_truth(rng, videos, classes):
    """Per class, per video: equal-length intervals on a grid, so a
    detection often overlaps two of them equally; some videos have none."""
    gt = {}
    for c in classes:
        per_video = {}
        for vid in videos:
            if rng.random() < 0.3:
                continue
            length = int(rng.integers(3, 8))
            starts = sorted(rng.choice(np.arange(0, 40, length),
                                       size=int(rng.integers(1, 4)),
                                       replace=False).tolist())
            per_video[vid] = [(s, s + length - 1) for s in starts]
        gt[c] = per_video
    return gt


def _random_detections(rng, gt, videos, classes):
    dets = {}
    for c in classes:
        if rng.random() < 0.15:
            continue                   # a class nothing was detected for
        out = []
        for _ in range(int(rng.integers(0, 30))):
            vid = videos[rng.integers(len(videos))]
            segs = gt[c].get(vid, [])
            if segs and rng.random() < 0.7:
                s, e = segs[rng.integers(len(segs))]
                s += int(rng.integers(-3, 4))
                e += int(rng.integers(-3, 4))
                s, e = max(0, min(s, e)), max(0, s, e)
            else:
                s = int(rng.integers(0, 40))
                e = s + int(rng.integers(0, 10))
            out.append((vid, Proposal(s, e, c, round(float(rng.random()), 1))))
        dets[c] = out
    return dets


def test_matching_and_map_match_oracle():
    rng = np.random.default_rng(92)
    videos = [f"v{i}" for i in range(6)]
    classes = [0, 1, 2, 3]
    checked = 0
    for _ in range(200):
        gt = _random_ground_truth(rng, videos, classes)
        dets = _random_detections(rng, gt, videos, classes)
        for c in classes:
            if not any(gt[c].values()):
                continue
            for t in (0.1, 0.3, 0.5, 0.7, 0.95):
                flags = metrics._flags(metrics._ranked(dets.get(c, []), gt[c]),
                                       gt[c], t)
                assert flags.tolist() == old.match_detections(
                    dets.get(c, []), gt[c], t)
                got = metrics.average_precision(dets.get(c, []), gt[c], t)
                want = old.average_precision(dets.get(c, []), gt[c], t)
                assert got.hex() == want.hex()
                checked += 1
        if not any(any(g.values()) for g in gt.values()):
            continue
        got = metrics.map_at(dets, gt, [0.3, 0.5, 0.7])
        want = old.map_at(dets, gt, [0.3, 0.5, 0.7])
        assert list(got.ap.items()) == list(want.ap.items())
        assert got.to_json() == want.to_json()
    assert checked > 2000


def _mixed_length_videos():
    """Two corpora of different T, interleaved irregularly, with distinct
    ids: runs of equal T end at every length change and at the bound."""
    a, _ = generate_corpus(CorpusSpec(n_train=14, n_test=1, T=80, seed=3))
    b, _ = generate_corpus(CorpusSpec(n_train=5, n_test=1, T=64, seed=4))
    b = [dataclasses.replace(v, id=f"long-{v.id}") for v in b]
    return a[:1] + b[:2] + a[1:12] + b[2:3] + a[12:] + b[3:]


@pytest.mark.parametrize("mode", ["sparse", "dense", "mlp"])
def test_run_evaluation_matches_per_video_oracle(mode, monkeypatch):
    cfg = runner.config_from_dict({"graph": {"mode": mode}})
    videos = _mixed_length_videos()
    params = init_params(cfg.corpus.d, cfg.corpus.C, cfg.model, seed=5)
    want = old.run_evaluation(cfg, params, videos).to_json()
    assert runner.run_evaluation(cfg, params, videos).to_json() == want
    # one video per run instead of up to eight
    monkeypatch.setattr(runner, "TAPE_SNIPPETS", 1)
    assert runner.run_evaluation(cfg, params, videos).to_json() == want
