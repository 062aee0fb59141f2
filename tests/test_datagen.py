import dataclasses

import numpy as np
import pytest

from motionloc import datagen
from motionloc.datagen import CorpusSpec, corpus_fingerprint, interval_mask


SMALL = CorpusSpec(n_train=20, n_test=5, T=64, d=16, C=5, seed=7)


def test_zero_noise_interval_motion_is_exact_prototype():
    spec = CorpusSpec(n_train=5, n_test=2, confounder_rate=0.0, noise_sigma=0.0, seed=3)
    train, _ = datagen.generate_corpus(spec)
    # recover prototypes by construction: inside an interval of class c every
    # motion snippet must be one identical vector with norm 3 (f32-rounded)
    by_class = {}
    for v in train:
        for s, e, c in v.gt_intervals:
            block = v.motion[s : e + 1]
            assert np.all(block == block[0])
            assert np.linalg.norm(block[0]) == pytest.approx(3.0, rel=1e-6)
            by_class.setdefault(c, block[0])
            np.testing.assert_array_equal(block[0], by_class[c])
        mask = interval_mask(v.T, v.gt_intervals).astype(bool)
        np.testing.assert_array_equal(v.motion[~mask], 0.0)


def _videos_equal(a, b):
    return (
        a.id == b.id
        and a.T == b.T
        and a.gt_intervals == b.gt_intervals
        and np.array_equal(a.label, b.label)
        and a.confounder_idx == b.confounder_idx
        and np.array_equal(a.appearance, b.appearance)
        and np.array_equal(a.motion, b.motion)
    )


def test_determinism_byte_identical():
    spec = CorpusSpec(n_train=10, n_test=3, seed=7)
    train_a, test_a = datagen.generate_corpus(spec)
    train_b, test_b = datagen.generate_corpus(spec)
    assert len(train_a) == len(train_b) and len(test_a) == len(test_b)
    for a, b in zip(train_a + test_a, train_b + test_b):
        assert _videos_equal(a, b), a.id
    assert corpus_fingerprint(train_a + test_a) == \
        corpus_fingerprint(train_b + test_b)


def test_confounder_fraction_matches_rate():
    spec = CorpusSpec(n_train=200, n_test=50, confounder_rate=0.3, seed=7)
    train, test = datagen.generate_corpus(spec)
    flagged = 0
    background = 0
    for v in train + test:
        inside = interval_mask(v.T, v.gt_intervals).astype(bool)
        background += int((~inside).sum())
        flagged += len(v.confounder_idx)
    assert flagged / background == pytest.approx(0.3, abs=0.03)


def test_label_matches_interval_classes():
    train, test = datagen.generate_corpus(SMALL)
    for v in train + test:
        expect = np.zeros(SMALL.C)
        for _, _, c in v.gt_intervals:
            expect[c] = 1.0
        np.testing.assert_array_equal(v.label, expect)
        assert len(v.gt_intervals) >= 1
        assert all(0 <= s <= e < v.T for s, e, _ in v.gt_intervals)


def test_separability_at_zero_noise():
    spec = CorpusSpec(n_train=8, n_test=2, noise_sigma=0.0, confounder_rate=0.0, seed=5)
    train, _ = datagen.generate_corpus(spec)
    for v in train:
        mask = interval_mask(v.T, v.gt_intervals).astype(bool)
        inside = np.linalg.norm(v.motion[mask], axis=1).mean()
        outside = np.linalg.norm(v.motion[~mask], axis=1).mean() if (~mask).any() else 0.0
        assert inside - outside == pytest.approx(3.0, rel=1e-6)


def _nearest_prototype_is_action(snippet, protos):
    """True when some class prototype is closer than the background candidate."""
    d_bg = np.linalg.norm(snippet - protos["background"])
    d_cls = min(np.linalg.norm(snippet - p) for p in protos["classes"])
    return d_cls < d_bg


def test_confounders_fool_appearance_but_not_motion():
    spec = CorpusSpec(n_train=40, n_test=10, confounder_rate=0.3, seed=7)
    train, _ = datagen.generate_corpus(spec)
    # recover prototypes empirically from interval interiors (low-noise mean)
    C, d = spec.C, spec.d
    app_sum = np.zeros((C, d))
    mot_sum = np.zeros((C, d))
    counts = np.zeros(C)
    for v in train:
        for s, e, c in v.gt_intervals:
            app_sum[c] += v.appearance[s : e + 1].sum(axis=0)
            mot_sum[c] += v.motion[s : e + 1].sum(axis=0)
            counts[c] += e - s + 1
    app_protos = app_sum / counts[:, None]
    mot_protos = mot_sum / counts[:, None]
    # background appearance prototype from non-confounder background snippets
    bg_snips = []
    for v in train:
        inside = interval_mask(v.T, v.gt_intervals).astype(bool)
        for t in range(v.T):
            if not inside[t] and t not in v.confounder_idx:
                bg_snips.append(v.appearance[t])
    bg_app = np.mean(bg_snips, axis=0)

    app = {"classes": app_protos, "background": bg_app}
    mot = {"classes": mot_protos, "background": np.zeros(d)}

    app_fooled = mot_fooled = total = 0
    for v in train:
        for t in v.confounder_idx:
            total += 1
            app_fooled += _nearest_prototype_is_action(v.appearance[t], app)
            mot_fooled += _nearest_prototype_is_action(v.motion[t], mot)
    assert total > 50
    assert app_fooled / total > 0.95
    assert mot_fooled / total < 0.05


def test_fingerprint_sees_every_field():
    train, test = datagen.generate_corpus(SMALL)
    base = corpus_fingerprint(train + test)
    v = train[0]
    changes = (
        {"id": "train-9999"},
        {"gt_intervals": [(s, e + 1, c) for s, e, c in v.gt_intervals]},
        {"label": 1.0 - v.label},
        {"confounder_idx": v.confounder_idx + [v.T - 1]},
        {"appearance": np.nextafter(v.appearance, np.inf)},
        {"motion": np.nextafter(v.motion, np.inf)},
    )
    for change in changes:
        edited = dataclasses.replace(v, **change)
        assert corpus_fingerprint([edited] + train[1:] + test) != base, change
    assert corpus_fingerprint(test + train) != base


def test_interval_placement_failure_raises():
    # three intervals of length >= 8 cannot fit in T=8
    spec = CorpusSpec(n_train=50, n_test=1, T=8, seed=2)
    with pytest.raises(datagen.GenerationError):
        datagen.generate_corpus(spec)


def test_tight_layouts_that_fit_are_placed():
    # rejection sampling alone gives up on [14, 16, 16] in T=48
    train, test = datagen.generate_corpus(
        CorpusSpec(n_train=14, n_test=1, T=48, seed=3))
    for video in train + test:
        spans = video.gt_intervals
        assert all(0 <= s <= e < 48 for s, e, _ in spans)
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    # the fallback packs exactly full layouts too
    rng = np.random.default_rng(0)
    for _ in range(50):
        starts = datagen._place_intervals(rng, 46, [14, 16, 16])
        spans = sorted(zip(starts, [14, 16, 16]))
        assert spans[0][0] >= 0 and spans[-1][0] + spans[-1][1] <= 46
        assert all(s + n <= t for (s, n), (t, _) in zip(spans, spans[1:]))


def test_oversized_layout_names_lengths_and_T():
    with pytest.raises(datagen.GenerationError, match=r"\[8, 8\].*T=8"):
        datagen._place_intervals(np.random.default_rng(0), 8, [8, 8])


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(n_train=0)
    with pytest.raises(ValueError):
        CorpusSpec(confounder_rate=1.5)
    with pytest.raises(ValueError):
        CorpusSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        CorpusSpec(seed=-1)


def test_streams_are_rows_of_one_block_per_split_and_stream():
    train, test = datagen.generate_corpus(SMALL)
    blocks = {}
    for split, videos in (("train", train), ("test", test)):
        for stream in ("appearance", "motion"):
            rows = [getattr(v, stream) for v in videos]
            block = rows[0].base
            assert block.shape == (len(videos), SMALL.T, SMALL.d)
            assert block.dtype == np.float32 and block.flags.c_contiguous
            for i, row in enumerate(rows):
                assert row.dtype == np.float32 and row.flags.c_contiguous
                assert row.base is block and row.ctypes.data == block[i].ctypes.data
            blocks[split, stream] = block
    assert not any(np.shares_memory(a, b) for a in blocks.values()
                   for b in blocks.values() if a is not b)
