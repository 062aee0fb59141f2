import numpy as np
import pytest

from motionloc import datagen
from motionloc.datagen import CorpusSpec, CorpusFormatError


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
        mask = v.gt_mask().astype(bool)
        np.testing.assert_array_equal(v.motion[~mask], 0.0)


def test_determinism_byte_identical(tmp_path):
    spec = CorpusSpec(n_train=10, n_test=3, seed=7)
    a = tmp_path / "a"
    b = tmp_path / "b"
    datagen.save_corpus(a, *datagen.generate_corpus(spec), spec=spec)
    datagen.save_corpus(b, *datagen.generate_corpus(spec), spec=spec)
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_confounder_fraction_matches_rate():
    spec = CorpusSpec(n_train=200, n_test=50, confounder_rate=0.3, seed=7)
    train, test = datagen.generate_corpus(spec)
    flagged = 0
    background = 0
    for v in train + test:
        inside = v.gt_mask().astype(bool)
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


def test_separability_at_zero_noise():
    spec = CorpusSpec(n_train=8, n_test=2, noise_sigma=0.0, confounder_rate=0.0, seed=5)
    train, _ = datagen.generate_corpus(spec)
    for v in train:
        mask = v.gt_mask().astype(bool)
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
        inside = v.gt_mask().astype(bool)
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


def test_roundtrip_preserves_corpus(tmp_path):
    train, test = datagen.generate_corpus(SMALL)
    datagen.save_corpus(tmp_path / "corpus", train, test, SMALL)
    train2, test2, spec2 = datagen.load_corpus(tmp_path / "corpus")
    assert spec2 == SMALL
    assert len(train2) == len(train) and len(test2) == len(test)
    for a, b in zip(train + test, train2 + test2):
        assert _videos_equal(a, b), a.id


def test_empty_corpus_roundtrip(tmp_path):
    datagen.save_corpus(tmp_path / "empty", [], [], SMALL)
    train, test, spec = datagen.load_corpus(tmp_path / "empty")
    assert train == [] and test == [] and spec == SMALL


def test_corrupted_magic_is_parse_error(tmp_path):
    train, test = datagen.generate_corpus(CorpusSpec(n_train=1, n_test=1, seed=1))
    datagen.save_corpus(tmp_path / "c", train, test, CorpusSpec(n_train=1, n_test=1, seed=1))
    victim = tmp_path / "c" / "train-0000.bin"
    raw = bytearray(victim.read_bytes())
    raw[:5] = b"BOGUS"
    victim.write_bytes(bytes(raw))
    with pytest.raises(CorpusFormatError, match="magic"):
        datagen.load_corpus(tmp_path / "c")


def test_truncated_record_is_parse_error(tmp_path):
    train, test = datagen.generate_corpus(CorpusSpec(n_train=1, n_test=1, seed=1))
    datagen.save_corpus(tmp_path / "c", train, test, CorpusSpec(n_train=1, n_test=1, seed=1))
    victim = tmp_path / "c" / "train-0000.bin"
    victim.write_bytes(victim.read_bytes()[:40])
    with pytest.raises(CorpusFormatError, match="offset"):
        datagen.load_corpus(tmp_path / "c")


def test_interval_placement_failure_raises():
    # three intervals of length >= 8 cannot fit in T=8
    spec = CorpusSpec(n_train=50, n_test=1, T=8, seed=2)
    with pytest.raises(datagen.GenerationError):
        datagen.generate_corpus(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(n_train=0).validate()
    with pytest.raises(ValueError):
        CorpusSpec(confounder_rate=1.5).validate()
    with pytest.raises(ValueError):
        CorpusSpec(noise_sigma=-0.1).validate()
