"""Synthetic two-stream corpus with weak video-level labels.

Each video carries an appearance stream and a motion stream (T x d each).
The motion stream is action-discriminative: inside an action interval it
follows the class motion prototype, outside it is low-energy noise. The
appearance stream carries deliberate confounders: a fraction of background
snippets look like an action class while their motion stays background,
mimicking stationary narration frames that fool appearance-only models.
The corpus lives only in memory: it is a pure function of its spec, so
every run regenerates it, and a sha256 fingerprint stands in for a copy
on disk when two corpora must be compared. Each split keeps each stream
in one count x T x d float32 block, and a video's streams are row views
of its split's two blocks.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .numcore import split_rng

_PROTO_STREAM = 0
_VIDEO_STREAM = 1

MIN_INTERVAL_LEN = 8
MAX_INTERVAL_LEN = 16
MIN_CONFOUNDER_LEN = 4
MAX_CONFOUNDER_LEN = 8
PROTOTYPE_NORM = 3.0
# box smoothing length for feature noise; keeps unit variance while giving
# adjacent snippets correlated features (videos change slowly)
NOISE_SMOOTHING = 4


class GenerationError(RuntimeError):
    """Interval placement failed after the retry budget."""


@dataclass(frozen=True)
class CorpusSpec:
    n_train: int = 200
    n_test: int = 50
    T: int = 64
    d: int = 16
    C: int = 5
    confounder_rate: float = 0.3
    noise_sigma: float = 0.3
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("n_train", "n_test", "T", "d", "C"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.confounder_rate <= 1.0:
            raise ValueError("confounder_rate must lie in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticVideo:
    id: str
    T: int
    appearance: np.ndarray            # T x d float32, a row of its split's block
    motion: np.ndarray                # T x d float32, a row of its split's block
    gt_intervals: list[tuple[int, int, int]]  # (start, end inclusive, class)
    label: np.ndarray                 # multi-hot, length C
    confounder_idx: list[int] = field(default_factory=list)

    def gt_mask(self) -> np.ndarray:
        """Binary snippet mask, 1 inside any ground-truth interval."""
        mask = np.zeros(self.T, dtype=np.float64)
        for s, e, _ in self.gt_intervals:
            mask[s : e + 1] = 1.0
        return mask

    def validate(self, C: int) -> None:
        if not self.gt_intervals:
            raise ValueError(f"{self.id}: needs at least one interval")
        for s, e, c in self.gt_intervals:
            if not (0 <= s <= e < self.T):
                raise ValueError(f"{self.id}: bad interval ({s}, {e})")
            if not 0 <= c < C:
                raise ValueError(f"{self.id}: bad class {c}")
        expect = np.zeros(C)
        for _, _, c in self.gt_intervals:
            expect[c] = 1.0
        if not np.array_equal(expect, self.label):
            raise ValueError(f"{self.id}: label inconsistent with intervals")
        if not (np.isfinite(self.appearance).all() and np.isfinite(self.motion).all()):
            raise ValueError(f"{self.id}: non-finite features")


def _smoothed_noise(rng: np.random.Generator, T: int, d: int) -> np.ndarray:
    """Unit-variance Gaussian noise with short-range temporal correlation."""
    L = NOISE_SMOOTHING
    white = rng.standard_normal((T + L - 1, d))
    out = white[0:T] + white[1 : 1 + T]
    for w in range(2, L):
        out += white[w : w + T]
    out /= np.sqrt(L)
    return out


def _place_intervals(rng: np.random.Generator, T: int,
                     lengths: list[int]) -> list[int]:
    """Non-overlapping starts: rejection sampling for 100 attempts, then
    the intervals in a random order with the spare snippets split into
    random gaps. Fails only when the lengths exceed T."""
    if sum(lengths) > T:
        raise GenerationError(
            f"intervals of lengths {lengths} need {sum(lengths)} snippets, "
            f"more than corpus.T={T}")
    for _ in range(100):
        starts = [int(rng.integers(0, T - ln + 1)) for ln in lengths]
        spans = sorted(zip(starts, lengths))
        if all(spans[i][0] + spans[i][1] <= spans[i + 1][0]
               for i in range(len(spans) - 1)):
            return starts
    order = rng.permutation(len(lengths)).tolist()
    cuts = np.sort(rng.integers(0, T - sum(lengths) + 1, size=len(lengths)))
    gaps = np.diff(cuts, prepend=0).tolist()
    starts = [0] * len(lengths)
    pos = 0
    for i, gap in zip(order, gaps):
        starts[i] = pos + gap
        pos = starts[i] + lengths[i]
    return starts


def _generate_video(spec: CorpusSpec, vid: str, rng: np.random.Generator,
                    motion_protos: np.ndarray, appearance_protos: np.ndarray,
                    background_proto: np.ndarray, appearance_row: np.ndarray,
                    motion_row: np.ndarray) -> SyntheticVideo:
    """One video, its streams rounded into the given T x d float32 rows."""
    T, d, C = spec.T, spec.d, spec.C
    n_int = int(rng.integers(1, 4))
    n_cls = int(rng.integers(1, min(2, C) + 1))
    n_cls = min(n_cls, n_int)
    classes = rng.choice(C, size=n_cls, replace=False)
    interval_classes = [int(classes[i]) if i < n_cls else int(rng.choice(classes))
                        for i in range(n_int)]
    max_len = min(MAX_INTERVAL_LEN, T)
    min_len = min(MIN_INTERVAL_LEN, max_len)
    lengths = [int(rng.integers(min_len, max_len + 1)) for _ in range(n_int)]
    starts = _place_intervals(rng, T, lengths)

    intervals = sorted(
        (s, s + ln - 1, c) for s, ln, c in zip(starts, lengths, interval_classes)
    )
    label = np.zeros(C)
    for _, _, c in intervals:
        label[c] = 1.0
    label_classes = [c for c in range(C) if label[c] == 1.0]

    sigma = spec.noise_sigma
    appearance = np.tile(background_proto, (T, 1)) + sigma * _smoothed_noise(rng, T, d)
    motion = sigma * _smoothed_noise(rng, T, d)

    inside = np.zeros(T, dtype=bool)
    for s, e, c in intervals:
        inside[s : e + 1] = True
        motion[s : e + 1] = motion_protos[c] + sigma * _smoothed_noise(rng, e - s + 1, d)
        appearance[s : e + 1] = (
            appearance_protos[c] + sigma * _smoothed_noise(rng, e - s + 1, d)
        )

    # Confounders are contiguous background segments that look like one of
    # the video's own action classes (a narration still reusing the action
    # backdrop) while their motion stays at background level. The per-video
    # budget is confounder_rate of the background snippet count, spent on
    # runs of a few snippets each.
    confounder_idx: list[int] = []
    occupied = inside.copy()
    budget = int(round(spec.confounder_rate * int((~inside).sum())))
    while budget > 0:
        # filled[i] counts the occupied snippets before i, so a run of
        # run_len from s is free when filled[s + run_len] == filled[s]
        filled = np.concatenate(([0], np.cumsum(occupied)))
        run_len = min(budget, int(rng.integers(MIN_CONFOUNDER_LEN,
                                               MAX_CONFOUNDER_LEN + 1)))
        placed = False
        while run_len >= 1:
            starts = np.flatnonzero(filled[run_len:] == filled[:-run_len])
            if starts.size:
                s = int(starts[int(rng.integers(0, starts.size))])
                c = int(rng.choice(label_classes))
                appearance[s : s + run_len] = (
                    appearance_protos[c]
                    + sigma * _smoothed_noise(rng, run_len, d)
                )
                occupied[s : s + run_len] = True
                confounder_idx.extend(range(s, s + run_len))
                budget -= run_len
                placed = True
                break
            run_len -= 1
        if not placed:
            break
    confounder_idx.sort()

    # round to f32 once and keep f32: every pinned artifact (loss curves,
    # reports, ablation tables, the generate fingerprint) comes from
    # f32-valued streams, which every consumer widens to f64 exactly;
    # assignment rounds as astype does
    appearance_row[...] = appearance
    motion_row[...] = motion

    video = SyntheticVideo(
        id=vid, T=T, appearance=appearance_row, motion=motion_row,
        gt_intervals=[tuple(iv) for iv in intervals], label=label,
        confounder_idx=confounder_idx,
    )
    video.validate(C)
    return video


def generate_corpus(spec: CorpusSpec) -> tuple[list[SyntheticVideo], list[SyntheticVideo]]:
    """Deterministic (train, test) lists; every stream derives from spec.seed."""
    proto_rng = split_rng(spec.seed, _PROTO_STREAM)

    def draw_protos(n):
        p = proto_rng.standard_normal((n, spec.d))
        norms = np.linalg.norm(p, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return PROTOTYPE_NORM * p / norms

    motion_protos = draw_protos(spec.C)
    appearance_protos = draw_protos(spec.C)
    background_proto = draw_protos(1)[0]

    def make(split: str, count: int, offset: int) -> list[SyntheticVideo]:
        # one block per stream, allocated before the float64 temporaries
        # of generation, so the rows do not sit between them on the heap
        appearance = np.empty((count, spec.T, spec.d), dtype=np.float32)
        motion = np.empty((count, spec.T, spec.d), dtype=np.float32)
        return [
            _generate_video(
                spec, f"{split}-{i:04d}", split_rng(spec.seed, _VIDEO_STREAM, offset + i),
                motion_protos, appearance_protos, background_proto,
                appearance[i], motion[i],
            )
            for i in range(count)
        ]

    train = make("train", spec.n_train, 0)
    test = make("test", spec.n_test, spec.n_train)
    return train, test


def corpus_fingerprint(videos: list[SyntheticVideo]) -> str:
    """sha256 over ids, intervals, labels, confounder indices and streams.

    Integers are hashed as <i8 and the label and both streams as <f8
    bytes, video by video in list order.
    """
    h = hashlib.sha256()
    for v in videos:
        h.update(v.id.encode())
        h.update(np.asarray(v.gt_intervals, dtype="<i8").tobytes())
        h.update(np.asarray(v.label, dtype="<f8").tobytes())
        h.update(np.asarray(v.confounder_idx, dtype="<i8").tobytes())
        h.update(np.asarray(v.appearance, dtype="<f8").tobytes())
        h.update(np.asarray(v.motion, dtype="<f8").tobytes())
    return h.hexdigest()
