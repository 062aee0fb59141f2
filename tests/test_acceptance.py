"""End-to-end acceptance checks, one printed verdict line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the verdict lines as they
complete. Criteria 6 and 7 each train a five-cell ablation table on the
default corpus and take a few minutes, and criterion 1 takes tens of
seconds; these three carry the `slow` marker, and everything else
finishes in seconds. Criteria:

1. analytic gradients of the full model match central differences
2. the single-class loss surface is monotone with the expected corners
3. the guided loss collapses to plain cross-entropy when motionness is 1
4. graph construction invariants hold on random feature matrices
5. top-k / NMS / average-precision agree with independent oracles
6. guided training beats plain cross-entropy on the default corpus
7. graph variants order as sparse >= dense >= identity propagation
8. sparse adjacency spreads mass further from the diagonal than dense
9. the training/evaluation pipeline is byte-for-byte deterministic
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from gradcheck import grad_check
from motionloc import numcore as nc
from motionloc import objective as obj
from motionloc import localization as loc
from motionloc import metrics
from motionloc import network as net
from motionloc.datagen import SyntheticVideo, generate_corpus
from motionloc.localization import Detections
from motionloc.motiongraph import (GraphConfig, adjacency_mean_distance,
                                   build_dense_adjacency, build_graph,
                                   build_positional_edges,
                                   build_semantic_edges)
from motionloc.numcore import constant
from motionloc.objective import LossConfig
from motionloc.runner import (config_from_dict, default_ablation_matrix,
                              evaluate_params, run_ablation,
                              train_experiment)

# Training seed used by the directional criteria (6 and 7). The corpus
# itself is pinned by CorpusSpec defaults; this seed fixes weight init
# and batch order so the comparison is reproducible.
PROTOCOL_SEED = 0


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"\n[{status}] criterion {num}: {label}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness on random tiny instances


@pytest.mark.slow
def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    modes = ("sparse", "dense", "mlp")
    thetas = (0.15, 0.3, 0.45)
    gammas = (0.0, 0.3, 0.6)
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(50):
        T = int(rng.integers(2, 9))
        C = int(rng.integers(2, 5))
        d = int(rng.integers(2, 7))
        videos = []
        for j in range(2):  # one batched tape over two videos
            label = np.zeros(C)
            label[rng.choice(C, size=int(rng.integers(1, C + 1)),
                             replace=False)] = 1.0
            videos.append(SyntheticVideo(
                id=f"tiny{i}.{j}", T=T,
                appearance=rng.standard_normal((T, d)),
                motion=rng.standard_normal((T, d)),
                gt_intervals=[(0, 0, 0)], label=label, confounder_idx=[]))
        labels = np.stack([v.label for v in videos])
        mode = modes[i % 3]
        mcfg = net.ModelConfig()
        params = net.init_params(d, C, mcfg, seed=1000 + i)
        gcfg = GraphConfig(theta_pos=thetas[i % 3], gamma=gammas[i % 3],
                           mode=mode)
        adjacency = build_graph(np.stack([v.motion for v in videos]), params.W1,
                                params.W2, gcfg).adjacency
        for kind in ("xe", "motion_guided"):
            cfg = LossConfig(loss_kind=kind)

            def build():
                out = net.full_forward(videos, adjacency, params, mcfg)
                loss, _ = obj.per_video_loss(out, labels, cfg)
                return loss

            worst = max(worst, grad_check(build, params.trainable(),
                                          h=1e-5))
    elapsed = time.perf_counter() - t0
    _verdict(1, "analytic gradients match central differences",
             worst < 1e-4 and elapsed < 60.0,
             f"50 two-video batches, both losses, max rel err {worst:.2e}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss-surface shape


def test_criterion_2_loss_surface_shape():
    t0 = time.perf_counter()
    p_grid, mu_grid = obj.default_surface_grids(50)
    L = obj.loss_surface(p_grid, mu_grid)
    dec_p = bool(np.all(np.diff(L, axis=0) < 0))
    dec_mu = bool(np.all(np.diff(L, axis=1) < 0))
    c1 = obj.loss_surface([0.1], [0.1])[0, 0]
    c2 = obj.loss_surface([0.9], [0.1])[0, 0]
    c3 = obj.loss_surface([0.9], [0.9])[0, 0]
    corners = c1 > c2 > c3
    elapsed = time.perf_counter() - t0
    _verdict(2, "guided loss surface decreases along both axes",
             dec_p and dec_mu and corners and elapsed < 1.0,
             f"50x50 grid, corners {c1:.3f} > {c2:.3f} > {c3:.3f}, "
             f"{elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# 3. guided loss collapses to cross-entropy at motionness 1


def test_criterion_3_collapse_at_full_motionness():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        T = int(rng.integers(4, 41))
        C = int(rng.integers(2, 7))
        label = np.zeros(C)
        label[rng.choice(C, size=int(rng.integers(1, C + 1)),
                         replace=False)] = 1.0
        tcas = constant(rng.standard_normal((T, C)))
        probs, topk_indices = obj.aggregate_topk(tcas, r=8)
        ones = constant(np.full((T, 1), 1.0 - 1e-9))
        mu = obj.video_motionness(ones, topk_indices)
        guided = obj.motion_guided_loss(probs, mu, label, LossConfig())
        plain = obj.xe_loss(probs, label)
        worst = max(worst, abs(guided.value.item() - plain.value.item()))
    _verdict(3, "guided loss equals cross-entropy at motionness 1",
             worst < 1e-6, f"20 instances, max |L_g - L_a| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. graph construction invariants


def _edge_set(mask):
    """The (i, j) pairs a boolean edge mask holds."""
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def _symmetric(edges):
    return {(j, i) for i, j in edges} == set(edges)


def identity_projections(d, rng, noise=0.01):
    """Identity plus small Gaussian noise, the W1/W2 pair init_params draws."""
    W1 = np.eye(d) + noise * rng.standard_normal((d, d))
    W2 = np.eye(d) + noise * rng.standard_normal((d, d))
    return W1, W2


def test_criterion_4_graph_invariants():
    rng = np.random.default_rng(44)
    failures = []
    for trial in range(200):
        T = int(rng.integers(2, 49))
        d = int(rng.integers(2, 13))
        scale = float(10.0 ** rng.uniform(-1, 2))
        motion = scale * rng.standard_normal((T, d))
        theta = float(rng.uniform(0.05, 0.85))
        gamma = float(rng.uniform(-0.5, 0.9))
        cfg = GraphConfig(theta_pos=theta, gamma=gamma)
        W1, W2 = identity_projections(d, rng)
        pos = _edge_set(build_positional_edges(motion, cfg))
        smt = _edge_set(build_semantic_edges(motion, W1, W2, cfg))
        if pos & smt:
            failures.append((trial, "edge sets overlap"))
        if not (_symmetric(pos) and _symmetric(smt)):
            failures.append((trial, "asymmetric edge set"))
        if len(pos) > T * (2 * int(np.ceil(theta * T)) - 1):
            failures.append((trial, "positional sparsity bound"))
        wider = GraphConfig(theta_pos=min(0.95, theta + 0.1), gamma=gamma)
        if not pos <= _edge_set(build_positional_edges(motion, wider)):
            failures.append((trial, "theta monotonicity"))
        stricter = GraphConfig(theta_pos=theta,
                               gamma=min(0.999, gamma + 0.05))
        if not _edge_set(build_semantic_edges(motion, W1, W2, stricter)) <= smt:
            failures.append((trial, "gamma monotonicity"))
        if trial % 20 == 0:
            extreme = GraphConfig(theta_pos=1.0 - 1e-12, gamma=gamma)
            if _edge_set(build_positional_edges(motion, extreme)) != {
                    (i, j) for i in range(T) for j in range(T)}:
                failures.append((trial, "theta->1 not complete"))
            if _edge_set(build_semantic_edges(motion, W1, W2, extreme)):
                failures.append((trial, "theta->1 semantic not empty"))
            tight = GraphConfig(theta_pos=theta, gamma=1.0 - 1e-9)
            if _edge_set(build_semantic_edges(motion, W1, W2, tight)):
                failures.append((trial, "gamma->1 not empty"))
        rescaled = float(rng.uniform(0.5, 50.0)) * motion
        if _edge_set(build_positional_edges(rescaled, cfg)) != pos:
            failures.append((trial, "positional scale invariance"))
        if _edge_set(build_semantic_edges(rescaled, W1, W2, cfg)) != smt:
            failures.append((trial, "semantic scale invariance"))
        g1 = build_graph(motion, W1, W2, cfg)
        g2 = build_graph(rescaled, W1, W2, cfg)
        if not np.allclose(g1.adjacency, g2.adjacency, atol=1e-9):
            failures.append((trial, "adjacency scale invariance"))
        rows = build_dense_adjacency(motion, W1, W2).sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            failures.append((trial, "dense rows do not sum to 1"))
    _verdict(4, "graph invariants hold on random feature matrices",
             not failures,
             f"200 trials, {len(failures)} violations"
             + (f", first: {failures[0]}" if failures else ""))


# ---------------------------------------------------------------------------
# 5. oracle equivalences


def _greedy_ap_oracle(dets, gt_by_video, thr):
    """Exact-rational AP, written against the matching definition only."""
    def fiou(a, b):
        inter = min(a[1], b[1]) + 1 - max(a[0], b[0])
        if inter <= 0:
            return Fraction(0)
        union = (a[1] + 1 - a[0]) + (b[1] + 1 - b[0]) - inter
        return Fraction(inter, union)

    thr = Fraction(thr).limit_denominator(10 ** 6)
    order = sorted(dets, key=lambda dv: (-dv[1][3], dv[0], dv[1][0], dv[1][1]))
    npos = sum(len(v) for v in gt_by_video.values())
    matched = set()
    flags = []
    for vid, prop in order:
        best_key, best = None, Fraction(0)
        for g, seg in enumerate(gt_by_video.get(vid, [])):
            if (vid, g) in matched:
                continue
            s = fiou(prop[:2], seg)
            if s > thr and s > best:
                best_key, best = (vid, g), s
        if best_key is None:
            flags.append(False)
        else:
            matched.add(best_key)
            flags.append(True)
    pts, tp, fp = [], 0, 0
    for f in flags:
        tp, fp = tp + f, fp + (not f)
        pts.append((Fraction(tp, npos), Fraction(tp, tp + fp)))
    ap, prev_r = Fraction(0), Fraction(0)
    for i, (r, _) in enumerate(pts):
        if r != prev_r:
            ap += (r - prev_r) * max(p for _, p in pts[i:])
            prev_r = r
    return ap


def _iou(a, b):
    return loc.segment_iou(a[0], a[1], b[0], b[1])


def _detections(pairs):
    """Detections and their video id list from (video_id, (start, end,
    cls, confidence)) pairs; ids are numbered in order of first appearance."""
    ids = list(dict.fromkeys(vid for vid, _ in pairs))
    rows = [(ids.index(vid), c, s, e, conf) for vid, (s, e, c, conf) in pairs]
    return Detections(*(zip(*rows) if rows else ((),) * 5)), ids


def _rows(dets):
    return list(zip(dets.start.tolist(), dets.end.tolist(), dets.cls.tolist(),
                    dets.confidence.tolist()))


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(55)
    problems = []

    # top-k mean vs full sort, every length up to 12
    for T in range(1, 13):
        for r in (1, 2, 3, 5, 8, 12):
            vals = rng.standard_normal((T, 3))
            _, topk_indices = obj.aggregate_topk(constant(vals), r)
            k = max(1, T // r)
            scores, _ = nc.topk_mean_columns(constant(vals), k)
            for c in range(3):
                want = np.sort(vals[:, c])[::-1][:k]
                got = np.sort(vals[topk_indices[c], c])[::-1]
                if not np.array_equal(got, want):
                    problems.append(f"topk selection T={T} r={r}")
                elif scores.value[0, c] != want.mean():
                    problems.append(f"topk mean T={T} r={r}")

    # NMS vs brute-force validity oracle
    for trial in range(200):
        n = int(rng.integers(0, 11))
        props = []
        for _ in range(n):
            s = int(rng.integers(0, 30))
            props.append((s, s + int(rng.integers(0, 12)), 0,
                          round(float(rng.random()), 2)))
        thr = float(rng.uniform(0.2, 0.9))
        kept = _rows(loc.nms(_detections([("v", p) for p in props])[0], thr))
        order = sorted(props, key=lambda p: (-p[3], p[0], p[1], p[2]))
        rank = {p: i for i, p in enumerate(order)}
        kept_set = set(kept)
        if any(_iou(p, q) > thr
               for i, p in enumerate(kept) for q in kept[i + 1:]):
            problems.append(f"nms antichain trial {trial}")
        if any(not any(_iou(p, q) > thr
                       and rank[q] < rank[p] for q in kept)
               for p in props if p not in kept_set):
            problems.append(f"nms coverage trial {trial}")
        reversed_dets = _detections([("v", p) for p in reversed(props)])[0]
        if _rows(loc.nms(reversed_dets, thr)) != kept:
            problems.append(f"nms order dependence trial {trial}")

    # hand-derived PR case: one high-confidence miss, one low-confidence hit
    hand = metrics.map_at(
        *_detections([("v", (0, 4, 0, 0.9)), ("v", (10, 19, 0, 0.1))]),
        {0: {"v": [(10, 19)]}}, [0.5]).ap[(0.5, 0)]
    if hand != 0.5:
        problems.append(f"hand case gave {hand!r}")

    # exhaustive small scenarios vs the exact-rational oracle
    gt = {"v1": [(0, 4), (10, 14)], "v2": [(2, 6)]}
    pool = [("v1", (0, 4)), ("v1", (1, 5)), ("v1", (11, 13)),
            ("v1", (3, 9)), ("v2", (2, 6)), ("v2", (4, 8))]
    worst_ap = 0.0
    for size in (1, 2, 3):
        for combo in itertools.combinations(pool, size):
            for ranks in itertools.permutations(range(size)):
                dets = [(vid, (s, e, 0, 0.9 - 0.2 * rk))
                        for (vid, (s, e)), rk in zip(combo, ranks)]
                for thr in (0.4, 0.5, 0.75):
                    got = metrics.map_at(*_detections(dets), {0: gt},
                                         [thr]).ap[(thr, 0)]
                    want = float(_greedy_ap_oracle(dets, gt, thr))
                    worst_ap = max(worst_ap, abs(got - want))
    if worst_ap > 1e-12:
        problems.append(f"ap oracle diff {worst_ap:.2e}")

    _verdict(5, "top-k, NMS and AP match independent oracles",
             not problems,
             f"max AP diff {worst_ap:.1e}"
             + (f"; first problem: {problems[0]}" if problems else ""))


# ---------------------------------------------------------------------------
# 6 and 7. directional orderings on the default corpus


@pytest.fixture(scope="module")
def ablation_results(tmp_path_factory):
    base = config_from_dict({"train": {"seed": PROTOCOL_SEED}})
    matrix = default_ablation_matrix()
    out = tmp_path_factory.mktemp("acceptance_ablation")
    timed = {}
    for table in ("loss", "graph"):
        t0 = time.perf_counter()
        rows = run_ablation(base, {"tables": {table: matrix["tables"][table]}},
                            out / table)[table]
        timed[table] = ({r["name"]: r for r in rows},
                        time.perf_counter() - t0)
    return timed


@pytest.mark.slow
def test_criterion_6_guided_loss_ordering(ablation_results):
    rows, elapsed = ablation_results["loss"]
    mg = rows["motion_guided"]
    xe = rows["xe"]
    app = rows["appearance_guided"]
    gap = mg["map_0.5"] - xe["map_0.5"]
    stream_gap = mg["map_0.5"] - app["map_0.5"]
    kl_ok = mg["kl"] < app["kl"]
    ok = gap >= 0.03 and stream_gap > 0 and kl_ok and elapsed < 900
    _verdict(6, "motion guidance beats plain and appearance variants",
             ok,
             f"mAP@0.5 guided {mg['map_0.5']:.4f} vs plain "
             f"{xe['map_0.5']:.4f} (gap {gap * 100:+.2f} pts), "
             f"appearance {app['map_0.5']:.4f}, KL {mg['kl']:.3f} vs "
             f"{app['kl']:.3f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_graph_mode_ordering(ablation_results):
    rows, elapsed = ablation_results["graph"]
    sp = rows["sparse_all_edges"]["map_0.5"]
    de = rows["dense"]["map_0.5"]
    ml = rows["mlp"]["map_0.5"]
    np_ = rows["no_positional"]["map_0.5"]
    ns = rows["no_semantic"]["map_0.5"]
    ok = (sp >= de >= ml and np_ <= sp + 0.005 and ns <= sp + 0.005
          and elapsed < 900)
    _verdict(7, "graph variants order sparse >= dense >= identity",
             ok,
             f"sparse {sp:.4f} dense {de:.4f} identity {ml:.4f}, "
             f"edge drops {np_:.4f}/{ns:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. diagonal concentration of the dense adjacency


def test_criterion_8_diagonal_concentration():
    cfg = config_from_dict({"train": {"seed": PROTOCOL_SEED}})
    train_videos, test_videos = generate_corpus(cfg.corpus)
    videos = list(train_videos) + list(test_videos)
    params = net.init_params(cfg.corpus.d, cfg.corpus.C, cfg.model,
                             cfg.train.seed)
    gcfg = GraphConfig()
    wins = 0
    for video in videos:
        sparse = build_graph(video.motion, params.W1, params.W2, gcfg)
        d_sparse = adjacency_mean_distance(sparse.adjacency)
        d_dense = adjacency_mean_distance(
            build_dense_adjacency(video.motion, params.W1, params.W2))
        wins += d_sparse > d_dense
    frac = wins / len(videos)
    _verdict(8, "sparse adjacency reaches further than dense",
             frac >= 0.9,
             f"strictly larger mean distance on {wins}/{len(videos)} "
             f"videos ({frac:.1%})")


# ---------------------------------------------------------------------------
# 9. byte-identical reruns


def test_criterion_9_pipeline_determinism(tmp_path):
    overrides = {
        "corpus": {"n_train": 12, "n_test": 6, "C": 3, "seed": 11},
        "train": {"epochs": 8, "batch_size": 4, "seed": 3},
    }
    artifacts = {}
    for run in ("a", "b"):
        cfg = config_from_dict({**overrides,
                                "out_dir": str(tmp_path / run)})
        params, _, out = train_experiment(cfg)
        evaluate_params(cfg, params, out=out)
        artifacts[run] = {
            name: (out / name).read_bytes()
            for name in ("loss_curve.csv", "report.json", "report.csv")
        }
    same = {name: artifacts["a"][name] == artifacts["b"][name]
            for name in artifacts["a"]}
    _verdict(9, "two identical runs produce byte-identical artifacts",
             all(same.values()),
             ", ".join(f"{k} {'ok' if v else 'DIFFERS'}"
                       for k, v in sorted(same.items())))
