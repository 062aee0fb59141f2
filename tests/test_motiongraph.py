import hashlib
import math

import numpy as np
import pytest

from motionloc import motiongraph as mg
from motionloc.motiongraph import GraphConfig
from motionloc.numcore import ShapeMismatchError

CFG = GraphConfig()


def _edge_set(mask):
    """The (i, j) pairs a boolean edge mask holds."""
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def _mask(T, pairs):
    """T x T boolean edge mask holding exactly `pairs`."""
    mask = np.zeros((T, T), dtype=bool)
    for i, j in pairs:
        mask[i, j] = True
    return mask


def test_positional_edge_membership_t20():
    motion = np.zeros((20, 4))
    edges = _edge_set(mg.build_positional_edges(motion, CFG))
    assert (3, 4) in edges          # 1/20 = 0.05 < 0.1
    assert (3, 6) not in edges      # 3/20 = 0.15
    non_self = {(i, j) for i, j in edges if i != j}
    assert len(non_self) == 38      # 2 * sum_{delta=1}^{1} (20 - delta)
    self_pairs = edges - non_self
    assert len(self_pairs) == 20


def _planted(T, d, pairs):
    """Zero features except explicit row assignments in `pairs`."""
    m = np.zeros((T, d))
    for t, vec in pairs.items():
        m[t] = vec
    return m


def test_semantic_edges_hand_cases():
    T, d = 40, 3
    I = np.eye(d)
    # identical vectors far apart: cosine 1 > 0.6
    m = _planted(T, d, {0: [1, 0, 0], 30: [1, 0, 0]})
    edges = _edge_set(mg.build_semantic_edges(m, I, I, CFG))
    assert (0, 30) in edges and (30, 0) in edges
    # orthogonal: cosine 0
    m = _planted(T, d, {0: [1, 0, 0], 30: [0, 1, 0]})
    assert (0, 30) not in _edge_set(mg.build_semantic_edges(m, I, I, CFG))
    # 45 degrees: cosine 1/sqrt(2) = 0.7071 > 0.6
    m = _planted(T, d, {0: [1, 0, 0], 30: [1, 1, 0]})
    edges = _edge_set(mg.build_semantic_edges(m, I, I, CFG))
    assert (0, 30) in edges
    # near pair never semantic regardless of similarity
    m = _planted(T, d, {0: [1, 0, 0], 2: [1, 0, 0]})
    assert (0, 2) not in _edge_set(mg.build_semantic_edges(m, I, I, CFG))


def test_semantic_zero_norm_projection_is_no_edge():
    T, d = 40, 3
    m = _planted(T, d, {0: [1, 0, 0], 30: [1, 0, 0]})
    W1 = np.zeros((d, d))  # projects everything to zero
    edges = _edge_set(mg.build_semantic_edges(m, W1, np.eye(d), CFG))
    assert edges == set()


def test_semantic_symmetrized_with_asymmetric_projections():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((50, 6))
    W1 = rng.standard_normal((6, 6))
    W2 = rng.standard_normal((6, 6))
    edges = _edge_set(mg.build_semantic_edges(m, W1, W2, GraphConfig(gamma=0.2)))
    assert edges  # nonempty at this loose threshold
    assert all((j, i) in edges for i, j in edges)


def test_adjacency_values_and_zero_pattern():
    m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    G = mg.build_adjacency(m, _mask(3, {(0, 1), (1, 0)}))
    assert G[0, 1] == pytest.approx(1.0)
    assert G[1, 0] == pytest.approx(1.0)
    assert G[0, 2] == 0.0 and G[2, 2] == 0.0


def test_adjacency_row_normalization():
    m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    G = mg.build_adjacency(m, _mask(3, {(0, 0), (0, 1)}))
    np.testing.assert_allclose(G[0], [0.5, 0.5, 0.0])
    # rows without edges stay zero
    np.testing.assert_array_equal(G[2], 0.0)


def test_adjacency_zero_norm_feature_row():
    m = np.array([[0.0, 0.0], [1.0, 0.0]])
    G = mg.build_adjacency(m, _mask(2, {(0, 1), (1, 0), (0, 0)}))
    np.testing.assert_array_equal(G[0], 0.0)


def test_dense_identical_nodes_uniform():
    T, d = 8, 4
    m = np.tile(np.array([1.0, 2.0, 0.0, -1.0]), (T, 1))
    G = mg.build_dense_adjacency(m, np.eye(d), np.eye(d))
    np.testing.assert_allclose(G, np.full((T, T), 1.0 / T))


def test_dense_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((16, 5))
        W1 = np.eye(5) + 0.01 * rng.standard_normal((5, 5))
        W2 = np.eye(5) + 0.01 * rng.standard_normal((5, 5))
        G = mg.build_dense_adjacency(m, W1, W2)
        np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-9)


def test_dense_negative_row_sum_falls_back_to_uniform():
    # two antagonistic nodes make every row sum <= 0
    m = np.array([[1.0, 0.0], [-2.0, 0.0]])
    G = mg.build_dense_adjacency(m, np.eye(2), np.eye(2))
    # row 0: 1 - 2 = -1 -> uniform; row 1: -2 + 4 = 2 -> normalized
    np.testing.assert_allclose(G[0], [0.5, 0.5])
    np.testing.assert_allclose(G[1], [-1.0, 2.0])
    np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-12)


def test_projection_shape_checked():
    m = np.zeros((10, 4))
    with pytest.raises(ShapeMismatchError):
        mg.build_semantic_edges(m, np.eye(3), np.eye(4), CFG)
    with pytest.raises(ShapeMismatchError):
        mg.build_dense_adjacency(m, np.eye(4), np.eye(5))


def test_graph_invariants_random_matrices():
    """Disjointness, symmetry, zero pattern, bounds, sparsity over 200 draws."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        T = int(rng.integers(2, 24))
        d = int(rng.integers(2, 8))
        theta = float(rng.uniform(0.05, 0.5))
        gamma = float(rng.uniform(-0.5, 0.95))
        cfg = GraphConfig(theta_pos=theta, gamma=gamma)
        m = rng.standard_normal((T, d))
        W1 = np.eye(d) + 0.05 * rng.standard_normal((d, d))
        W2 = np.eye(d) + 0.05 * rng.standard_normal((d, d))
        g = mg.build_graph(m, W1, W2, cfg)
        pos, smt = _edge_set(g.pos_edges), _edge_set(g.smt_edges)
        assert not (pos & smt)
        for es in (pos, smt):
            assert all((j, i) in es for i, j in es)
        union = pos | smt
        nz = _edge_set(g.adjacency)
        assert nz <= union  # zero exactly off the edge set
        assert np.all(np.abs(g.adjacency) <= 1.0 + 1e-12)
        bound = T * (2 * math.ceil(theta * T) - 1)
        assert len(pos) <= bound


def test_threshold_monotonicity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 5))
    I = np.eye(5)
    # gamma near 1 empties the semantic set
    g = mg.build_graph(m, I, I, GraphConfig(gamma=0.999))
    assert _edge_set(g.smt_edges) == frozenset()
    # theta_pos near 1 makes the positional graph complete and starves semantic
    g = mg.build_graph(m, I, I, GraphConfig(theta_pos=0.999, gamma=-0.5))
    assert len(_edge_set(g.pos_edges)) == 30 * 30
    assert _edge_set(g.smt_edges) == frozenset()
    # growing gamma shrinks the semantic set monotonically
    sizes = []
    for gamma in (0.0, 0.3, 0.6, 0.9):
        g = mg.build_graph(m, I, I, GraphConfig(gamma=gamma))
        sizes.append(len(_edge_set(g.smt_edges)))
    assert sizes == sorted(sizes, reverse=True)


def test_scale_invariance():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((25, 6))
    W1 = np.eye(6) + 0.05 * rng.standard_normal((6, 6))
    W2 = np.eye(6) + 0.05 * rng.standard_normal((6, 6))
    a = mg.build_graph(m, W1, W2, CFG)
    b = mg.build_graph(3.7 * m, W1, W2, CFG)
    assert _edge_set(a.pos_edges) == _edge_set(b.pos_edges)
    assert _edge_set(a.smt_edges) == _edge_set(b.smt_edges)
    np.testing.assert_allclose(a.adjacency, b.adjacency, atol=1e-12)
    # dense normalization also cancels the scale
    da = mg.build_dense_adjacency(m, W1, W2)
    db = mg.build_dense_adjacency(3.7 * m, W1, W2)
    np.testing.assert_allclose(da, db, atol=1e-9)


def test_mode_dispatch():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 4))
    W1, W2 = np.eye(4), np.eye(4)
    g = mg.build_graph(m, W1, W2, GraphConfig(mode="mlp"))
    assert g.T == 12 and g.adjacency is None  # mlp propagates over no graph
    assert _edge_set(g.pos_edges) == frozenset()
    assert _edge_set(g.smt_edges) == frozenset()
    g = mg.build_graph(m, W1, W2, GraphConfig(mode="dense"))
    assert g.adjacency.shape == (12, 12)
    assert np.count_nonzero(g.adjacency) == 144
    with pytest.raises(ValueError):
        mg.build_graph(m, W1, W2, GraphConfig(mode="attention"))


def test_stacked_graph_equals_per_video_graphs():
    """A B x T x d stack gets, video by video, the bytes of its own build."""
    rng = np.random.default_rng(12)
    for _ in range(60):
        B, T, d = int(rng.integers(1, 5)), int(rng.integers(2, 90)), int(rng.integers(2, 9))
        m = rng.standard_normal((B, T, d))
        m[0, int(rng.integers(T))] = 0.0  # a zero-norm row
        W1 = np.eye(d) + 0.05 * rng.standard_normal((d, d))
        W2 = np.eye(d) + 0.05 * rng.standard_normal((d, d))
        for cfg in (GraphConfig(theta_pos=float(rng.uniform(0.05, 0.5)),
                                gamma=float(rng.uniform(-0.5, 0.9))),
                    GraphConfig(use_positional=False, gamma=0.0),
                    GraphConfig(use_semantic=False),
                    GraphConfig(mode="dense"), GraphConfig(mode="mlp")):
            stack = mg.build_graph(m, W1, W2, cfg)
            assert stack.T == T and stack.pos_edges.shape == (B, T, T)
            for b in range(B):
                one = mg.build_graph(m[b], W1, W2, cfg)
                for got, want in ((stack.pos_edges[b], one.pos_edges),
                                  (stack.smt_edges[b], one.smt_edges)):
                    assert got.tobytes() == want.tobytes()
                if cfg.mode == "mlp":
                    assert stack.adjacency is None and one.adjacency is None
                else:
                    assert stack.adjacency[b].tobytes() == one.adjacency.tobytes()


def test_edge_ablation_switches():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((30, 5))
    I = np.eye(5)
    g = mg.build_graph(m, I, I, GraphConfig(use_semantic=False))
    assert _edge_set(g.smt_edges) == frozenset() and _edge_set(g.pos_edges)
    g = mg.build_graph(m, I, I, GraphConfig(use_positional=False, gamma=0.0))
    assert _edge_set(g.pos_edges) == frozenset() and _edge_set(g.smt_edges)


def test_mean_distance_diagnostic():
    assert mg.adjacency_mean_distance(np.eye(4)) == 0.0
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert mg.adjacency_mean_distance(off) == pytest.approx(1.0)
    assert mg.adjacency_mean_distance(np.zeros((3, 3))) == 0.0
    # signed weights cancel: equal-and-opposite off-diagonals sum to zero
    signed = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert mg.adjacency_mean_distance(signed) == 0.0
    # a negative far entry pulls the weighted mean below the positive one
    mixed = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    assert mg.adjacency_mean_distance(mixed) == pytest.approx(
        (1.0 * 1 - 0.5 * 2) / 0.5)


def test_config_validation():
    for bad in (GraphConfig(theta_pos=0.0), GraphConfig(theta_pos=1.0),
                GraphConfig(gamma=1.0), GraphConfig(mode="foo")):
        with pytest.raises(ValueError):
            bad.validate()


def _pinned_graph_input(T):
    rng = np.random.default_rng(T)
    m = rng.standard_normal((2, T, 16))
    W1 = np.eye(16) + 0.1 * rng.standard_normal((16, 16))
    W2 = np.eye(16) + 0.1 * rng.standard_normal((16, 16))
    return m, W1, W2


# sha256 of the adjacency bytes of a seeded 2 x T x 16 stack. The Grams
# go through BLAS, where the routine numpy picks (syrk for u @ u.T of one
# buffer, gemm on transposed views) sets the last bits; see build_adjacency.
PINNED_ADJACENCY = {
    ("dense", 63): "2608808096edc71c15a447f8bf7f66c6e0e3f040faacbf8232e74064cd77f3b7",
    ("dense", 100): "28392ae74126333b341d4d663f486cf1e0500cf1d7afe6a127dc7c9c918e65e5",
    ("dense", 257): "935539bf6e20cddef5f5458f187a6aaafe664505ea5da49af5a7602f7c652c2a",
    ("sparse", 63): "f1e4a4b0c635ce08b6e00f387972829dcda57e17cfbca4700645b75b124b04f8",
    ("sparse", 100): "6826772251b62a7c4d448b712df58d3ff13e4b9b930325d8f913bc4eaad844ff",
    ("sparse", 257): "c1795a8660e02be5f50736cbfd76eec83f24b8cdf3803953fa258cd7e860bb72",
}


@pytest.mark.parametrize("mode,T", sorted(PINNED_ADJACENCY))
def test_adjacency_bytes_pinned(mode, T):
    adjacency = mg.build_graph(*_pinned_graph_input(T), GraphConfig(mode=mode)).adjacency
    assert hashlib.sha256(adjacency.tobytes()).hexdigest() == PINNED_ADJACENCY[mode, T]
