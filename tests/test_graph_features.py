import warnings

import numpy as np
import pytest
import scipy.sparse.csgraph

from neurolock import graph_features as gf
from neurolock.errors import (ConfigError, DegenerateGraph, DisconnectedGraph)


def random_graph(rng, n, zero_fraction=0.0):
    u = rng.random((n, n))
    w = (u + u.T) / 2.0
    if zero_fraction:
        mask = rng.random((n, n)) < zero_fraction
        mask = mask | mask.T
        w[mask] = 0.0
    np.fill_diagonal(w, 0.0)
    return w


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def floyd_warshall(w):
    n = w.shape[0]
    with np.errstate(divide="ignore"):
        dist = np.where(w > 0, 1.0 / w, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i, k] + dist[k, j]
                if via < dist[i, j]:
                    dist[i, j] = via
    return dist


def pagerank_dense_solve(w, damping=0.85):
    n = w.shape[0]
    strengths = w.sum(axis=1)
    trans = np.zeros_like(w)
    nz = strengths > 0
    trans[nz] = w[nz] / strengths[nz, None]
    trans[~nz] = 1.0 / n
    x = np.linalg.solve(np.eye(n) - damping * trans.T,
                        np.full(n, (1.0 - damping) / n))
    return x / x.sum()


def transitivity_triple_loop(w):
    n = w.shape[0]
    numer = 0.0
    for i in range(n):
        t_i = 0.0
        for j in range(n):
            for h in range(n):
                if i != j and i != h and j != h:
                    t_i += (w[i, j] * w[i, h] * w[j, h]) ** (1.0 / 3.0)
        numer += t_i  # ordered (j, h) double-counts, which supplies the 2 * t_i
    degrees = (w > 0).sum(axis=1)
    denom = float((degrees * (degrees - 1)).sum())
    return numer / denom if denom else 0.0


def partitions_by_block_growth(n):
    """Set partitions as lists of blocks, grown element by element."""
    if n == 0:
        yield []
        return
    for part in partitions_by_block_growth(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1:]
        yield part + [[n - 1]]


def modularity_of_blocks(w, blocks):
    total = w.sum()
    k = w.sum(axis=1)
    q = 0.0
    for block in blocks:
        for i in block:
            for j in block:
                q += w[i, j] / total - k[i] * k[j] / total ** 2
    return q


def exhaustive_modularity(w):
    return max(modularity_of_blocks(w, blocks)
               for blocks in partitions_by_block_growth(w.shape[0]))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestPagerank:
    def test_uniform_complete_graph(self):
        w = np.ones((5, 5)) - np.eye(5)
        assert gf.pagerank_centrality(w) == pytest.approx(np.full(5, 0.2), abs=1e-12)

    def test_three_node_fixture_matches_dense_solve(self):
        w = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.4], [0.1, 0.4, 0.0]])
        assert gf.pagerank_centrality(w) == pytest.approx(pagerank_dense_solve(w), abs=1e-8)

    def test_sums_to_one_and_positive(self, rng):
        for _ in range(10):
            w = random_graph(rng, 6)
            x = gf.pagerank_centrality(w)
            assert x.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(x > 0)

    def test_relabeling_equivariance(self, rng):
        w = random_graph(rng, 6)
        perm = rng.permutation(6)
        x = gf.pagerank_centrality(w)
        x_perm = gf.pagerank_centrality(w[np.ix_(perm, perm)])
        assert x_perm == pytest.approx(x[perm], abs=1e-10)


class TestTransitivity:
    def test_binary_triangle_is_one(self):
        w = np.ones((3, 3)) - np.eye(3)
        assert gf.transitivity(w) == pytest.approx(1.0)

    def test_path_graph_is_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        assert gf.transitivity(w) == 0.0

    def test_weighted_fixture_matches_triple_enumeration(self, rng):
        for _ in range(5):
            w = random_graph(rng, 4, zero_fraction=0.3)
            if (w > 0).sum() == 0:
                continue
            assert gf.transitivity(w) == pytest.approx(
                transitivity_triple_loop(w), abs=1e-12)

    def test_value_in_unit_interval(self, rng):
        for _ in range(10):
            w = random_graph(rng, 6)
            assert 0.0 <= gf.transitivity(w) <= 1.0


class TestModularity:
    def test_two_disconnected_edges_give_half(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert gf.modularity(w) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_complete_graph_gives_zero(self):
        w = np.ones((6, 6)) - np.eye(6)
        assert gf.modularity(w) == pytest.approx(0.0, abs=1e-12)

    def test_planted_partition_matches_exhaustive(self, rng):
        groups = np.array([0, 0, 0, 1, 1, 1])
        same = groups[:, None] == groups[None, :]
        w = np.where(same, 0.9, 0.1) + rng.uniform(-0.05, 0.05, (6, 6))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        assert gf.modularity(w) == pytest.approx(exhaustive_modularity(w), abs=1e-9)

    def test_greedy_path_matches_exhaustive_on_planted_structure(self, rng):
        # force the multilevel greedy path (used beyond the exact-search size)
        groups = np.repeat([0, 1, 2], 4)
        same = groups[:, None] == groups[None, :]
        w = np.where(same, 0.85, 0.08) + rng.uniform(-0.03, 0.03, (12, 12))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        labels, q = gf.best_partition(w, seed=0)
        # the planted split is recovered
        for g in range(3):
            block = labels[groups == g]
            assert len(set(block.tolist())) == 1
        expected = modularity_of_blocks(w, [list(np.flatnonzero(groups == g))
                                            for g in range(3)])
        assert q == pytest.approx(expected, abs=1e-9)

    def test_zero_weight_graph_raises(self):
        with pytest.raises(DegenerateGraph):
            gf.modularity(np.zeros((3, 3)))

    def test_deterministic_per_seed(self, rng):
        w = random_graph(rng, 10)
        assert gf.modularity(w, seed=7) == gf.modularity(w, seed=7)


class TestDistances:
    def test_two_nodes(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        dist = gf.distance_matrix(w)
        assert dist == pytest.approx(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_indirect_route_wins(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        w[0, 2] = w[2, 0] = 0.1
        dist = gf.distance_matrix(w)
        assert dist[0, 2] == pytest.approx(2.0)

    def test_matches_floyd_warshall(self, rng):
        for n in (4, 6, 14):  # small and mid-size graphs, one Dijkstra path for all
            for _ in range(3):
                w = random_graph(rng, n, zero_fraction=0.4)
                assert gf.distance_matrix(w) == pytest.approx(
                    floyd_warshall(w), abs=1e-10, nan_ok=False)

    def test_sparse_search_equals_dense_search(self, rng):
        # zero and subnormal weights (length inf) are no edge in either input form
        for n in (8, 16):
            for zero_fraction in (0.0, 0.5):
                w = random_graph(rng, n, zero_fraction)
                w[0, 1] = w[1, 0] = 1e-320
                with np.errstate(divide="ignore", over="ignore"):
                    lengths = np.where(w > 0, 1.0 / w, 0.0)
                    dist = gf.distance_matrix(w)
                np.fill_diagonal(lengths, 0.0)
                dense = scipy.sparse.csgraph.shortest_path(lengths, method="D",
                                                           directed=False)
                assert np.array_equal(dist, dense)

    def test_out_of_range_weights_raise(self):
        with pytest.raises(ConfigError):
            gf.distance_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_raise(self, bad):
        w = np.full((4, 4), 0.5)
        np.fill_diagonal(w, 0.0)
        w[0, 3] = w[3, 0] = bad
        with pytest.raises(ConfigError, match="finite"):
            gf.distance_matrix(w)

    def test_subnormal_weight_is_no_edge_without_warning(self):
        w = np.full((4, 4), 0.5)
        np.fill_diagonal(w, 0.0)
        w[0, 3] = w[3, 0] = 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = gf.distance_matrix(w)
        assert dist[0, 3] == dist[3, 0] == 4.0  # through one other node


class TestGlobalDescriptors:
    def test_two_node_graph(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        lam, eff, radius, diameter = gf.global_descriptors(w)
        assert (lam, eff, radius, diameter) == (2.0, 0.5, 2.0, 2.0)

    def test_complete_uniform_graph(self):
        w = np.ones((4, 4)) - np.eye(4)
        lam, eff, radius, diameter = gf.global_descriptors(w)
        assert (lam, eff, radius, diameter) == (1.0, 1.0, 1.0, 1.0)

    def test_five_node_fixture_matches_definitions(self, rng):
        w = random_graph(rng, 5)
        dist = floyd_warshall(w)
        off = ~np.eye(5, dtype=bool)
        lam, eff, radius, diameter = gf.global_descriptors(w)
        assert lam == pytest.approx(dist[off].mean())
        assert eff == pytest.approx((1.0 / dist[off]).mean())
        ecc = dist.max(axis=1)
        assert radius == pytest.approx(ecc.min())
        assert diameter == pytest.approx(ecc.max())

    def test_disconnected_graph_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(DisconnectedGraph):
            gf.global_descriptors(w)

    def test_efficiency_lambda_inequality(self, rng):
        # harmonic mean <= arithmetic mean over the same pair set
        for _ in range(10):
            w = random_graph(rng, 6)
            lam, eff, _, _ = gf.global_descriptors(w)
            assert eff >= 1.0 / lam - 1e-12


class TestExtractFeatures:
    def test_three_node_uniform_fixture(self):
        w = np.ones((3, 3)) - np.eye(3)
        expected = [1 / 3, 1 / 3, 1 / 3, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        assert gf.extract_features(w) == pytest.approx(expected, abs=1e-9)

    def test_length_is_n_plus_six(self, rng):
        w = random_graph(rng, 9)
        assert gf.extract_features(w).shape == (15,)

    def test_global_block_invariant_under_relabeling(self, rng):
        w = random_graph(rng, 6)
        perm = rng.permutation(6)
        a = gf.extract_features(w)
        b = gf.extract_features(w[np.ix_(perm, perm)])
        assert b[6:] == pytest.approx(a[6:], abs=1e-9)
        assert b[:6] == pytest.approx(a[perm], abs=1e-9)

    def test_feature_names_align(self):
        names = gf.feature_names(4)
        assert len(names) == 10
        assert names[4] == "transitivity"
        assert names[-1] == "diameter"
