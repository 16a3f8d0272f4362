"""Nodal and global descriptors of a weighted synchronization graph.

The extracted vector has length N + 6: N random-walk centrality scores
followed by transitivity, modularity, characteristic path length, global
efficiency, radius, and diameter, in that order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph

from .errors import (ConfigError, ConvergenceError, DegenerateGraph,
                     DisconnectedGraph)

GLOBAL_FEATURE_NAMES = ("transitivity", "modularity", "char_path_length",
                        "global_efficiency", "radius", "diameter")

# Exhaustive partition search stays cheap up to this many nodes (Bell(8)=4140);
# beyond it the seeded greedy agglomeration takes over.
_EXACT_MODULARITY_NODES = 8


def feature_names(n_nodes: int) -> list[str]:
    return [f"centrality_{i:03d}" for i in range(n_nodes)] + list(GLOBAL_FEATURE_NAMES)


def _adjacency(graph) -> np.ndarray:
    w = np.asarray(graph, float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError("adjacency must be a square matrix")
    return w


def pagerank_centrality(graph, damping: float = 0.85, tol: float = 1e-12,
                        max_iter: int = 1000) -> np.ndarray:
    """Stationary distribution of the damped weighted random walk.

    Transition probability from i to j is proportional to the edge weight;
    nodes without edges teleport uniformly. Converged when the L1 change of
    the iterate drops below tol.
    """
    w = _adjacency(graph)
    n = w.shape[0]
    strengths = w.sum(axis=1)
    trans = np.zeros_like(w)
    nz = strengths > 0
    trans[nz] = w[nz] / strengths[nz, None]
    trans[~nz] = 1.0 / n
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        x_next = damping * (trans.T @ x) + teleport
        if np.abs(x_next - x).sum() < tol:
            x_next /= x_next.sum()
            return x_next
        x = x_next
    raise ConvergenceError(f"random-walk centrality did not converge in {max_iter} iterations")


def transitivity(graph) -> float:
    """Weighted transitivity: sum of geometric-mean triangle intensities over
    the number of connected triples, with binary degrees."""
    w = _adjacency(graph)
    n = w.shape[0]
    if n < 3:
        raise ConfigError(f"transitivity needs at least 3 nodes, got {n}")
    cbrt = np.cbrt(w)
    triangles_x2 = np.trace(cbrt @ cbrt @ cbrt)  # equals sum_i 2*t_i
    degrees = (w > 0).sum(axis=1)
    triples = float((degrees * (degrees - 1)).sum())
    if triples == 0:
        return 0.0
    return float(triangles_x2 / triples)


# -- modularity -------------------------------------------------------------

def _partition_quality(w: np.ndarray, labels: np.ndarray, total: float) -> float:
    """Q = (1/l) sum_ij [w_ij - k_i k_j / l] delta(c_i, c_j), diagonal included."""
    strengths = w.sum(axis=1)
    q = 0.0
    for c in np.unique(labels):
        members = labels == c
        s_in = float(w[np.ix_(members, members)].sum())
        s_tot = float(strengths[members].sum())
        q += s_in / total - (s_tot / total) ** 2
    return q


def _exact_best_partition(w: np.ndarray, total: float) -> tuple[np.ndarray, float]:
    """Globally optimal partition by enumerating all set partitions.

    Per-block quality is precomputed for every node subset with a bitmask DP,
    so each partition costs O(#blocks).
    """
    n = w.shape[0]
    strengths = w.sum(axis=1)
    pair_term = w / total - np.outer(strengths, strengths) / total ** 2
    q_sub = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        cross = 0.0
        m = rest
        while m:
            u = (m & -m).bit_length() - 1
            cross += pair_term[v, u]
            m &= m - 1
        q_sub[mask] = q_sub[rest] + 2.0 * cross + pair_term[v, v]

    best_q = -np.inf
    best_blocks: list[int] = []
    blocks: list[int] = []

    def recurse(rest: int, acc: float):
        nonlocal best_q, best_blocks
        if not rest:
            if acc > best_q:
                best_q, best_blocks = acc, blocks.copy()
            return
        low = rest & -rest
        others = rest ^ low
        sub = others
        while True:
            block = low | sub
            blocks.append(block)
            recurse(rest ^ block, acc + q_sub[block])
            blocks.pop()
            if sub == 0:
                break
            sub = (sub - 1) & others

    recurse((1 << n) - 1, 0.0)
    labels = np.zeros(n, dtype=int)
    for lab, block in enumerate(best_blocks):
        for v in range(n):
            if block >> v & 1:
                labels[v] = lab
    return labels, float(best_q)


def _greedy_level(w: np.ndarray, total: float, rng: np.random.Generator) -> np.ndarray:
    """One local-move level: shuffle nodes, greedily reassign until stable.

    Gains are measured relative to the node sitting in a singleton community,
    so a move happens only when it strictly beats both staying put and
    isolating the node.
    """
    n = w.shape[0]
    strengths = w.sum(axis=1)
    labels = np.arange(n)
    s_tot = {int(c): float(strengths[c]) for c in range(n)}
    size = {int(c): 1 for c in range(n)}
    fresh = n
    moved = True
    while moved:
        moved = False
        for i in rng.permutation(n):
            i = int(i)
            cur = int(labels[i])
            s_tot[cur] -= strengths[i]
            size[cur] -= 1
            link: dict[int, float] = {}
            row = w[i]
            for j in np.flatnonzero(row > 0):
                j = int(j)
                if j != i:
                    c = int(labels[j])
                    link[c] = link.get(c, 0.0) + 2.0 * row[j]

            def gain(c: int) -> float:
                return link.get(c, 0.0) / total - 2.0 * s_tot[c] * strengths[i] / total ** 2

            options: dict[int | None, float] = {None: 0.0}  # None = stay singleton
            for c in link:
                options[c] = gain(c)
            home = cur if size[cur] > 0 else None
            if home is not None and home not in options:
                options[home] = gain(home)
            best_c, best_gain = home, options[home]
            for c, g in options.items():
                if g > best_gain + 1e-15:
                    best_c, best_gain = c, g
            if best_c == home:
                target = cur
            elif best_c is None:
                target = fresh
                fresh += 1
                s_tot[target] = 0.0
                size[target] = 0
                moved = True
            else:
                target = int(best_c)
                moved = True
            labels[i] = target
            s_tot[target] = s_tot.get(target, 0.0) + float(strengths[i])
            size[target] = size.get(target, 0) + 1
    _, compact = np.unique(labels, return_inverse=True)
    return compact


def _aggregate(w: np.ndarray, labels: np.ndarray) -> np.ndarray:
    k = labels.max() + 1
    agg = np.zeros((k, k))
    for a in range(k):
        ia = labels == a
        for b in range(a, k):
            ib = labels == b
            agg[a, b] = agg[b, a] = float(w[np.ix_(ia, ib)].sum())
    return agg


def _greedy_best_partition(w: np.ndarray, total: float,
                           rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Multi-level greedy agglomeration (local moves + aggregation)."""
    node_labels = np.arange(w.shape[0])
    level = w.copy()
    best_q = _partition_quality(w, node_labels, total)
    while True:
        level_labels = _greedy_level(level, total, rng)
        node_labels_next = level_labels[node_labels]
        q = _partition_quality(w, node_labels_next, total)
        if q <= best_q + 1e-14:
            break
        best_q = q
        node_labels = node_labels_next
        level = _aggregate(level, level_labels)
        if level.shape[0] == 1:
            break
    return node_labels, best_q


def best_partition(graph, seed: int = 0, restarts: int = 8) -> tuple[np.ndarray, float]:
    """Community labels and their quality score Q.

    Exhaustive search for graphs of at most 8 nodes (the optimum is cheap to
    enumerate there); seeded multi-restart greedy agglomeration otherwise.
    """
    w = _adjacency(graph)
    total = float(w.sum())
    if total <= 0:
        raise DegenerateGraph("zero total weight: modularity undefined")
    if w.shape[0] <= _EXACT_MODULARITY_NODES:
        return _exact_best_partition(w, total)
    best_labels, best_q = None, -np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, q = _greedy_best_partition(w, total, rng)
        if q > best_q:
            best_q, best_labels = q, labels
    if best_q < 0.0:
        # the one-community partition always scores exactly 0
        return np.zeros(w.shape[0], dtype=int), 0.0
    return best_labels, best_q


def modularity(graph, seed: int = 0) -> float:
    """Quality Q of the best community partition found (deterministic per seed)."""
    _, q = best_partition(graph, seed=seed)
    return float(q)


# -- path-based metrics -----------------------------------------------------

def distance_matrix(graph) -> np.ndarray:
    """All-pairs shortest path lengths with edge length 1/weight.

    Zero-weight pairs have infinite direct length; indirect routes may still
    connect them. Computed by scipy's compiled Dijkstra search from every node.
    """
    w = _adjacency(graph)
    if w.min() < 0 or w.max() > 1:
        raise ConfigError("edge weights must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        lengths = np.where(w > 0, 1.0 / w, 0.0)  # csgraph reads 0 as "no edge"
    np.fill_diagonal(lengths, 0.0)
    return scipy.sparse.csgraph.shortest_path(lengths, method="D", directed=False)


def global_descriptors(graph) -> tuple[float, float, float, float]:
    """(char path length, global efficiency, radius, diameter) of a connected graph."""
    dist = distance_matrix(graph)
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    pair_dists = dist[off]
    if not np.all(np.isfinite(pair_dists)):
        raise DisconnectedGraph("infinite path length between some node pairs")
    lam = float(pair_dists.mean())
    efficiency = float((1.0 / pair_dists).mean())
    eccentricity = dist.max(axis=1)
    return lam, efficiency, float(eccentricity.min()), float(eccentricity.max())


def extract_features(graph, seed: int = 0) -> np.ndarray:
    """Concatenate centrality scores with the six global descriptors."""
    centrality = pagerank_centrality(graph)
    trans = transitivity(graph)
    q = modularity(graph, seed=seed)
    lam, efficiency, radius, diameter = global_descriptors(graph)
    values = np.concatenate([centrality,
                             [trans, q, lam, efficiency, radius, diameter]])
    if not np.all(np.isfinite(values)):
        raise ConfigError("feature vector contains non-finite entries")
    return values
