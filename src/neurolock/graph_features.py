"""Nodal and global descriptors of a weighted synchronization graph.

The extracted vector has length N + 6: N random-walk centrality scores
followed by transitivity, modularity, characteristic path length, global
efficiency, radius, and diameter, in that order.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (ConfigError, ConvergenceError, DegenerateGraph,
                     DisconnectedGraph)

GLOBAL_FEATURE_NAMES = ("transitivity", "modularity", "char_path_length",
                        "global_efficiency", "radius", "diameter")

# Exhaustive partition search stays cheap up to this many nodes (Bell(8)=4140);
# beyond it the seeded greedy agglomeration takes over.
_EXACT_MODULARITY_NODES = 8
# seeded restarts of the greedy search; the best partition found wins
_GREEDY_RESTARTS = 8


def feature_names(n_nodes: int) -> list[str]:
    return [f"centrality_{i:03d}" for i in range(n_nodes)] + list(GLOBAL_FEATURE_NAMES)


def _adjacency(graph) -> np.ndarray:
    w = np.asarray(graph, float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError("adjacency must be a square matrix")
    return w


def pagerank_centrality(graph) -> np.ndarray:
    """Stationary distribution of the random walk damped at 0.85.

    Transition probability from i to j is proportional to the edge weight;
    nodes without edges teleport uniformly. Converged when the L1 change of
    the iterate drops below 1e-12, within 1000 iterations.
    """
    damping, tol, max_iter = 0.85, 1e-12, 1000
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
    order = np.argsort(labels, kind="stable")
    ws = w[np.ix_(order, order)]
    strengths = w.sum(axis=1)[order]
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    q = 0.0
    for a, b in zip(cuts, cuts[1:]):
        # a contiguous copy sums the community block in the order w[np.ix_(m, m)] would
        s_in = float(ws[a:b, a:b].copy().sum())
        s_tot = float(strengths[a:b].sum())
        q += s_in / total - (s_tot / total) ** 2
    return q


@functools.lru_cache(maxsize=_EXACT_MODULARITY_NODES)
def _set_partitions(n: int) -> np.ndarray:
    """Every set partition of n nodes, one row of block bitmasks each, padded with 0.

    Rows come in the order of the recursion below: the block holding the lowest
    unassigned node is chosen first, its other members in decreasing bitmask order.
    """
    rows: list[list[int]] = []
    blocks: list[int] = []

    def recurse(rest: int):
        if not rest:
            rows.append(blocks + [0] * (n - len(blocks)))
            return
        low = rest & -rest
        others = rest ^ low
        sub = others
        while True:
            blocks.append(low | sub)
            recurse(rest ^ blocks[-1])
            blocks.pop()
            if sub == 0:
                break
            sub = (sub - 1) & others

    recurse((1 << n) - 1)
    table = np.array(rows, dtype=np.intp)
    table.flags.writeable = False
    return table


def _exact_best_partition(w: np.ndarray, total: float) -> tuple[np.ndarray, float]:
    """Globally optimal partition by enumerating all set partitions.

    Per-block quality is precomputed for every node subset with a bitmask DP,
    so each partition costs O(#blocks).
    """
    n = w.shape[0]
    strengths = w.sum(axis=1)
    pair_term = (w / total - np.outer(strengths, strengths) / total ** 2).tolist()
    q_sub = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        cross = 0.0
        m = rest
        while m:
            u = (m & -m).bit_length() - 1
            cross += pair_term[v][u]
            m &= m - 1
        q_sub[mask] = q_sub[rest] + 2.0 * cross + pair_term[v][v]

    table = _set_partitions(n)
    q_sub = np.array(q_sub)
    # left to right, one block per step, as a running sum over each row's blocks
    q = 0.0 + q_sub[table[:, 0]]
    for col in range(1, n):
        q += q_sub[table[:, col]]
    best = int(np.argmax(q))  # the first maximum, in enumeration order
    labels = np.zeros(n, dtype=int)
    for lab, block in enumerate(table[best].tolist()):
        for v in range(n):
            if block >> v & 1:
                labels[v] = lab
    return labels, float(q[best])


def _greedy_level(w: np.ndarray, total: float, rng: np.random.Generator) -> np.ndarray:
    """One local-move level: shuffle nodes, greedily reassign until stable.

    Gains are measured relative to the node sitting in a singleton community,
    so a move happens only when it strictly beats both staying put and
    isolating the node.
    """
    n = w.shape[0]
    strengths = w.sum(axis=1).tolist()
    rows = w.tolist()
    for i, row in enumerate(rows):
        row[i] = 0.0  # a node never links to itself
    total_sq = total ** 2
    labels = list(range(n))
    s_tot = strengths.copy()
    size = [1] * n
    moved = True
    while moved:
        moved = False
        for i in rng.permutation(n).tolist():
            k_i = strengths[i]
            cur = labels[i]
            s_tot[cur] -= k_i
            size[cur] -= 1
            link: dict[int, float] = {}
            for c, w_ij in zip(labels, rows[i]):  # j ascending
                if w_ij > 0:
                    link[c] = link.get(c, 0.0) + 2.0 * w_ij
            # staying put is the default; isolating the node is scanned next, then
            # the linked communities in first-seen order
            alone = len(size) if size[cur] else cur  # the label that isolates node i
            best, best_gain = cur, 0.0
            if size[cur]:
                best_gain = link.get(cur, 0.0) / total - 2.0 * s_tot[cur] * k_i / total_sq
                if 0.0 > best_gain + 1e-15:
                    best, best_gain = alone, 0.0
            for c, link_c in link.items():
                gain = link_c / total - 2.0 * s_tot[c] * k_i / total_sq
                if gain > best_gain + 1e-15:
                    best, best_gain = c, gain
            if best == len(size):  # a fresh label
                s_tot.append(0.0)
                size.append(0)
            if best != cur:
                moved = True
            labels[i] = best
            s_tot[best] += k_i
            size[best] += 1
    return np.unique(labels, return_inverse=True)[1]


def _aggregate(w: np.ndarray, labels: np.ndarray) -> np.ndarray:
    members = [np.flatnonzero(labels == a) for a in range(labels.max() + 1)]
    k = len(members)
    agg = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            agg[a, b] = agg[b, a] = float(w[np.ix_(members[a], members[b])].sum())
    return agg


def _greedy_best_partition(w: np.ndarray, total: float, rng: np.random.Generator,
                           singleton_q: float) -> tuple[np.ndarray, float]:
    """Multi-level greedy agglomeration (local moves + aggregation)."""
    node_labels = np.arange(w.shape[0])
    level = w
    best_q = singleton_q
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


def best_partition(graph, seed: int = 0) -> tuple[np.ndarray, float]:
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
    singleton_q = _partition_quality(w, np.arange(w.shape[0]), total)
    best_labels, best_q = None, -np.inf
    for r in range(_GREEDY_RESTARTS):
        rng = np.random.default_rng([seed, r])
        labels, q = _greedy_best_partition(w, total, rng, singleton_q)
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
    if not (w.min() >= 0 and w.max() <= 1):  # NaN fails both
        raise ConfigError("edge weights must be finite and lie in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):  # subnormal weights overflow
        lengths = np.where(w > 0, 1.0 / w, 0.0)  # csgraph reads 0 as "no edge"
    np.fill_diagonal(lengths, 0.0)
    import scipy.sparse.csgraph  # here, not at module level: a cache hit never imports it
    return scipy.sparse.csgraph.shortest_path(scipy.sparse.csr_array(lengths), method="D",
                                              directed=False)


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
