"""Nodal and global descriptors of weighted synchronization graphs.

The extracted vector has length N + 6: N random-walk centrality scores
followed by transitivity, modularity, characteristic path length, global
efficiency, radius, and diameter, in that order. Each public function takes one
(n, n) graph or a whole (frames, n, n) stack, and gives each frame its bits alone.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import (ConfigError, ConvergenceError, DegenerateGraph,
                     DisconnectedGraph, NeurolockError)

GLOBAL_FEATURE_NAMES = ("transitivity", "modularity", "char_path_length",
                        "global_efficiency", "radius", "diameter")

# Exhaustive partition search stays cheap up to this many nodes (Bell(8)=4140);
# beyond it the seeded greedy agglomeration takes over.
_EXACT_MODULARITY_NODES = 8
# seeded restarts of the greedy search; the best partition found wins
_GREEDY_RESTARTS = 8


def feature_names(n_nodes: int) -> list[str]:
    return [f"centrality_{i:03d}" for i in range(n_nodes)] + list(GLOBAL_FEATURE_NAMES)


def _stack(graph) -> tuple[np.ndarray, bool]:
    """The input as a (frames, n, n) stack, and whether it was one (n, n) graph."""
    w = np.asarray(graph, float)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2]:
        raise ConfigError("adjacency must be a square matrix or a stack of them")
    return (w[None], True) if w.ndim == 2 else (w, False)


def _refuse(bad: np.ndarray, single: bool, kind: type, message: str) -> None:
    """Raise `kind` for the lowest frame flagged in `bad`, naming it on a stack."""
    if bad.any():
        exc = kind(message if single else f"frame {bad.argmax()}: {message}")
        exc.frame = int(bad.argmax())
        raise exc


def pagerank_centrality(graph) -> np.ndarray:
    """Stationary distribution of the random walk damped at 0.85.

    Transition probability from i to j is proportional to the edge weight;
    nodes without edges teleport uniformly. A frame has converged when the L1
    change of its iterate drops below 1e-12, within 1000 iterations.
    """
    damping, tol, max_iter = 0.85, 1e-12, 1000
    w, single = _stack(graph)
    frames, n = w.shape[:2]
    strengths = w.sum(axis=2, keepdims=True)
    trans = np.where(strengths > 0, w / np.where(strengths > 0, strengths, 1.0), 1.0 / n)
    x = np.full((frames, n), 1.0 / n)
    out, pending = np.empty_like(x), np.ones(frames, dtype=bool)
    for _ in range(max_iter):
        x_next = damping * (x[:, None] @ trans)[:, 0] + (1.0 - damping) / n  # trans.T @ x
        done = pending & (np.abs(x_next - x).sum(axis=1) < tol)  # each frame at its own step
        out[done] = x_next[done] / x_next[done].sum(axis=1, keepdims=True)
        pending &= ~done
        if not pending.any():
            return out[0] if single else out
        x = x_next
    _refuse(pending, single, ConvergenceError,
            f"random-walk centrality did not converge in {max_iter} iterations")


def transitivity(graph):
    """Weighted transitivity: sum of geometric-mean triangle intensities over
    the number of connected triples, with binary degrees."""
    w, single = _stack(graph)
    if w.shape[1] < 3:
        raise ConfigError(f"transitivity needs at least 3 nodes, got {w.shape[1]}")
    cbrt = np.cbrt(w)
    triangles_x2 = np.trace(cbrt @ cbrt @ cbrt, axis1=1, axis2=2)  # equals sum_i 2*t_i
    degrees = (w > 0).sum(axis=2)
    triples = (degrees * (degrees - 1)).sum(axis=1).astype(float)
    value = np.divide(triangles_x2, triples, out=np.zeros(len(w)), where=triples != 0)
    return float(value[0]) if single else value


# -- modularity -------------------------------------------------------------

def _community_blocks(w: np.ndarray, labels: np.ndarray):
    """w with its nodes stably sorted by community label (0..k-1), that order, and each
    community's [start, end) span; a block's contiguous copy sums as w[np.ix_(m, n)] would."""
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    return w[np.ix_(order, order)], order, list(zip(cuts, cuts[1:]))


def _partition_quality(w: np.ndarray, labels: np.ndarray, total: float) -> float:
    """Q = (1/l) sum_ij [w_ij - k_i k_j / l] delta(c_i, c_j), diagonal included."""
    ws, order, spans = _community_blocks(w, labels)
    strengths = w.sum(axis=1)[order]
    q = 0.0
    for a, b in spans:
        s_tot = float(strengths[a:b].sum())
        q += float(ws[a:b, a:b].copy().sum()) / total - (s_tot / total) ** 2
    return q


@functools.lru_cache(maxsize=_EXACT_MODULARITY_NODES)
def _set_partitions(n: int) -> np.ndarray:
    """Every set partition of n nodes, one row of block bitmasks each, padded with 0.

    Rows come in the order of the recursion below: the block holding the lowest
    unassigned node is chosen first, its other members in decreasing bitmask order.
    """
    rows: list[list[int]] = []

    def recurse(blocks: list[int], rest: int):
        if not rest:
            rows.append(blocks + [0] * (n - len(blocks)))
            return
        low = rest & -rest
        others = sub = rest ^ low
        while True:
            recurse(blocks + [low | sub], rest ^ low ^ sub)
            if sub == 0:
                break
            sub = (sub - 1) & others

    recurse([], (1 << n) - 1)
    table = np.array(rows, dtype=np.intp)
    table.flags.writeable = False
    return table


def _exact_best_partitions(w: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Globally optimal partition of each frame by enumerating all set partitions;
    a bitmask DP over node subsets gives each block's quality, O(#blocks) a partition."""
    frames, n = w.shape[:2]
    strengths = w.sum(axis=2)
    total_sq = np.array([t ** 2 for t in totals.tolist()])  # Python's pow, as per frame
    pair_term = (w / totals[:, None, None] - strengths[:, :, None] * strengths[:, None, :]
                 / total_sq[:, None, None])
    # q_sub[mask] = q_sub[rest] + 2 * cross + pair_term[v, v]: v is the mask's lowest
    # node, rest the mask without v, cross the sum of pair_term[v, u] over u in rest, ascending
    low = np.array([(m & -m).bit_length() - 1 for m in range(1 << n)])
    cross = np.zeros((frames, 1 << n))
    for h in range(1, n):  # masks whose highest node is h, from the mask without it
        cross[:, (1 << h) + 1:2 << h] = cross[:, 1:1 << h] + pair_term[:, low[1:1 << h], h]
    q_sub = np.zeros((frames, 1 << n))
    for v in range(n - 1, -1, -1):  # masks whose lowest node is v, from their rest
        q_sub[:, 1 << v::2 << v] = (q_sub[:, ::2 << v] + 2.0 * cross[:, 1 << v::2 << v]
                                    + pair_term[:, v, v, None])
    table = _set_partitions(n)
    # left to right, one block per step, as a running sum over each row's blocks
    q = 0.0 + q_sub[:, table[:, 0]]
    for col in range(1, n):
        q += q_sub[:, table[:, col]]
    best = q.argmax(axis=1)  # the first maximum, in enumeration order
    member = table[best][:, :, None] >> np.arange(n) & 1  # (frames, block, node)
    return member.argmax(axis=1), q[np.arange(frames), best]


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
            moved |= best != cur
            labels[i] = best
            s_tot[best] += k_i
            size[best] += 1
    return np.unique(labels, return_inverse=True)[1]


def _aggregate(w: np.ndarray, labels: np.ndarray) -> np.ndarray:
    ws, _, spans = _community_blocks(w, labels)
    agg = np.zeros((len(spans), len(spans)))
    for a, (a0, a1) in enumerate(spans):
        for b, (b0, b1) in enumerate(spans[a:], start=a):
            agg[a, b] = agg[b, a] = float(ws[a0:a1, b0:b1].copy().sum())
    return agg


def _greedy_best_partition(w: np.ndarray, total: float, rng: np.random.Generator,
                           singleton_q: float) -> tuple[np.ndarray, float]:
    """Multi-level greedy agglomeration (local moves + aggregation)."""
    node_labels, level, best_q = np.arange(w.shape[0]), w, singleton_q
    while True:
        level_labels = _greedy_level(level, total, rng)
        if level_labels.max() + 1 == level.shape[0]:
            break  # no community merged: the partition and its Q are unchanged
        node_labels_next = level_labels[node_labels]
        q = _partition_quality(w, node_labels_next, total)
        if q <= best_q + 1e-14:
            break
        best_q, node_labels = q, node_labels_next
        level = _aggregate(level, level_labels)
        if level.shape[0] == 1:
            break
    return node_labels, best_q


def best_partition(graph, seeds=0):
    """Community labels and their quality score Q, per frame of a stack.

    Exhaustive search for graphs of at most 8 nodes (the optimum is cheap to
    enumerate there); seeded multi-restart greedy agglomeration otherwise,
    with `seeds` one int per frame, or one int for every frame.
    """
    w, single = _stack(graph)
    frames, n = w.shape[:2]
    totals = w.sum(axis=(1, 2))
    seeds = [seeds] * frames if isinstance(seeds, numbers.Integral) else list(seeds)
    if len(seeds) != frames:
        raise ConfigError(f"{len(seeds)} seeds for {frames} frames")
    _refuse(totals <= 0, single, DegenerateGraph, "zero total weight: modularity undefined")
    if n <= _EXACT_MODULARITY_NODES:
        labels, q = _exact_best_partitions(w, totals)
        return (labels[0], float(q[0])) if single else (labels, q)
    labels, q = np.zeros((frames, n), dtype=int), np.zeros(frames)
    for f, (g, total, seed) in enumerate(zip(w, totals.tolist(), seeds)):
        singleton_q = _partition_quality(g, np.arange(n), total)
        best_q = -np.inf
        for r in range(_GREEDY_RESTARTS):
            rng = np.random.default_rng([seed, r])
            frame_labels, frame_q = _greedy_best_partition(g, total, rng, singleton_q)
            if frame_q > best_q:
                best_q, labels[f] = frame_q, frame_labels
        if best_q < 0.0:  # the one-community partition always scores exactly 0
            best_q, labels[f] = 0.0, 0
        q[f] = best_q
    return (labels[0], float(q[0])) if single else (labels, q)


def modularity(graph, seeds=0):
    """Quality Q of the best community partition found (deterministic per seed)."""
    return best_partition(graph, seeds)[1]


# -- path-based metrics -----------------------------------------------------

def distance_matrix(graph) -> np.ndarray:
    """All-pairs shortest path lengths with edge length 1/weight.

    Zero-weight pairs have infinite direct length; indirect routes may still
    connect them. A dense Dijkstra runs from every source of every frame at once;
    each step settles each source's nearest unsettled node u, so each distance is
    the float minimum of dist[u] + length[u, v] that a heap-based Dijkstra takes.
    """
    w, single = _stack(graph)
    _refuse(~((w >= 0) & (w <= 1)).all(axis=(1, 2)), single, ConfigError,
            "edge weights must be finite and lie in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):  # subnormal weights overflow
        lengths = np.where(w > 0, 1.0 / w, np.inf)
    lengths = np.minimum(lengths, lengths.transpose(0, 2, 1))  # undirected
    frames, n = w.shape[:2]
    settled = np.broadcast_to(np.eye(n, dtype=bool), w.shape).copy()  # each source
    dist = np.where(settled, 0.0, lengths)  # (frame, source, node)
    frame, source = np.arange(frames)[:, None], np.arange(n)
    for _ in range(n - 2):  # the last node to settle has nothing left to relax
        u = np.where(settled, np.inf, dist).argmin(axis=2)
        settled[frame, source, u] = True
        np.minimum(dist, dist[frame, source, u][..., None] + lengths[frame, u], out=dist)
    return dist[0] if single else dist


def global_descriptors(graph):
    """(char path length, global efficiency, radius, diameter) of connected graphs,
    as four floats for one graph or four per-frame arrays for a stack."""
    dist, single = _stack(distance_matrix(graph))
    # C order: a row-wise mean then sums each frame's pairs as the per-frame mean does
    pair_dists = np.ascontiguousarray(dist[:, ~np.eye(dist.shape[1], dtype=bool)])
    _refuse(~np.isfinite(pair_dists).all(axis=1), single, DisconnectedGraph,
            "infinite path length between some node pairs")
    eccentricity = dist.max(axis=2)
    values = (pair_dists.mean(axis=1), (1.0 / pair_dists).mean(axis=1),
              eccentricity.min(axis=1), eccentricity.max(axis=1))
    return tuple(float(v[0]) for v in values) if single else values


def extract_features(graphs, seeds=0) -> np.ndarray:
    """Concatenate centrality scores with the six global descriptors, one row per
    frame of a stack (`seeds` as in `best_partition`)."""
    w = np.asarray(graphs, float)
    try:
        centrality = pagerank_centrality(w)
        descriptors = [transitivity(w), modularity(w, seeds), *global_descriptors(w)]
        values = np.concatenate([centrality, np.stack(descriptors, axis=-1)], axis=-1)
        _refuse(~np.isfinite(values).reshape(-1, values.shape[-1]).all(axis=1),
                values.ndim == 1, ConfigError, "feature vector contains non-finite entries")
    except NeurolockError as exc:
        # frame by frame, an earlier frame failing at a later stage would fail first
        if getattr(exc, "frame", 0):
            extract_features(w[:exc.frame], seeds if isinstance(seeds, numbers.Integral)
                             else seeds[:exc.frame])
        raise
    return values
