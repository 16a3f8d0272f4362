"""Nodal and global descriptors of weighted synchronization graphs.

The extracted vector has length N + 6: N random-walk centrality scores followed by
transitivity, modularity, characteristic path length, global efficiency, radius, and
diameter, in that order. Each public function takes one (n, n) graph or a whole
(frames, n, n) stack, and gives each frame its bits alone. Above 8 nodes the greedy
modularity search runs every (frame, restart) lane of a stack in lockstep, one node
visit per lane a step, and sums the community blocks of a level's lanes in one pass.
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
_BLOCK_BUDGET = 1 << 16  # the most block cells, or block elements, `_block_sums` holds at once
MIN_NODES = 3  # the fewest nodes `transitivity`, and so a feature vector, takes


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
    if w.shape[1] < MIN_NODES:
        raise ConfigError(f"transitivity needs at least {MIN_NODES} nodes, got {w.shape[1]}")
    cbrt = np.cbrt(w)
    triangles_x2 = np.trace(cbrt @ cbrt @ cbrt, axis1=1, axis2=2)  # equals sum_i 2*t_i
    degrees = (w > 0).sum(axis=2)
    triples = (degrees * (degrees - 1)).sum(axis=1).astype(float)
    value = np.divide(triangles_x2, triples, out=np.zeros(len(w)), where=triples != 0)
    return float(value[0]) if single else value


# -- modularity -------------------------------------------------------------

def _block_sums(values: np.ndarray, index, labels: np.ndarray, upper: bool = False):
    """Community sums of many lanes, padded with 0: lane l sorts the nodes of values[index[l]]
    stably by its compact labels[l]. Of node values (G, n), each community's run (lanes, k);
    of graphs (G, n, n), each diagonal block (lanes, k), or with `upper` every block a <= b,
    mirrored (lanes, k, k). Blocks of one shape are gathered as one C-ordered (blocks, m, p)
    array and each summed as its contiguous copy sums, pairwise (np.add.reduceat is not)."""
    lanes, n = labels.shape
    k, each = int(labels.max()) + 1, np.arange(lanes)[:, None]
    out, step = np.zeros((lanes, k, k) if upper else (lanes, k)), max(1, _BLOCK_BUDGET // k ** 2)
    if lanes > step:  # a bounded number of blocks a pass
        for i in range(0, lanes, step):
            part = _block_sums(values, index[i:i + step], labels[i:i + step], upper)
            out[(slice(i, i + step), *map(slice, part.shape[1:]))] = part  # padded to its k
        return out
    size = np.bincount((labels + each * k).ravel(), minlength=lanes * k).reshape(lanes, k)
    start = np.cumsum(size, axis=1) - size + each * n  # into the lanes' sorted nodes
    node = np.argsort(labels, axis=1, kind="stable")
    pos, node, flat = (node + np.asarray(index)[:, None] * n).ravel(), node.ravel(), values.ravel()
    lane, a, b = np.nonzero((size[:, :, None] > 0) & (size[:, None, :] > 0)
                            & (np.triu(np.ones((k, k), bool)) if upper else np.eye(k, dtype=bool)))
    m, p = size[lane, a], (size[lane, b] if values.ndim == 3 else np.ones_like(a))
    sa, sb, shape = start[lane, a], start[lane, b], m * n + p
    by_shape, sums = np.argsort(shape, kind="stable"), np.empty(len(lane))
    for same in np.split(by_shape, np.flatnonzero(np.diff(shape[by_shape])) + 1):
        rows, cols = np.arange(m[same[0]]), np.arange(p[same[0]])
        step = max(1, _BLOCK_BUDGET // (rows.size * cols.size))
        for part in (same[i:i + step] for i in range(0, len(same), step)):
            at = pos[sa[part, None] + rows]  # the block's rows, as rows of `values`
            if values.ndim == 3:
                at = (at * n)[:, :, None] + node[sb[part, None] + cols][:, None, :]
            sums[part] = flat.take(at).reshape(len(part), -1).sum(axis=1)
    out[(lane, a, b)[:out.ndim]] = out[(lane, b, a)[:out.ndim]] = sums  # mirrored if upper
    return out


def _qualities(w: np.ndarray, frames, labels: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Q = (1/l) sum_ij [w_ij - k_i k_j / l] delta(c_i, c_j), diagonal included, of each lane's
    labels[l] of w[frames[l]] with l = totals[l] > 0; terms in label order, Python's pow."""
    s_in, s_tot = _block_sums(w, frames, labels), _block_sums(w.sum(axis=2), frames, labels)
    square = np.reshape([r ** 2 for r in (s_tot / totals[:, None]).ravel().tolist()], s_tot.shape)
    # a padded community adds 0/l - 0 = +0.0, which leaves a sum that starts at +0.0 as it is
    return sum((s_in / totals[:, None] - square).T, np.zeros(len(labels)))


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


def _first_seen_scan(gain: np.ndarray, labels: np.ndarray, row: np.ndarray, cur: int,
                     stays: bool, fresh: int) -> int:
    """One lane's move by the scalar scan: staying put is the default, isolating the node
    is scanned next, then the linked communities in the order their first node appears.
    A candidate wins only by more than 1e-15 over the best so far."""
    gain = gain.tolist()
    best, best_gain = cur, 0.0
    if stays:
        best_gain = gain[cur]
        if 0.0 > best_gain + 1e-15:
            best, best_gain = fresh, 0.0
    linked = labels[row > 0]
    for c in linked[np.sort(np.unique(linked, return_index=True)[1])].tolist():
        if gain[c] > best_gain + 1e-15:
            best, best_gain = c, gain[c]
    return best


def _more_labels(s_tot: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twice the label columns, the new ones empty."""
    return (np.concatenate([s_tot, np.zeros_like(s_tot)], axis=1),
            np.concatenate([size, np.zeros_like(size)], axis=1))


def _greedy_levels(graphs: np.ndarray, totals: np.ndarray, rngs, index) -> np.ndarray:
    """One local-move level for each lane, all lanes in lockstep.

    `graphs` is a (graphs, n, n) stack and lane l works on graphs[index[l]], so lanes on
    one graph share its links. Lane l shuffles its nodes with rngs[l] and reassigns them
    greedily until a pass moves none, against the frame total totals[l]. Gains are
    measured relative to the node sitting in a singleton community, so a move happens
    only when it strictly beats both staying put and isolating the node. Each step visits
    one node in every live lane: one bincount sums each lane's community links in node
    order, and the gains are the scalar scan's, elementwise. The best gain wins outright
    when the runner-up lies more than 1e-15 below it; otherwise that lane takes the
    scalar scan, whose order decides.
    """
    n, index = graphs.shape[1], np.asarray(index)
    lanes = len(index)
    links = np.where(graphs > 0, 2.0 * graphs, 0.0)
    links[:, range(n), range(n)] = 0.0  # a node never links to itself
    strengths = graphs.sum(axis=2)
    total_sq = np.array([t ** 2 for t in totals.tolist()])  # Python's pow, as per lane
    out = np.empty((lanes, n), dtype=np.intp)
    live, cap = np.arange(lanes), n + 2
    labels = np.arange(n) + np.arange(lanes)[:, None] * cap  # flat: lane * cap + label
    s_tot, size = np.zeros((lanes, cap)), np.zeros((lanes, cap), dtype=np.intp)
    s_tot[:, :n], size[:, :n] = strengths[index], 1
    fresh = np.full(lanes, n)  # each lane's next unused label
    while live.size:
        graph, base, row_at = index[live], np.arange(live.size) * cap, np.arange(live.size) * n
        order = np.array([rngs[l].permutation(n) for l in live.tolist()])
        moved = np.zeros(live.size, dtype=bool)
        tot, tsq = totals[live, None], total_sq[live, None]
        for i in order.T:  # lane l visits its node i[l], at flat position row_at[l] + i[l]
            k_i, at = strengths[graph, i], row_at + i
            cur = labels.take(at)
            s_tot.put(cur, s_tot.take(cur) - k_i)
            size.put(cur, size.take(cur) - 1)
            row = links[graph, i]
            link = np.bincount(labels.ravel(), row.ravel(), live.size * cap).reshape(live.size, cap)
            gain = link / tot
            gain -= 2.0 * s_tot * k_i[:, None] / tsq
            stays = size.take(cur) > 0
            cand = np.where(link > 0, gain, -np.inf)
            cand.put(cur, np.where(stays, gain.take(cur), 0.0))
            cand.put((fresh + base)[stays], 0.0)  # isolating the node
            best, top = cand.argmax(axis=1), cand.max(axis=1)  # NaN, if any, is both
            cand.put(best + base, -np.inf)
            for l in np.flatnonzero(~(top > cand.max(axis=1) + 1e-15)).tolist():
                best[l] = _first_seen_scan(gain[l], labels[l] - base[l], row[l],
                                           cur[l] - base[l], stays[l], fresh[l])
            fresh += best == fresh
            best += base
            moved |= best != cur
            labels.put(at, best)
            s_tot.put(best, s_tot.take(best) + k_i)
            size.put(best, size.take(best) + 1)
            if fresh.max() == cap:
                s_tot, size = _more_labels(s_tot, size)
                labels += base[:, None]
                cap, base = 2 * cap, 2 * base
        done = ~moved
        flat = np.unique(labels[done], return_inverse=True)[1].reshape(-1, n)
        out[live[done]] = flat - flat.min(axis=1, keepdims=True)
        labels = labels[moved] + (np.arange(moved.sum()) * cap - base[moved])[:, None]
        live, s_tot, size, fresh = (a[moved] for a in (live, s_tot, size, fresh))
    return out


def _greedy_best_partitions(w: np.ndarray, totals: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Multi-level greedy agglomeration (local moves + aggregation) of each frame from
    seeded restarts; the best restart wins. Every (frame, restart) lane runs its levels in
    lockstep with the lanes whose level has as many nodes; a level is scored in one pass."""
    frames, n = w.shape[:2]
    frame = np.repeat(np.arange(frames), _GREEDY_RESTARTS)
    rngs = [np.random.default_rng([seed, r]) for seed in seeds for r in range(_GREEDY_RESTARTS)]
    # restarts repeat: Q by (frame, labels); graphs by key, a frame's index or (key, labels)
    qualities, levels = {}, dict(enumerate(w))

    def quality(lanes, lane_labels):
        keys = [(int(frame[l]), labels.tobytes()) for l, labels in zip(lanes, lane_labels)]
        new = {key: labels for key, labels in zip(keys, lane_labels) if key not in qualities}
        if new:
            f = np.array([key[0] for key in new])
            qualities.update(zip(new, _qualities(w, f, np.stack(list(new.values())),
                                                 totals[f]).tolist()))
        return [qualities[key] for key in keys]

    node_labels = [np.arange(n)] * len(frame)
    best_q = quality(range(len(frame)), node_labels)
    level = dict(enumerate(frame.tolist()))  # the key of each agglomerating lane's graph
    while level:
        by_size, merges, sources = {}, [], {}
        for l, key in level.items():
            by_size.setdefault(levels[key].shape[0], []).append(l)
        for group in by_size.values():
            at = [level.pop(l) for l in group]
            keys = {k: i for i, k in enumerate(dict.fromkeys(at))}  # each graph once
            found = _greedy_levels(np.stack([levels[k] for k in keys]), totals[frame[group]],
                                   [rngs[l] for l in group], [keys[k] for k in at])
            merges += [(l, key, ll) for l, key, ll, fewer in zip(  # else Q is unchanged
                group, at, found, found.max(axis=1) + 1 < found.shape[1]) if fewer]
        merged = [ll[node_labels[l]] for l, _, ll in merges]
        for (l, key, level_labels), labels, q in zip(
                merges, merged, quality([l for l, _, _ in merges], merged)):
            if not q <= best_q[l] + 1e-14:
                best_q[l], node_labels[l], key = q, labels, (key, level_labels.tobytes())
                if key not in levels:
                    sources.setdefault(len(level_labels), {})[key] = level_labels
                if level_labels.max() > 0:  # more than one community left
                    level[l] = key
        for new in sources.values():  # each aggregation once, one pass a graph size
            keys = {k: i for i, k in enumerate(dict.fromkeys(key for key, _ in new))}
            parts = np.stack(list(new.values()))
            levels.update((key, s[:k, :k].copy()) for key, s, k in zip(  # unpadded copies
                new, _block_sums(np.stack([levels[k] for k in keys]),
                                 [keys[key] for key, _ in new], parts, True),
                (parts.max(axis=1) + 1).tolist()))
    labels, q = np.zeros((frames, n), dtype=int), np.full(frames, -np.inf)
    for l, f in enumerate(frame.tolist()):  # restarts in order: the first best wins
        if best_q[l] > q[f]:
            q[f], labels[f] = best_q[l], node_labels[l]
    negative = q < 0.0  # the one-community partition always scores exactly 0
    q[negative], labels[negative] = 0.0, 0
    return labels, q


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
    _refuse(totals ** 2 == 0, single, DegenerateGraph,
            "total weight squares to 0: modularity undefined")
    if n <= _EXACT_MODULARITY_NODES:
        labels, q = _exact_best_partitions(w, totals)
        return (labels[0], float(q[0])) if single else (labels, q)
    with np.errstate(invalid="ignore"):  # an infinite weight gives NaN gains, as in floats
        labels, q = _greedy_best_partitions(w, totals, seeds)
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
