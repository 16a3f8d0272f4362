"""The modularity search must give the labels and the Q of the earlier implementation.

The reference below is that implementation, unchanged apart from its names,
docstrings and type hints: numpy scalar indexing and dict work in the greedy level, boolean
`np.ix_` block sums, and a recursive walk over the set partitions of graphs
with at most 8 nodes. Labels must match exactly and Q must be bit-equal. The
greedy level runs in lockstep over many lanes: each lane must match the reference
level run alone, in its labels and in the state its generator is left in.
"""

import numpy as np
import pytest

from neurolock import graph_features as gf
from neurolock.errors import DegenerateGraph


def ref_partition_quality(w, labels, total):
    strengths = w.sum(axis=1)
    q = 0.0
    for c in np.unique(labels):
        members = labels == c
        s_in = float(w[np.ix_(members, members)].sum())
        s_tot = float(strengths[members].sum())
        q += s_in / total - (s_tot / total) ** 2
    return q


def ref_exact_best_partition(w, total):
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
    best_blocks = []
    blocks = []

    def recurse(rest, acc):
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


def ref_greedy_level(w, total, rng):
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
            link = {}
            row = w[i]
            for j in np.flatnonzero(row > 0):
                j = int(j)
                if j != i:
                    c = int(labels[j])
                    link[c] = link.get(c, 0.0) + 2.0 * row[j]

            def gain(c):
                return link.get(c, 0.0) / total - 2.0 * s_tot[c] * strengths[i] / total ** 2

            options = {None: 0.0}
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


def ref_aggregate(w, labels):
    k = labels.max() + 1
    agg = np.zeros((k, k))
    for a in range(k):
        ia = labels == a
        for b in range(a, k):
            ib = labels == b
            agg[a, b] = agg[b, a] = float(w[np.ix_(ia, ib)].sum())
    return agg


def ref_greedy_best_partition(w, total, rng):
    node_labels = np.arange(w.shape[0])
    level = w.copy()
    best_q = ref_partition_quality(w, node_labels, total)
    while True:
        level_labels = ref_greedy_level(level, total, rng)
        node_labels_next = level_labels[node_labels]
        q = ref_partition_quality(w, node_labels_next, total)
        if q <= best_q + 1e-14:
            break
        best_q = q
        node_labels = node_labels_next
        level = ref_aggregate(level, level_labels)
        if level.shape[0] == 1:
            break
    return node_labels, best_q


def ref_best_partition(graph, seed=0, restarts=8):
    w = np.asarray(graph, float)
    total = float(w.sum())
    if total <= 0:
        raise DegenerateGraph("zero total weight: modularity undefined")
    if w.shape[0] <= 8:
        return ref_exact_best_partition(w, total)
    best_labels, best_q = None, -np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, q = ref_greedy_best_partition(w, total, rng)
        if q > best_q:
            best_q, best_labels = q, labels
    if best_q < 0.0:
        return np.zeros(w.shape[0], dtype=int), 0.0
    return best_labels, best_q


# ---------------------------------------------------------------------------

LEVELS = {"continuous": None, "three_levels": (0.1, 0.5, 0.9),
          "four_levels": (0.25, 0.5, 0.75, 1.0)}


def graph(n, seed, levels=None, zero_fraction=0.0, diagonal=0.0):
    """Symmetric weights in (0, 1]; quantized weights make exact gain ties common."""
    rng = np.random.default_rng([n, seed])
    u = rng.random((n, n))
    w = (u + u.T) / 2.0
    if levels is not None:
        w = np.asarray(levels)[np.minimum((w * len(levels)).astype(int), len(levels) - 1)]
    if zero_fraction:
        mask = rng.random((n, n)) < zero_fraction
        w[mask | mask.T] = 0.0
    np.fill_diagonal(w, diagonal)
    return w


@pytest.mark.parametrize("kind", sorted(LEVELS))
@pytest.mark.parametrize("n", [*range(3, 17), 24, 32, 64])
def test_best_partition_matches_reference(n, kind):
    for seed in range(3):
        w = graph(n, seed, LEVELS[kind])
        labels, q = gf.best_partition(w, seeds=seed)
        ref_labels, ref_q = ref_best_partition(w, seed=seed)
        assert q == ref_q
        assert labels.tolist() == ref_labels.tolist()


@pytest.mark.parametrize("n", [5, 8, 9, 12, 16])
def test_sparse_and_self_loop_graphs_match_reference(n):
    # zero weights are not links; a non-zero diagonal counts in Q but never links
    for seed in range(3):
        for w in (graph(n, seed, zero_fraction=0.4),
                  graph(n, seed, LEVELS["four_levels"], zero_fraction=0.3, diagonal=0.5)):
            labels, q = gf.best_partition(w, seeds=seed)
            ref_labels, ref_q = ref_best_partition(w, seed=seed)
            assert q == ref_q
            assert labels.tolist() == ref_labels.tolist()


def lockstep(graphs, rngs):
    """`gf._greedy_levels` on a (lanes, n, n) stack, each lane against its own total."""
    graphs = np.asarray(graphs, float)
    return gf._greedy_levels(graphs, graphs.sum(axis=(1, 2)), rngs, range(len(graphs)))


def assert_lanes_match_reference(graphs, seeds):
    """Each lane's labels, and its generator's state after the level, equal the
    reference level's on that lane's graph with a generator seeded alike."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    found = lockstep(graphs, rngs)
    for lane, (w, seed, rng) in enumerate(zip(graphs, seeds, rngs)):
        ref_rng = np.random.default_rng(seed)
        assert found[lane].tolist() == ref_greedy_level(w, float(w.sum()), ref_rng).tolist(), \
            (lane, seed)
        assert rng.bit_generator.state == ref_rng.bit_generator.state, (lane, seed)


def counted(monkeypatch, name):
    """Count the calls of a graph_features helper while the test runs."""
    calls, original = [], getattr(gf, name)
    monkeypatch.setattr(gf, name, lambda *a: calls.append(1) or original(*a))
    return calls


def heavy_self_loops(n, seed):
    """Four weight levels, and self-loops of up to n on about half the nodes: a node's
    own strength then often makes staying in a grown community worse than leaving it."""
    w = graph(n, seed, LEVELS["four_levels"])
    rng = np.random.default_rng([n, seed, 1])
    np.fill_diagonal(w, n * rng.random(n) * (rng.random(n) < 0.5))
    return w


LANE_KINDS = {"quantized": dict(levels=LEVELS["three_levels"]),
              "sparse": dict(zero_fraction=0.5),
              "self_loops": dict(levels=LEVELS["four_levels"], zero_fraction=0.3,
                                 diagonal=0.5)}


def assert_lane_case_matches_reference(n, kind):
    # three graphs, four generators each, as restarts of three frames share a level
    graphs = [heavy_self_loops(n, seed) if kind == "heavy_self_loops"
              else graph(n, seed, **LANE_KINDS[kind]) for seed in range(3)]
    assert_lanes_match_reference(np.stack(graphs * 4), [[n, lane] for lane in range(12)])


@pytest.mark.parametrize("kind", [*LANE_KINDS, "heavy_self_loops"])
@pytest.mark.parametrize("n", [9, 16, 24, 40, 64])
def test_each_lane_of_a_lockstep_level_equals_the_reference(n, kind):
    assert_lane_case_matches_reference(n, kind)


def test_lockstep_takes_the_tie_scan_and_widens_its_labels(monkeypatch):
    scans, widenings = (counted(monkeypatch, name)
                        for name in ("_first_seen_scan", "_more_labels"))
    # exact gain ties among three weight levels send lanes to the scalar scan
    assert_lane_case_matches_reference(9, "quantized")
    assert scans and not widenings
    # nodes leaving grown communities need fresh labels beyond the first n + 2
    assert_lane_case_matches_reference(16, "heavy_self_loops")
    assert widenings


@pytest.mark.parametrize("n", [9, 12, 16])
def test_greedy_steps_match_reference(n):
    # each step on its own, so a mismatch names the step that caused it
    for seed, levels in enumerate(LEVELS.values()):
        w = graph(n, seed, levels)
        total = float(w.sum())
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        level_labels = lockstep(w[None], [rng])[0]
        assert level_labels.tolist() == ref_greedy_level(w, total, ref_rng).tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for labels in (level_labels, np.random.default_rng(seed).integers(0, 4, n)):
            compact = np.unique(labels, return_inverse=True)[1]
            assert gf._qualities(w[None], [0], compact[None], np.array([total]))[0] == \
                ref_partition_quality(w, labels, total)
            k = compact.max() + 1
            assert np.array_equal(gf._block_sums(w[None], [0], compact[None], True)[0, :k, :k],
                                  ref_aggregate(w, compact))


def block_sum_lanes(n, seed):
    """(graphs, lanes) on n nodes: dense, sparse and self-loop graphs, each split at random
    into 1, 2, a few and n communities; the first lanes come again at the end, as restarts
    that found the same partition."""
    rng = np.random.default_rng([n, seed, 34])
    graphs = np.stack([graph(n, seed), graph(n, seed, zero_fraction=0.6),
                       graph(n, seed, LEVELS["four_levels"], zero_fraction=0.3, diagonal=0.5),
                       heavy_self_loops(n, seed)])
    lanes = []
    for g in range(len(graphs)):
        for k in (1, 2, int(rng.integers(3, n)), n):
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            lanes.append((g, np.unique(rng.permutation(labels), return_inverse=True)[1]))
    return graphs, lanes + lanes[:5]


@pytest.mark.parametrize("budget", [gf._BLOCK_BUDGET, 64])  # 64: many passes and parts
def test_block_sums_equal_the_reference_lane_by_lane(monkeypatch, budget):
    # one batch per node count, as the search hands them over: each lane's Q and aggregated
    # graph must be the reference's bit for bit, and the padding past its communities 0
    monkeypatch.setattr(gf, "_BLOCK_BUDGET", budget)
    for n in (9, 12, 16, 24, 33, 40, 64):
        graphs, lanes = block_sum_lanes(n, seed=n % 3)
        index, labels = [g for g, _ in lanes], np.stack([lab for _, lab in lanes])
        totals = np.array([float(graphs[g].sum()) for g in index])
        q = gf._qualities(graphs, np.array(index), labels, totals)
        agg = gf._block_sums(graphs, index, labels, upper=True)
        assert agg.shape == (len(lanes), n, n)
        for lane, (g, lab) in enumerate(lanes):
            assert q[lane] == ref_partition_quality(graphs[g], lab, totals[lane]), (n, lane)
            k = lab.max() + 1
            assert np.array_equal(agg[lane, :k, :k], ref_aggregate(graphs[g], lab)), (n, lane)
            assert not agg[lane, k:].any() and not agg[lane, :, k:].any()


def test_greedy_level_ties_match_reference(monkeypatch):
    # small levels with self-loops and weights in steps of 0.1: a home gain of
    # exactly 0, or a rounding hair below it, meets the 1e-15 margin against
    # the singleton in a few of these (trials 1054 and 1668); the trials of each
    # size run as the lanes of one lockstep level
    scans = counted(monkeypatch, "_first_seen_scan")
    trials = {}
    for t in range(2000):
        rng = np.random.default_rng([5, t])
        n = int(rng.integers(3, 10))
        w = np.triu(rng.integers(0, 4, (n, n)), 1) * 0.1
        w = w + w.T + np.diag(rng.integers(0, 4, n) * 0.1)
        if w.sum() > 0:
            trials.setdefault(n, []).append((t, w))
    for n, cases in trials.items():
        assert_lanes_match_reference(np.stack([w for _, w in cases]), [t for t, _ in cases])
    assert scans
