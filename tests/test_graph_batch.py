"""Graph features of a (frames, n, n) stack, against each graph computed alone.

Every batched function must give each frame the bits it gives that frame as a
single graph, and a single graph must give the bits of the scalar code the
batch replaced (kept below as references). scipy's compiled Dijkstra stays
the oracle for shortest paths, in tests only. A stack with faulty frames
raises the error a frame-by-frame run raised first.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from neurolock import graph_features as gf
from neurolock import pipeline
from neurolock.errors import (ConfigError, ConvergenceError, DegenerateGraph,
                              DisconnectedGraph)
from neurolock.ingest import SyntheticSpec, synthesize

FRAME_COUNTS = (1, 2, 31)


def stack(rng, frames, n, zero_fraction=0.0, levels=None):
    """Symmetric weights in [0, 1) with a zero diagonal; quantized levels make ties."""
    u = rng.random((frames, n, n))
    w = (u + u.transpose(0, 2, 1)) / 2.0
    if levels is not None:
        w = np.asarray(levels)[np.minimum((w * len(levels)).astype(int), len(levels) - 1)]
    if zero_fraction:
        mask = rng.random((frames, n, n)) < zero_fraction
        w[mask | mask.transpose(0, 2, 1)] = 0.0
    w[:, range(n), range(n)] = 0.0
    return w


# -- the scalar code the batch replaced ----------------------------------------

def ref_pagerank(w):
    damping, tol, max_iter = 0.85, 1e-12, 1000
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
    raise ConvergenceError("no convergence")


def ref_transitivity(w):
    cbrt = np.cbrt(w)
    triangles_x2 = np.trace(cbrt @ cbrt @ cbrt)
    degrees = (w > 0).sum(axis=1)
    triples = float((degrees * (degrees - 1)).sum())
    return 0.0 if triples == 0 else float(triangles_x2 / triples)


def scipy_distances(w):
    with np.errstate(divide="ignore", over="ignore"):
        lengths = np.where(w > 0, 1.0 / w, 0.0)  # csgraph reads 0 as "no edge"
    np.fill_diagonal(lengths, 0.0)
    return scipy.sparse.csgraph.shortest_path(scipy.sparse.csr_array(lengths), method="D",
                                              directed=False)


def ref_global_descriptors(w):
    dist = scipy_distances(w)
    pair_dists = dist[~np.eye(dist.shape[0], dtype=bool)]
    eccentricity = dist.max(axis=1)
    return (float(pair_dists.mean()), float((1.0 / pair_dists).mean()),
            float(eccentricity.min()), float(eccentricity.max()))


# -- equality ------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 25))
def test_each_frame_of_a_stack_equals_the_graph_alone(n):
    rng = np.random.default_rng([19, n])
    for frames in FRAME_COUNTS:
        graphs = stack(rng, frames, n)
        seeds = rng.integers(0, 2 ** 32, frames).tolist()
        centrality = gf.pagerank_centrality(graphs)
        dist = gf.distance_matrix(graphs)
        descriptors = np.stack(gf.global_descriptors(graphs), axis=-1)
        labels, q = gf.best_partition(graphs, seeds)
        assert np.array_equal(gf.modularity(graphs, seeds), q)
        if n >= 3:
            trans = gf.transitivity(graphs)
            features = gf.extract_features(graphs, seeds)
            assert features.shape == (frames, n + 6)
        for f, (g, seed) in enumerate(zip(graphs, seeds)):
            assert np.array_equal(centrality[f], gf.pagerank_centrality(g))
            assert np.array_equal(dist[f], gf.distance_matrix(g))
            assert descriptors[f].tolist() == list(gf.global_descriptors(g))
            frame_labels, frame_q = gf.best_partition(g, seed)
            assert labels[f].tolist() == frame_labels.tolist() and q[f] == frame_q
            if n >= 3:
                assert trans[f] == gf.transitivity(g)
                assert np.array_equal(features[f], gf.extract_features(g, seed))


@pytest.mark.parametrize("n", range(2, 25))
def test_a_single_graph_equals_the_scalar_code(n):
    rng = np.random.default_rng([20, n])
    for g in stack(rng, 4, n):
        assert np.array_equal(gf.pagerank_centrality(g), ref_pagerank(g))
        assert gf.global_descriptors(g) == ref_global_descriptors(g)
        if n >= 3:
            assert gf.transitivity(g) == ref_transitivity(g)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 16, 24])
def test_dense_dijkstra_equals_scipy(n):
    rng = np.random.default_rng([21, n])
    cases = {"random": stack(rng, 31, n),
             "disconnected": stack(rng, 31, n, zero_fraction=0.7),
             "tied": stack(rng, 31, n, levels=(0.25, 0.5, 1.0)),
             "subnormal": stack(rng, 31, n, zero_fraction=0.3)}
    sub = cases["subnormal"]
    sub[rng.random(sub.shape) < 0.3] = 1e-320  # length 1/w overflows to inf: no edge
    sub[:, range(n), range(n)] = 0.0
    asymmetric = rng.random((31, n, n))
    asymmetric[rng.random(asymmetric.shape) < 0.4] = 0.0
    cases["asymmetric"] = asymmetric  # an undirected search takes either direction
    for name, graphs in cases.items():
        with np.errstate(divide="ignore", over="ignore"):
            dist = gf.distance_matrix(graphs)
        for f, g in enumerate(graphs):
            assert np.array_equal(dist[f], scipy_distances(g)), (name, f)
            assert np.array_equal(gf.distance_matrix(g), dist[f]), (name, f)


def test_a_recording_equals_its_frames_extracted_one_by_one(monkeypatch):
    # a real recording's graphs, 16 channels: greedy modularity with per-frame seeds
    rec = list(synthesize(SyntheticSpec(n_subjects=1, n_channels=16, duration_s=20.0,
                                        fs=160.0, master_seed=3)))[0]
    graphs = []
    build = pipeline.connectivity.build_graph
    monkeypatch.setattr(pipeline.connectivity, "build_graph",
                        lambda *args: graphs.append(build(*args)) or graphs[-1])
    features = pipeline.extract_frame_features(rec, pipeline.DspConfig())
    assert len(graphs) == len(features) == 10
    for k, g in enumerate(graphs):
        seed = pipeline.stable_int(f"{rec.subject_id}:{k}")
        assert np.array_equal(features[k], gf.extract_features(g, seed))


# -- greedy modularity ---------------------------------------------------------

def test_a_greedy_level_that_merges_nothing_ends_its_restart_unscored(monkeypatch):
    events = []
    levels, qualities = gf._greedy_levels, gf._qualities

    def logged_levels(graphs, totals, rngs, index):
        labels = levels(graphs, totals, rngs, index)
        events.extend(("level", lane.max() + 1 < graphs.shape[1]) for lane in labels)
        return labels

    monkeypatch.setattr(gf, "_greedy_levels", logged_levels)
    monkeypatch.setattr(gf, "_qualities",  # the lanes handed to the batched scorer
                        lambda *a: events.append(("quality", len(a[2]))) or qualities(*a))
    monkeypatch.setattr(gf, "_GREEDY_RESTARTS", 1)  # one lane, so its events come in order
    w = stack(np.random.default_rng(16), 1, 16)[0]
    merged_nothing = False
    for seed in range(8):
        events.clear()
        gf.best_partition(w, seed)
        assert events[0] == ("quality", 1)  # the singleton partition
        merged_nothing |= ("level", False) in events
        for before, after in zip(events[1:], events[2:]):
            if after[0] == "quality":
                assert before == ("level", True)
        # each level that merged is scored once, one lane; one that merged nothing never
        assert sum(lanes for kind, lanes in events[1:] if kind == "quality") == \
            events.count(("level", True))
    assert merged_nothing  # some level merged nothing


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_weight_leaves_the_greedy_search_quiet(bad):
    # no gain beats staying put and the singleton Q is NaN, so the one-community
    # partition and its Q of 0 stand, as in the scalar search; no numpy warning escapes
    w = stack(np.random.default_rng(3), 1, 12)[0]
    w[0, 1] = w[1, 0] = bad
    labels, q = gf.best_partition(w, 3)
    assert labels.tolist() == [0] * 12 and q == 0.0


def test_the_greedy_search_keeps_one_copy_of_each_frame():
    # 62 frames of 64 nodes: a search that stacked a copy of the frame, and its links,
    # for each of the 8 restarts peaked above 25 times the stack's bytes
    w = stack(np.random.default_rng(64), 62, 64)
    gf.best_partition(w[:2], 0)  # warm every cache first
    tracemalloc.start()
    try:
        gf.best_partition(w, list(range(62)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * w.nbytes, peak / w.nbytes


# -- errors name the frame -----------------------------------------------------

def faulty_stack(faults: dict[int, str], frames=6, n=6):
    graphs = 0.05 + 0.9 * stack(np.random.default_rng(7), frames, n)  # in [0.05, 0.95)
    graphs[:, range(n), range(n)] = 0.0
    for frame, fault in faults.items():
        g = graphs[frame]
        if fault == "disconnected":
            g[:3, 3:] = g[3:, :3] = 0.0
        elif fault == "zero":
            g[:] = 0.0
        else:  # "nan" fails the weight check; "inf" stops the random walk converging
            g[0, 1] = g[1, 0] = {"nan": np.nan, "inf": np.inf}[fault]
    return graphs


@pytest.mark.parametrize("n", [6, 12])  # exact and greedy modularity search
@pytest.mark.parametrize("faults, kind, message", [
    ({3: "disconnected"}, DisconnectedGraph, "frame 3: infinite path length"),
    ({4: "zero"}, DegenerateGraph, "frame 4: zero total weight"),
    ({2: "nan"}, ConfigError, "frame 2: edge weights must be finite"),
    ({2: "inf"}, ConvergenceError, "frame 2: random-walk centrality did not converge"),
    # the lowest faulty frame wins, though its fault shows at a later stage
    ({1: "disconnected", 3: "zero"}, DisconnectedGraph, "frame 1: infinite path length"),
    ({2: "disconnected", 4: "inf"}, DisconnectedGraph, "frame 2: infinite path length"),
    ({1: "nan", 3: "inf"}, ConfigError, "frame 1: edge weights must be finite"),
    ({1: "zero", 2: "disconnected"}, DegenerateGraph, "frame 1: zero total weight"),
    # within one frame, the earliest failing stage wins: a zero graph is disconnected too
    ({0: "zero"}, DegenerateGraph, "frame 0: zero total weight"),
])
def test_a_stack_raises_the_first_error_of_a_frame_by_frame_run(faults, kind, message, n):
    graphs = faulty_stack(faults, n=n)
    with np.errstate(invalid="ignore"), pytest.raises(kind) as batch:
        gf.extract_features(graphs, list(range(len(graphs))))
    assert str(batch.value).startswith(message)
    with np.errstate(invalid="ignore"), pytest.raises(kind) as alone:
        for f, g in enumerate(graphs):
            gf.extract_features(g, f)
    assert str(batch.value) == f"frame {min(faults)}: {alone.value}"


def test_each_stage_names_the_lowest_faulty_frame():
    with pytest.raises(ConfigError, match="^frame 2: edge weights must be finite"):
        gf.distance_matrix(faulty_stack({2: "nan", 4: "nan"}))
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="^frame 2: "):
        gf.pagerank_centrality(faulty_stack({2: "inf", 4: "inf"}))
    with pytest.raises(DisconnectedGraph, match="^frame 1: "):
        gf.global_descriptors(faulty_stack({1: "disconnected", 5: "disconnected"}))
    with pytest.raises(DegenerateGraph, match="^frame 3: "):
        gf.modularity(faulty_stack({3: "zero", 4: "zero"}, n=10), 0)
    with pytest.raises(DegenerateGraph, match="^zero total weight"):  # one graph: no frame
        gf.modularity(np.zeros((4, 4)))


def test_an_extraction_error_names_subject_protocol_and_frame(monkeypatch):
    rec = list(synthesize(SyntheticSpec(n_subjects=1, n_channels=6, duration_s=12.0,
                                        fs=160.0, master_seed=3)))[0]
    calls = []
    original = pipeline.connectivity.build_graph

    def zero_fourth(phase, bins):
        calls.append(1)
        return original(phase, bins) * (len(calls) != 4)

    monkeypatch.setattr(pipeline.connectivity, "build_graph", zero_fourth)
    with pytest.raises(DegenerateGraph) as err:
        pipeline.extract_frame_features(rec, pipeline.DspConfig())
    assert str(err.value) == ("subject 'S001' / EO: frame 3: zero total weight: "
                              "modularity undefined")


@pytest.mark.parametrize("n", [6, 10])  # exact and greedy search
def test_a_stack_needs_one_seed_per_frame(n):
    graphs = stack(np.random.default_rng(1), 3, n)
    with pytest.raises(ConfigError, match="2 seeds for 3 frames"):
        gf.modularity(graphs, [1, 2])
    assert np.array_equal(gf.modularity(graphs, 4), gf.modularity(graphs, [4, 4, 4]))
