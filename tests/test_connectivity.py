import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurolock.connectivity import build_graph, default_bin_count, rho_index
from neurolock.errors import ConfigError, LengthError


def relative_phase(phase_i, phase_j):
    """|phi_i - phi_j| mod 2*pi, entries in [0, 2*pi): the series rho_index
    takes for one channel pair."""
    phase_i = np.asarray(phase_i, dtype=float)
    phase_j = np.asarray(phase_j, dtype=float)
    if phase_i.shape != phase_j.shape:
        raise LengthError(
            f"phase series lengths differ: {phase_i.shape} vs {phase_j.shape}")
    return np.mod(np.abs(phase_i - phase_j), 2 * np.pi)


class TestRelativePhase:
    def test_identical_series_give_zero(self, rng):
        phi = rng.uniform(-np.pi, np.pi, 100)
        assert np.all(relative_phase(phi, phi) == 0.0)

    def test_half_pi_versus_minus_half_pi_gives_pi(self):
        a = np.full(10, np.pi / 2)
        b = np.full(10, -np.pi / 2)
        assert relative_phase(a, b) == pytest.approx(np.full(10, np.pi))

    def test_matches_elementwise_formula(self, rng):
        a = rng.uniform(-np.pi, np.pi, 500)
        b = rng.uniform(-np.pi, np.pi, 500)
        out = relative_phase(a, b)
        expected = np.array([math.fmod(abs(x - y), 2 * math.pi) for x, y in zip(a, b)])
        assert out == pytest.approx(expected, abs=1e-12)
        assert np.all(out >= 0.0)
        assert np.all(out < 2 * np.pi)

    def test_length_mismatch(self):
        with pytest.raises(LengthError):
            relative_phase(np.zeros(3), np.zeros(4))


class TestRhoIndex:
    def test_constant_relative_phase_is_one(self):
        assert rho_index(np.full(100, 1.234), bins=8) == 1.0

    def test_exactly_uniform_occupancy_is_zero(self):
        bins = 8
        centers = (np.arange(bins) + 0.5) * 2 * np.pi / bins
        series = np.tile(centers, 5)
        assert rho_index(series, bins=bins) == 0.0

    def test_uniform_occupancy_never_rounds_below_zero(self):
        # five bins of two samples each: the entropy rounds a hair above ln(5)
        series = np.array([0.0, 0.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 6.0, 6.0])
        assert rho_index(series, bins=5) == 0.0
        phase = np.stack([series - np.pi, np.full(series.size, -np.pi)])
        assert build_graph(phase, bins=5)[0, 1] == 0.0

    def test_hand_entropy_fixture(self):
        # occupancy {3, 2, 1} over three bins of [0, 2*pi)
        width = 2 * np.pi / 3
        series = np.array([0.1, 0.2, 0.3,
                           width + 0.1, width + 0.2,
                           2 * width + 0.1])
        entropy = -(0.5 * math.log(0.5) + (1 / 3) * math.log(1 / 3)
                    + (1 / 6) * math.log(1 / 6))
        expected = (math.log(3) - entropy) / math.log(3)
        assert rho_index(series, bins=3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.079380164286, abs=1e-9)

    def test_matches_histogram_oracle(self, rng):
        for _ in range(50):
            series = rng.uniform(0, 2 * np.pi, 200)
            bins = int(rng.integers(2, 24))
            counts, _ = np.histogram(series, bins=bins, range=(0.0, 2 * np.pi))
            p = counts[counts > 0] / series.size
            expected = (math.log(bins) + float((p * np.log(p)).sum())) / math.log(bins)
            assert rho_index(series, bins) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(0.0, 6.28), min_size=10, max_size=200),
           st.integers(2, 10))
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, values, bins):
        if len(values) < bins:
            return
        value = rho_index(np.array(values), bins)
        assert 0.0 <= value <= 1.0

    def test_joint_offset_invariance(self, rng):
        a = rng.uniform(-np.pi, np.pi, 300)
        b = rng.uniform(-np.pi, np.pi, 300)
        base = rho_index(relative_phase(a, b), 12)
        shifted = rho_index(relative_phase(a + 0.7, b + 0.7), 12)
        assert shifted == base

    def test_short_series_raises(self):
        with pytest.raises(LengthError):
            rho_index(np.zeros(3), bins=8)

    def test_too_few_bins_raises(self):
        with pytest.raises(ConfigError):
            rho_index(np.zeros(10), bins=1)


class TestDefaultBinCount:
    def test_paper_frame_length_gives_19(self):
        assert default_bin_count(320) == 19

    def test_minimum_is_eight(self):
        assert default_bin_count(10) == 8


class TestBuildGraph:
    def test_identical_channels_fully_coupled(self):
        phase = np.tile(np.linspace(-np.pi + 0.01, np.pi - 0.01, 320), (4, 1))
        adjacency = build_graph(phase)
        off = adjacency[~np.eye(4, dtype=bool)]
        assert np.all(off == 1.0)
        assert np.all(np.diag(adjacency) == 0.0)

    def test_independent_channels_weakly_coupled(self):
        rho_values = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            phase = rng.uniform(-np.pi, np.pi, size=(2, 2000))
            rho_values.append(build_graph(phase)[0, 1])
        assert np.mean(rho_values) < 0.1

    def test_matches_pairwise_oracle(self, rng):
        phase = rng.uniform(-np.pi, np.pi, size=(3, 100))
        adjacency = build_graph(phase, bins=9)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expected = rho_index(relative_phase(phase[i], phase[j]), 9)
                assert adjacency[i, j] == pytest.approx(expected, abs=1e-14)

    def test_symmetry_exact(self, rng):
        phase = rng.uniform(-np.pi, np.pi, size=(6, 64))
        adjacency = build_graph(phase, bins=8)
        assert np.array_equal(adjacency, adjacency.T)

    def test_single_channel_raises(self):
        with pytest.raises(ConfigError):
            build_graph(np.zeros((1, 100)))

    # |a - b| of phases within [-pi, pi] lies in [0, 2*pi], where np.mod only wraps 2*pi
    # to 0; build_graph skips the wrap there and must take it for any other input

    @staticmethod
    def counted_mod(monkeypatch):
        calls, mod = [], np.mod
        monkeypatch.setattr(np, "mod", lambda *a, **k: calls.append(1) or mod(*a, **k))
        return calls

    @staticmethod
    def assert_pairs_equal_rho_index(phase, bins):
        adjacency = build_graph(phase, bins)
        for i in range(len(phase)):
            for j in range(i + 1, len(phase)):
                assert adjacency[i, j] == rho_index(np.abs(phase[i] - phase[j]), bins), (i, j)

    def test_phases_within_pi_bin_without_the_wrap(self, rng, monkeypatch):
        phase = rng.uniform(-np.pi, np.pi, size=(6, 320))
        phase[:, :40] = rng.choice([-np.pi, np.pi, 0.0], size=(6, 40))  # |a - b| = 2*pi
        calls = self.counted_mod(monkeypatch)
        adjacency = build_graph(phase, 19)
        assert calls == []
        monkeypatch.undo()
        for bins in (8, 19):
            self.assert_pairs_equal_rho_index(phase, bins)
        assert np.array_equal(adjacency, build_graph(phase, 19))

    def test_a_relative_phase_of_exactly_two_pi_lands_in_bin_zero(self):
        # half the samples 2*pi apart, half in phase: one occupied bin if 2*pi wraps to 0
        phase = np.array([[np.pi] * 10 + [0.0] * 10, [-np.pi] * 10 + [0.0] * 10])
        assert np.abs(phase[0] - phase[1]).max() == 2 * np.pi
        assert build_graph(phase, 8)[0, 1] == 1.0
        self.assert_pairs_equal_rho_index(phase, 8)

    @pytest.mark.parametrize("fault", ["shifted", "nan"])
    def test_phases_outside_pi_take_the_wrap(self, rng, monkeypatch, fault):
        phase = rng.uniform(-np.pi, np.pi, size=(5, 200))
        if fault == "shifted":
            phase[2] += 3 * np.pi  # some |a - b| beyond 2*pi
        else:
            phase[1, 17] = np.nan
        calls = self.counted_mod(monkeypatch)
        with np.errstate(invalid="ignore"):  # NaN casts to an integer bin
            build_graph(phase, 12)
            assert calls == [1]
            monkeypatch.undo()
            self.assert_pairs_equal_rho_index(phase, 12)
