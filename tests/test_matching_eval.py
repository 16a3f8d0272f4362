import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurolock import matching_eval as me
from neurolock import transform as tr
from neurolock.errors import ConfigError, LengthError
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig


def brute_force_eer(genuine, impostor):
    """Exhaustive threshold enumeration oracle."""
    best = None
    for threshold in sorted(set(list(genuine) + list(impostor))):
        far = sum(1 for s in impostor if s <= threshold) / len(impostor)
        frr = sum(1 for s in genuine if s > threshold) / len(genuine)
        key = (abs(far - frr), threshold)
        if best is None or key < best[0]:
            best = (key, (far + frr) / 2.0, threshold)
    return best[1], best[2]


class TestEer:
    def test_perfect_separation(self):
        scores = me.ScoreSet(genuine=np.full(10, 0.1), impostor=np.full(10, 0.9))
        value, _ = me.eer(scores)
        assert value == 0.0

    def test_identical_distributions(self):
        same = np.linspace(0.1, 0.9, 20)
        value, _ = me.eer(me.ScoreSet(genuine=same, impostor=same.copy()))
        assert value == pytest.approx(0.5, abs=0.05)

    def test_hand_built_lists_match_enumeration(self):
        genuine = [0.1, 0.2, 0.25, 0.4, 0.5]
        impostor = [0.3, 0.45, 0.5, 0.6, 0.7]
        value, threshold = me.eer(me.ScoreSet(genuine=np.array(genuine),
                                              impostor=np.array(impostor)))
        expected_value, expected_threshold = brute_force_eer(genuine, impostor)
        assert value == expected_value
        assert threshold == expected_threshold

    def test_random_sets_match_brute_force(self, rng):
        for _ in range(50):
            genuine = rng.uniform(0, 1, int(rng.integers(2, 30)))
            impostor = rng.uniform(0, 1, int(rng.integers(2, 30)))
            value, _ = me.eer(me.ScoreSet(genuine=genuine, impostor=impostor))
            expected, _ = brute_force_eer(genuine.tolist(), impostor.tolist())
            assert value == expected

    def test_empty_raises(self):
        with pytest.raises(LengthError):
            me.eer(me.ScoreSet(genuine=np.array([]), impostor=np.array([0.5])))

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=40),
           st.lists(st.floats(0, 1), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_far_frr_monotonicity(self, genuine, impostor):
        points = me.roc_points(me.ScoreSet(genuine=np.array(genuine),
                                           impostor=np.array(impostor)))
        fars = [p[1] for p in points]
        frrs = [p[2] for p in points]
        assert all(a <= b + 1e-12 for a, b in zip(fars, fars[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(frrs, frrs[1:]))


class TestDecidability:
    def test_equal_means_zero(self):
        scores = me.ScoreSet(genuine=np.array([0.4, 0.6]), impostor=np.array([0.5, 0.5]))
        assert me.decidability(scores) == 0.0

    def test_unit_separation(self):
        rng = np.random.default_rng(0)
        genuine = rng.normal(0.0, 1.0, 20000)
        impostor = rng.normal(1.0, 1.0, 20000)
        d = me.decidability(me.ScoreSet(genuine=genuine, impostor=impostor))
        assert abs(d) == pytest.approx(1.0, abs=0.03)

    def test_direct_formula(self):
        genuine = np.array([0.1, 0.2, 0.3])
        impostor = np.array([0.5, 0.7])
        expected = (genuine.mean() - impostor.mean()) / np.sqrt(
            (genuine.std() ** 2 + impostor.std() ** 2) / 2.0)
        assert me.decidability(me.ScoreSet(genuine=genuine, impostor=impostor)) \
            == pytest.approx(expected)

    def test_distance_orientation_negative(self, random_dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        scores = me.protocol_score_set(random_dataset, 5, 1, config)
        assert me.decidability(scores) < 0


class TestProtocolCounts:
    def test_genuine_and_impostor_counts_small(self, random_dataset):
        # 8 subjects x 30 frames
        genuine, impostor = me.protocol_tests(random_dataset, 5, 1)
        assert len(genuine) == 25 * 8
        assert len(impostor) == 7 * 8
        genuine, impostor = me.protocol_tests(random_dataset, 5, 5)
        assert len(genuine) == 5 * 8

    def test_closed_form_over_configs(self, random_dataset):
        n_subjects, n_frames = 8, 30
        for f_e, f_t in ((1, 1), (10, 2), (20, 1), (4, 3)):
            genuine, impostor = me.protocol_tests(random_dataset, f_e, f_t)
            assert len(genuine) == ((n_frames - f_e) // f_t) * n_subjects
            assert len(impostor) == (n_subjects - 1) * n_subjects

    @pytest.mark.parametrize("frames", [(2, 3), (4, 3), (2, 1)])
    def test_system_with_other_frame_counts_refused(self, monkeypatch, frames):
        dataset = random_feature_dataset(n_subjects=4, n_frames=12, dim=10, seed=5)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=4, query_frames=1))
        monkeypatch.setattr(me.tr, "encode", None)  # refused before any encoding
        with pytest.raises(ConfigError, match="F_e = 4"):
            me.protocol_tests(dataset, *frames, system=system)

    def test_system_over_another_dataset_refused(self, monkeypatch):
        dataset = random_feature_dataset(n_subjects=4, n_frames=12, dim=10, seed=5)
        twin = random_feature_dataset(n_subjects=4, n_frames=12, dim=10, seed=5)
        system = AuthSystem(twin, SystemConfig(enroll_frames=4, query_frames=1))
        monkeypatch.setattr(me.tr, "encode", None)  # refused before any encoding
        with pytest.raises(ConfigError, match="another dataset"):
            me.protocol_tests(dataset, 4, 1, system=system)

    def test_config_with_a_system_refused(self, monkeypatch):
        dataset = random_feature_dataset(n_subjects=4, n_frames=12, dim=10, seed=5)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=4, query_frames=1))
        monkeypatch.setattr(me.tr, "encode", None)  # refused before any encoding
        with pytest.raises(ConfigError, match="not both"):
            me.protocol_tests(dataset, 4, 1, SystemConfig(delta=0.3), system=system)

    def test_fitting_system_is_reused(self, random_dataset):
        config = SystemConfig(enroll_frames=5, query_frames=2)
        system = AuthSystem(random_dataset, config)
        reused = me.protocol_tests(random_dataset, 5, 2, system=system)
        built = me.protocol_tests(random_dataset, 5, 2, config)
        for mine, theirs in zip(reused, built):
            assert np.array_equal(mine, theirs)

    def test_decidability_protocol_counts(self, random_dataset):
        scores = me.decidability_protocol(random_dataset, "S001", SystemConfig())
        assert scores.genuine.size == 30 * 29 // 2
        assert scores.impostor.size == 30 * (7 * 30)


class TestWorkDoneOnce:
    def test_decidability_calibrates_only_the_claimed_key(self, random_dataset,
                                                          monkeypatch):
        calls = []
        calibrate = tr.calibrate_params
        monkeypatch.setattr(tr, "calibrate_params",
                            lambda *args, **kwargs: calls.append(1) or calibrate(*args,
                                                                                  **kwargs))
        config = SystemConfig(enroll_frames=5, query_frames=1, lost_key=False)
        me.decidability_protocol(random_dataset, "S003", config)
        assert len(calls) == 1

    def test_evaluate_builds_the_roc_once(self, random_dataset, monkeypatch):
        built = []
        roc_points = me.roc_points
        monkeypatch.setattr(me, "roc_points",
                            lambda scores: built.append(1) or roc_points(scores))
        report = me.evaluate(random_dataset, SystemConfig(enroll_frames=5, query_frames=1))
        assert len(built) == 1
        assert (report.eer, report.threshold_at_eer) == me.eer(report.scores)

    def test_revocability_projects_each_new_key_once(self, random_dataset, monkeypatch):
        """Each new key's one projection of the enrolled population both
        calibrates it and encodes the pseudo-impostor templates."""
        projected = []
        project = tr.project
        monkeypatch.setattr(tr, "project", lambda c, params: projected.append(
            params.key_id) or project(c, params))
        config = SystemConfig(enroll_frames=5, query_frames=1)
        me.revocability_protocol(random_dataset, config, n_keys=3, seed=4)
        master = tr.key_identifier(config.master_key)
        new_keys = [key_id for key_id in projected if key_id != master]
        assert len(new_keys) == 3 and len(set(new_keys)) == 3


class TestProtocolScores:
    @pytest.mark.parametrize("lost_key", [True, False])
    @pytest.mark.parametrize("query_frames", [1, 2])
    def test_scores_equal_one_match_per_test(self, lost_key, query_frames):
        """Every score equals the deployed matcher's on that test's query
        template, in order: by claimed subject, then query."""
        dataset = random_feature_dataset(n_subjects=5, n_frames=13, dim=10, seed=8)
        config = SystemConfig(enroll_frames=4, query_frames=query_frames, delta=0.6,
                              lost_key=lost_key)
        system = AuthSystem(dataset, config)
        genuine, impostor = me.protocol_tests(dataset, 4, query_frames, system=system)
        expected_genuine, expected_impostor = [], []
        for claimed in system.subjects:
            account = system.users[claimed]

            def score(source, start):
                query = system.query_template(claimed, source, start)
                return tr.match(query, account.template, config.theta).score
            n_queries = (system.usable_frames(claimed) - 4) // query_frames
            expected_genuine += [score(claimed, 4 + query_frames * k)
                                 for k in range(n_queries)]
            expected_impostor += [score(other, 4) for other in system.subjects
                                  if other != claimed]
        assert len(genuine) == 5 * (9 // query_frames)
        assert genuine.tolist() == expected_genuine
        assert impostor.tolist() == expected_impostor


class TestRevocability:
    def test_original_key_in_list_rejected(self, random_dataset):
        """Under either key mode, a key held from enrollment or after a revoke."""
        for lost_key in (True, False):
            config = SystemConfig(enroll_frames=5, query_frames=1, lost_key=lost_key)
            system = AuthSystem(random_dataset, config)
            system.revoke("S002", 99)
            for held in (system.users["S001"].key, 99):
                with pytest.raises(ConfigError, match="^the revocation keys include a "
                                                      "key an account holds$"):
                    me.revocability_scores(system, [7, held])

    def test_empty_lists_refused(self, random_dataset):
        system = AuthSystem(random_dataset, SystemConfig(enroll_frames=5, query_frames=1))
        with pytest.raises(ConfigError, match="^revocability needs at least one new key$"):
            me.revocability_scores(system, [])

    def test_pseudo_impostor_overlaps_impostor(self, random_dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        scores = me.revocability_protocol(random_dataset, config, n_keys=10, seed=3)
        assert scores.pseudo_impostor.size == 10 * 8
        gap = abs(scores.pseudo_impostor.mean() - scores.impostor.mean())
        assert gap <= 2.0 * scores.impostor.std()


class TestUnlinkability:
    def test_same_distribution_gives_low_d_sys(self, rng):
        samples = rng.normal(0.5, 0.05, 4000)
        result = me.unlinkability(samples[:2000], samples[2000:])
        assert result.d_sys < 0.05

    def test_disjoint_supports_fully_linkable(self, rng):
        mated = rng.uniform(0.0, 0.2, 500)
        non_mated = rng.uniform(0.6, 1.0, 500)
        result = me.unlinkability(mated, non_mated)
        assert result.d_sys > 0.95

    def test_pointwise_range(self, rng):
        mated = rng.normal(0.4, 0.1, 300)
        non_mated = rng.normal(0.5, 0.1, 300)
        result = me.unlinkability(mated, non_mated)
        assert np.all(result.d_local >= 0.0)
        assert np.all(result.d_local <= 1.0)
        assert 0.0 <= result.d_sys <= 1.0

    def test_too_few_samples_raises(self):
        with pytest.raises(LengthError):
            me.unlinkability(np.zeros(10), np.zeros(200))

    @pytest.mark.parametrize("n_keys", [0, 1])
    def test_protocol_needs_two_keys(self, random_dataset, n_keys):
        with pytest.raises(ConfigError, match="at least two keys"):
            me.unlinkability_protocol(random_dataset, SystemConfig(enroll_frames=5),
                                      n_keys=n_keys)

    def test_protocol_produces_enough_samples(self, random_dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        mated, non_mated = me.unlinkability_protocol(random_dataset, config,
                                                     n_keys=3, seed=1)
        # pairs(3 keys)=3; 8 subjects; 30 one-frame windows
        assert mated.size == 3 * 8 * 30
        assert non_mated.size == 3 * 56
        assert np.all((mated >= 0) & (mated <= 1))

    @pytest.mark.parametrize("n_keys", [2, 3, 5])
    def test_score_counts_are_the_protocols(self, n_keys):
        dataset = random_feature_dataset(n_subjects=4, n_frames=9, dim=6, seed=2)
        mated, non_mated = me.unlinkability_protocol(
            dataset, SystemConfig(enroll_frames=3, query_frames=1), n_keys=n_keys)
        assert mated.size == me.mated_unlink_scores(n_keys, 4, 9)
        assert non_mated.size == me.non_mated_unlink_scores(n_keys, 4)


class TestEvaluate:
    def test_report_fields_and_json(self, random_dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        report = me.evaluate(random_dataset, config, revocability_keys=5,
                             unlink_keys=3, seed=2)
        assert 0.0 <= report.eer <= 0.5
        assert report.n_genuine == 25 * 8
        assert report.n_impostor == 7 * 8
        assert report.pseudo_impostor_mean is not None
        assert report.d_sys is not None
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert not {"config_hash", "version", "scores", "seeds"} & payload.keys()

    def test_deterministic(self, random_dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        a = me.evaluate(random_dataset, config, seed=2)
        b = me.evaluate(random_dataset, config, seed=2)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
