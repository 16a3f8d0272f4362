import hashlib
import json

import numpy as np
import pytest

from neurolock import sl_eval
from neurolock.errors import ConfigError, LengthError, SingularityError
from neurolock.sl_eval import lda_train


def gaussian_dataset(n_subjects=8, n_samples=30, dim=12, separation=3.0, seed=0):
    """Per-subject Gaussian clusters with controllable separation."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=separation, size=(n_subjects, dim))
    return {f"S{i:02d}": centers[i] + rng.normal(size=(n_samples, dim))
            for i in range(n_subjects)}


class TestLda:
    def test_separated_gaussians_high_accuracy(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(loc=-3.0, size=(200, 5))
        x1 = rng.normal(loc=3.0, size=(200, 5))
        x = np.vstack([x0, x1])
        y = np.concatenate([np.zeros(200, int), np.ones(200, int)])
        model = lda_train(x, y)
        accuracy = ((model.decision_scores(x) >= 0) == y).mean()
        assert accuracy >= 0.99

    def test_identical_distributions_chance_level(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2000, 4))
        y = np.concatenate([np.zeros(1000, int), np.ones(1000, int)])
        model = lda_train(x, y)
        accuracy = ((model.decision_scores(x) >= 0) == y).mean()
        assert accuracy == pytest.approx(0.5, abs=0.05)

    def test_two_point_boundary_at_midpoint(self):
        model = lda_train(np.array([[-0.1], [0.1], [0.9], [1.1]]), np.array([0, 0, 1, 1]))
        assert model.decision_scores(np.array([[0.49]]))[0] < 0
        assert model.decision_scores(np.array([[0.51]]))[0] >= 0

    def test_singular_covariance_without_reg_raises(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(SingularityError):
            lda_train(x, y)

    def test_one_class_raises(self):
        with pytest.raises(LengthError):
            lda_train(np.ones((3, 2)), np.ones(3, int))


class TestClassificationStyle:
    def test_training_sees_other_subjects(self):
        data = gaussian_dataset(n_subjects=4)
        metrics = sl_eval.eval_classification_style(data, seed=0)
        for subject, keys in metrics.train_keys.items():
            other = {k for k in keys if k[0] != subject}
            assert other, f"model for {subject} saw no other-subject data"

    def test_confusion_totals_match_test_size(self):
        data = gaussian_dataset(n_subjects=4, n_samples=20)
        metrics = sl_eval.eval_classification_style(data, split=0.8, seed=1)
        total = 4 * 20
        test_per_model = total - int(round(0.8 * 20)) - int(round(0.8 * 60))
        assert metrics.n_tests == 4 * test_per_model

    def test_two_subject_toy_case_matches_enumeration(self):
        data = {
            "A": np.array([[0.0], [0.1], [0.2], [0.3], [0.4]]),
            "B": np.array([[10.0], [10.1], [10.2], [10.3], [10.4]]),
        }
        metrics = sl_eval.eval_classification_style(data, split=0.8, seed=2)
        # perfectly separable: every pooled prediction is correct
        assert metrics.accuracy == 1.0
        assert metrics.far == 0.0
        assert metrics.frr == 0.0


class TestAuthenticationStyle:
    def test_intruders_never_in_training(self):
        data = gaussian_dataset(n_subjects=6)
        metrics = sl_eval.eval_authentication_style(data, n_users=4, seed=0)
        assert metrics.intruder_keys
        for keys in metrics.train_keys.values():
            assert not (keys & metrics.intruder_keys)

    def test_user_test_counts(self):
        data = gaussian_dataset(n_subjects=6, n_samples=20)
        metrics = sl_eval.eval_authentication_style(data, split=0.8, n_users=4,
                                                    seed=1)
        held_out_per_user = 20 - int(round(0.8 * 20))
        assert metrics.n_user_tests == 4 * held_out_per_user
        assert metrics.n_intruder_tests == 4 * (2 * 20)

    def test_three_subject_toy_case_matches_enumeration(self):
        # users B (5.0) and C (10.0), intruder A (0.0). Each user model is a
        # 1-D LDA boundary at 7.5; A lands on B's accept side and C's reject
        # side, so exactly half the intruder probes are falsely accepted.
        data = {
            "A": np.tile([[0.0]], (5, 1)) + np.arange(5)[:, None] * 0.01,
            "B": np.tile([[5.0]], (5, 1)) + np.arange(5)[:, None] * 0.01,
            "C": np.tile([[10.0]], (5, 1)) + np.arange(5)[:, None] * 0.01,
        }
        metrics = sl_eval.eval_authentication_style(data, split=0.8, n_users=2,
                                                    seed=0)
        assert metrics.n_intruder_tests == 2 * 5  # held-out subject vs 2 models
        assert metrics.far == 0.5
        assert metrics.frr == 0.0
        assert metrics.accuracy == pytest.approx(7 / 12)

    def test_needs_intruders(self):
        data = gaussian_dataset(n_subjects=3)
        with pytest.raises(ConfigError):
            sl_eval.eval_authentication_style(data, n_users=3)


class TestPitfallReport:
    def test_leak_inflates_apparent_far(self):
        fars_classification, fars_authentication = [], []
        for seed in range(8):
            data = gaussian_dataset(n_subjects=8, n_samples=24, separation=1.2,
                                    seed=seed)
            c = sl_eval.eval_classification_style(data, seed=seed)
            a = sl_eval.eval_authentication_style(data, n_users=6, seed=seed)
            fars_classification.append(c.far)
            fars_authentication.append(a.far)
        assert np.mean(fars_classification) < np.mean(fars_authentication)

    def test_report_rows(self):
        data = gaussian_dataset(n_subjects=6, n_samples=20, separation=1.5)
        rows = sl_eval.pitfall_report(data, seeds=(0, 1))
        assert len(rows) == 2
        assert {row["evaluation"] for row in rows} == {"classification",
                                                       "authentication"}
        for row in rows:
            for field in ("accuracy", "far", "frr", "classifier_eer"):
                assert np.isfinite(row[field])

    def test_custom_configs(self):
        data = gaussian_dataset(n_subjects=6, n_samples=20, separation=1.5)
        seeds = (0, 1, 2)
        for split in (0.8, 0.33):
            rows = sl_eval.pitfall_report(data, split=split, n_users=4, seeds=seeds)
            assert [row["split"] for row in rows] == [split, split]
            assert [row["n_users"] for row in rows] == [None, 4]
            assert {row["n_seeds"] for row in rows} == {3}
            classification = [sl_eval.eval_classification_style(data, split, seed)
                              for seed in seeds]
            authentication = [sl_eval.eval_authentication_style(data, split, 4, seed)
                              for seed in seeds]
            for row, runs in zip(rows, (classification, authentication)):
                assert row["far"] == float(np.mean([m.far for m in runs]))
                assert row["frr"] == float(np.mean([m.frr for m in runs]))

    def test_smaller_training_split_does_not_reduce_frr(self):
        frr_80, frr_33 = [], []
        for seed in range(10):
            data = gaussian_dataset(n_subjects=8, n_samples=30, separation=1.2,
                                    seed=100 + seed)
            frr_80.append(sl_eval.eval_authentication_style(
                data, split=0.8, n_users=6, seed=seed).frr)
            frr_33.append(sl_eval.eval_authentication_style(
                data, split=0.33, n_users=6, seed=seed).frr)
        assert np.mean(frr_33) >= np.mean(frr_80)

    def test_smaller_user_set_does_not_improve_errors(self):
        few, many = [], []
        for seed in range(10):
            data = gaussian_dataset(n_subjects=12, n_samples=24, separation=1.2,
                                    seed=200 + seed)
            big = sl_eval.eval_authentication_style(data, n_users=9, seed=seed)
            small = sl_eval.eval_authentication_style(data, n_users=4, seed=seed)
            many.append(big.far + big.frr)
            few.append(small.far + small.frr)
        assert np.mean(few) >= np.mean(many) - 0.02


@pytest.mark.parametrize("seed, digest", [
    (0, "6af54fc56f991c7cfd982ad2b3e58a68af0363d281ac0e26bd2082dfcd141597"),
    (7, "ae2e65afc89650ea2f03580e37830cbc317ab3509665034a1f224c7db95731ea"),
])
def test_pitfall_report_rows_pinned(seed, digest):
    # digests taken from the implementation that wrote each procedure's model loop out
    data = gaussian_dataset(n_subjects=7, n_samples=18, separation=1.3, seed=seed)
    rows = sl_eval.pitfall_report(data, split=0.7, n_users=5, seeds=(seed, seed + 1))
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest
