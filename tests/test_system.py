import numpy as np
import pytest

from neurolock import matching_eval as me
from neurolock import transform as tr
from neurolock.errors import ConfigError, IncompatibleTemplates
from neurolock.ingest import Protocol
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig, fresh_keys


@pytest.fixture(scope="module")
def dataset():
    return random_feature_dataset(n_subjects=6, n_frames=20, dim=10, seed=21)


class TestEnrollment:
    def test_lost_key_shares_parameters(self, dataset):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        key_ids = {system.users[s].params.key_id for s in system.subjects}
        assert len(key_ids) == 1

    def test_per_user_keys_differ(self, dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1, lost_key=False)
        system = AuthSystem(dataset, config)
        key_ids = {system.users[s].params.key_id for s in system.subjects}
        assert len(key_ids) == len(system.subjects)

    def test_explicit_keys_respected(self, dataset):
        keys = {s: 1000 + i for i, s in enumerate(dataset.subjects)}
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        for s in system.subjects:
            account = system.reissue(s, keys[s])
            assert account.params.user_key == keys[s]
            assert account.template.meta.key_id == tr.key_identifier(keys[s])

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_keys_are_calibrated_on_first_use(self, dataset, monkeypatch, lost_key):
        """Building the system calibrates no key; an account's params calibrate
        its key once, and accounts sharing it reuse that one calibration."""
        calls = []
        calibrate = tr.calibrate_params
        monkeypatch.setattr(tr, "calibrate_params",
                            lambda *args, **kwargs: calls.append(1) or calibrate(*args,
                                                                                  **kwargs))
        config = SystemConfig(enroll_frames=5, query_frames=1, lost_key=lost_key)
        system = AuthSystem(dataset, config)
        assert calls == []
        first, second = system.users["S001"], system.users["S002"]
        assert first.params is first.params and len(calls) == 1
        assert (second.params is first.params) == lost_key
        assert len(calls) == (1 if lost_key else 2)
        assert second.template.meta.key_id == second.params.key_id
        assert len(calls) == (1 if lost_key else 2)

    def test_an_account_outlives_its_system(self, dataset):
        account = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                   lost_key=False)).users["S003"]
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                  lost_key=False))
        assert account.key == system.users["S003"].key
        assert np.array_equal(account.template.bits, system.users["S003"].template.bits)

    def test_too_few_frames_raises(self, dataset):
        with pytest.raises(ConfigError):
            AuthSystem(dataset, SystemConfig(enroll_frames=20, query_frames=1))

    def test_template_quant_range_mirrors_params(self, dataset):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        for s in system.subjects:
            account = system.users[s]
            assert np.array_equal(account.template.meta.quant_range,
                                  account.params.quant_range)


class TestKeyring:
    @pytest.mark.parametrize("lost_key", [True, False])
    def test_enrolled_codes_encode_each_enrollment_under_the_calibrated_key(
            self, dataset, monkeypatch, lost_key):
        """A new key's codes are `encode_bytes` of each account's enrollment windows
        under `calibrated_params`, from a range fitted as it fits one; the
        parameter set is not kept."""
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                  lost_key=lost_key))
        fitted = []
        calibrate_encode = tr.calibrate_encode
        monkeypatch.setattr(tr, "calibrate_encode",
                            lambda params, *args: fitted.append(params)
                            or calibrate_encode(params, *args))
        codes = system.keyring.enrolled_codes(4242)
        assert len(fitted) == 1 and 4242 not in system.keyring.params
        params = system.calibrated_params(4242)
        assert np.array_equal(fitted[0].quant_range, params.quant_range)
        expected = [tr.encode_bytes(system.users[s].enroll_v1, system.users[s].enroll_v2,
                                    params) for s in system.subjects]
        assert codes.dtype == np.uint8 and np.array_equal(codes, np.stack(expected))


class TestQueriesAndVerify:
    def test_self_query_on_enrollment_frames_matches_exactly(self, dataset):
        config = SystemConfig(enroll_frames=5, query_frames=5)
        system = AuthSystem(dataset, config)
        for s in system.subjects[:2]:
            query = system.query_template(s, s, 0, 5)
            result = tr.match(query, system.users[s].template, config.theta)
            assert result.score == 0.0
            assert result.decision

    def test_verify_uses_config_threshold(self, dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1, theta=1.0)
        system = AuthSystem(dataset, config)
        query = system.query_template("S001", "S002", 5)
        enrolled = system.users["S001"].template
        assert tr.match(query, enrolled, config.theta).decision  # theta=1 accepts anything
        assert not tr.match(query, enrolled, 0.0).decision

    def test_cross_key_template_rejected_by_matcher(self, dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        system = AuthSystem(dataset, config)
        fresh = system.reissue("S001", 987654)
        with pytest.raises(IncompatibleTemplates):
            tr.match(fresh.template, system.users["S001"].template, 0.5)

    def test_standardization_round_trip(self, dataset):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        raw = dataset.frames("S003", Protocol.EO)[:4]
        z = system.standardize_a(raw)
        assert z.shape == raw.shape
        # pooled enrollment features have zero mean in the standardized space
        pooled = np.concatenate([system.standardize_a(
            dataset.frames(s, Protocol.EO)[:5]) for s in system.subjects])
        assert np.abs(pooled.mean(axis=0)).max() < 1e-9

    def test_feature_query_bits_match_query_template(self, dataset):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        system = AuthSystem(dataset, config)
        v1 = dataset.frames("S002", Protocol.EO)[7]
        v2 = dataset.frames("S002", Protocol.EC)[7]
        bits = system.feature_query_bits("S001", v1, v2)
        template = system.query_template("S001", "S002", 7, 1)
        assert np.array_equal(bits, template.bits)


class TestWindows:
    @pytest.fixture(scope="class")
    def system(self, dataset):
        return AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))

    @staticmethod
    def sliced(system, dataset, subject, start, n_frames):
        """One window by plain slicing, then the population standardizers."""
        window = slice(start, start + n_frames)
        return (system.standardize_a(dataset.frames(subject, Protocol.EO)[window]),
                system.standardize_b(dataset.frames(subject, Protocol.EC)[window]))

    @pytest.mark.parametrize("sources, starts", [
        ("S003", 4),
        (["S001", "S004", "S001"], [0, 7, 12]),
        ("S002", [3, 9]),
        (np.array(["S005", "S002", "S005"])[:, None], [0, 6, 15]),
    ], ids=["scalar", "k-repeated-subject", "k-one-subject", "subjects-by-windows"])
    def test_equals_per_window_slicing(self, system, dataset, sources, starts):
        n_frames = 3
        v1, v2 = system.windows(sources, starts, n_frames)
        shape = np.broadcast_shapes(np.shape(sources), np.shape(starts))
        assert v1.shape == v2.shape == shape + (n_frames, system.dim)
        sources, starts = np.broadcast_arrays(np.asarray(sources), np.asarray(starts))
        for index in np.ndindex(shape):
            want = self.sliced(system, dataset, str(sources[index]), int(starts[index]),
                               n_frames)
            assert np.array_equal(v1[index], want[0])
            assert np.array_equal(v2[index], want[1])

    def test_short_window_names_subject_and_offset(self, system):
        assert system.usable_frames("S004") == 20
        system.windows("S004", 17, 3)
        with pytest.raises(ConfigError, match="subject S004: not enough frames at offset 18"):
            system.windows(["S001", "S004"], [0, 18], 3)

    def test_negative_start_or_empty_window_refused(self, system):
        with pytest.raises(ConfigError, match="subject S002: negative frame offset -1"):
            system.windows("S002", -1, 1)
        with pytest.raises(ConfigError, match="at least one frame"):
            system.windows("S002", 0, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("start", [2 ** 63, 2 ** 64, 10 ** 23, -2 ** 63 - 1, -10 ** 23])
    def test_start_outside_int64_names_the_real_offset(self, system, start):
        """No OverflowError or wrapped offset, alone or beside valid starts."""
        message = (f"subject S002: negative frame offset {start}" if start < 0
                   else f"subject S002: not enough frames at offset {start}")
        for sources, starts in (("S002", start), (["S001", "S002"], [0, start])):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                system.windows(sources, starts, 1)

    def test_usable_frames_is_the_shorter_stream(self):
        dataset = random_feature_dataset(n_subjects=3, n_frames=12, dim=6, seed=4)
        dataset.vectors[("S002", Protocol.EC)] = dataset.vectors[("S002", Protocol.EC)][:9]
        system = AuthSystem(dataset, SystemConfig(enroll_frames=4, query_frames=1))
        assert [system.usable_frames(s) for s in system.subjects] == [12, 9, 12]
        with pytest.raises(ConfigError, match="subject S002: not enough frames at offset 8"):
            system.windows("S002", 8, 2)


class TestReissue:
    def test_reissue_is_deterministic_and_non_mutating(self, dataset):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        before = system.users["S001"].template.bits.copy()
        a = system.reissue("S001", 555)
        b = system.reissue("S001", 555)
        assert np.array_equal(a.template.bits, b.template.bits)
        assert np.array_equal(system.users["S001"].template.bits, before)
        assert a.params.key_id != system.users["S001"].params.key_id

    def test_revoke_mutates(self, dataset):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        old_bits = system.users["S001"].template.bits.copy()
        system.revoke("S001", 808)
        assert system.users["S001"].params.user_key == 808
        assert not np.array_equal(system.users["S001"].template.bits, old_bits)

    def test_reissued_template_accepts_true_features(self, dataset):
        # re-enrollment from the stored features stays self-consistent
        config = SystemConfig(enroll_frames=5, query_frames=5)
        system = AuthSystem(dataset, config)
        system.revoke("S004", 31337)
        query = system.query_template("S004", "S004", 0, 5)
        assert tr.match(query, system.users["S004"].template, config.theta).score == 0.0

    def test_fresh_keys_skip_forbidden_and_repeated_draws(self):
        class Scripted:
            def __init__(self, draws):
                self.draws, self.calls = list(draws), []

            def integers(self, low, high):
                self.calls.append((low, high))
                return np.int64(self.draws.pop(0))

        rng = Scripted([5, 7, 5, 9, 7, 3, 11])
        keys = fresh_keys(rng, 3, forbidden={7})
        assert keys == [5, 9, 3] and all(type(k) is int for k in keys)
        assert rng.calls == [(0, 2 ** 63)] * 6 and rng.draws == [11]


class TestUnknownSubject:
    @pytest.fixture(scope="class")
    def system(self, dataset):
        return AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))

    @pytest.mark.parametrize("lookup", [
        lambda system: system.users["S009"],
        lambda system: system.scorer("S009"),
        lambda system: system.reissue("S009", 1),
        lambda system: system.revoke("S009", 1),
        lambda system: system.query_template("S009", "S001", 5),
    ], ids=["users", "scorer", "reissue", "revoke", "query_template"])
    def test_is_a_config_error(self, system, dataset, lookup):
        with pytest.raises(ConfigError, match="^unknown subject 'S009'$"):
            lookup(system)
        assert system.subjects == dataset.subjects

    def test_windows_names_the_subject(self, system):
        with pytest.raises(ConfigError, match="^no features for subject 'S009' / EO$"):
            system.windows(["S001", "S009"], 0, 1)


class TestLazyTemplates:
    """An account builds its template on first read, so work that reads none
    builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Subject ids passed to transform.make_template, one per call."""
        calls = []
        original = tr.make_template

        def counted(*args, **kwargs):
            calls.append(kwargs.get("subject_id"))
            return original(*args, **kwargs)
        monkeypatch.setattr(tr, "make_template", counted)
        return calls

    def test_enrollment_and_template_free_protocols_build_none(self, dataset, built):
        config = SystemConfig(enroll_frames=5, query_frames=1)
        system = AuthSystem(dataset, config)
        system.revoke("S002", 99)
        me.decidability_protocol(dataset, "S001", config)
        me.unlinkability_protocol(dataset, config, n_keys=3)
        assert built == []
        assert system.users["S002"].template is system.users["S002"].template
        assert built == ["S002"]

    def test_protocol_tests_builds_one_per_account(self, dataset, built):
        me.protocol_tests(dataset, 5, 1, SystemConfig())
        assert built == dataset.subjects
