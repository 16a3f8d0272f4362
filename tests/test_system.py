import collections
import gc
import tracemalloc

import numpy as np
import pytest

from neurolock import attacks as atk
from neurolock import matching_eval as me
from neurolock import transform as tr
from neurolock.errors import ConfigError, IncompatibleTemplates
from neurolock.ingest import Protocol
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AccountScorer, AuthSystem, SystemConfig, fresh_keys


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


class TestEnrolledCodes:
    @pytest.fixture
    def encoded(self, monkeypatch):
        """Enrollment windows passed to transform.encode_bytes, one count a call."""
        calls = []
        original = tr.encode_bytes

        def counted(v1, v2, params):
            calls.append(v1.reshape(-1, *v1.shape[-2:]).shape[0])
            return original(v1, v2, params)
        monkeypatch.setattr(tr, "encode_bytes", counted)
        return calls

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_codes_are_the_packed_template(self, dataset, encoded, lost_key):
        """Every account's gray bytes come from its key's calibration, with no
        `encode_bytes` call, and equal its template's bits packed: after a
        revoke, and for a reissued account. They are read-only."""
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                  lost_key=lost_key))
        system.revoke("S002", 4242)
        codes = system.codes()
        reissued = system.reissue("S004", 777)
        reissued_codes = reissued.codes
        assert encoded == []
        assert codes.dtype == np.uint8
        assert codes.shape == (6, system.users["S001"].params.n_out)
        for row, subject in zip(codes, system.subjects):
            account = system.users[subject]
            assert np.array_equal(row, account.codes)
            assert np.array_equal(account.codes, np.packbits(account.template.bits))
        assert np.array_equal(reissued_codes, np.packbits(reissued.template.bits))
        system.revoke("S005", 778)
        encoded.clear()
        row = system.codes()[4]
        assert encoded == []
        assert np.array_equal(row, np.packbits(system.users["S005"].template.bits))
        with pytest.raises(ValueError, match="read-only"):
            system.users["S005"].codes[0] = 0

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_each_key_projects_the_population_once(self, dataset, monkeypatch, lost_key):
        """`system_tests`, enrolled bytes (`codes`) included, projects the 6 x 5
        enrollment frames once per key, besides the query windows that key
        encodes: under the shared key all 6 x 15 genuine windows, under a
        user's key its own 15 and the other 5 subjects' first."""
        projected = collections.Counter()
        project = tr.project

        def counted(c, params):
            projected[params.key_id] += np.size(c) // params.dim
            return project(c, params)
        monkeypatch.setattr(tr, "project", counted)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                  lost_key=lost_key))
        me.system_tests(system)
        keys = {system.users[s].params.key_id for s in system.subjects}
        assert projected == dict.fromkeys(keys, 30 + (90 if lost_key else 15 + 5))


class TestKeyring:
    @pytest.mark.parametrize("lost_key", [True, False])
    def test_enrolled_codes_encode_each_enrollment_under_the_calibrated_key(
            self, dataset, monkeypatch, lost_key):
        """A new key's codes, from its one calibration, are `encode_bytes` of each
        account's enrollment windows under that set; the set is not kept once
        its codes are read."""
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                  lost_key=lost_key))
        fitted = []
        calibrate = tr.calibrate_params
        monkeypatch.setattr(tr, "calibrate_params",
                            lambda params, *args, **kwargs: fitted.append(params.key_id)
                            or calibrate(params, *args, **kwargs))
        codes = system.keyring(4242).codes
        assert fitted == [tr.key_identifier(4242)] and 4242 not in system.keyring.params
        params = system.calibrated_params(4242)
        assert len(fitted) == 2 and np.array_equal(codes, params.codes)
        expected = [tr.encode_bytes(system.users[s].enroll_v1, system.users[s].enroll_v2,
                                    params) for s in system.subjects]
        assert codes.dtype == np.uint8 and np.array_equal(codes, np.stack(expected))


class TestKeyLifetime:
    """The keyring shares a calibrated set among the accounts that hold its
    key and keeps none that no account holds, so a re-keyed or revoked set
    dies with its account."""

    @staticmethod
    def read_every_key(dataset, lost_key):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1,
                                                  lost_key=lost_key))
        for account in system.users.values():
            account.template
        return system

    @staticmethod
    def held(system):
        return {account.key for account in system.users.values()}

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_second_attack_leaves_only_held_keys(self, dataset, lost_key):
        system = self.read_every_key(dataset, lost_key)
        solutions = atk.public_data_solutions(system, seed=1)
        report = atk.second_attack(system, solutions, n_keys=5, seed=2)
        assert report.n_tests == 5 * len(solutions)
        assert set(system.keyring.params) == self.held(system)

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_second_attack_retains_no_memory_per_key(self, lost_key):
        """Each calibrated set of this shape takes about 8 KiB; a second attack
        of 4 solutions keeps what it returns, whatever its number of keys."""
        dataset = random_feature_dataset(n_subjects=4, n_frames=12, dim=30, seed=3)
        system = self.read_every_key(dataset, lost_key)
        solutions = atk.public_data_solutions(system, seed=1)
        atk.second_attack(system, solutions, n_keys=2, seed=0)  # first-call allocations

        def retained(n_keys, seed):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                report = atk.second_attack(system, solutions, n_keys=n_keys, seed=seed)
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before, report
            finally:
                tracemalloc.stop()
        few, _ = retained(2, seed=10)
        many, report = retained(40, seed=11)
        assert report.n_tests == 40 * len(solutions)
        assert many - few < 16 * 1024, (few, many)

    def test_revoke_under_per_user_keys_drops_the_old_key(self, dataset):
        system = self.read_every_key(dataset, lost_key=False)
        old = system.users["S002"].key
        system.revoke("S002", 4321)
        assert old not in system.keyring.params
        assert set(system.keyring.params) == self.held(system)
        assert system.keyring.params[4321] is system.users["S002"].params

    def test_revoke_under_the_lost_key_keeps_the_shared_key(self, dataset):
        system = self.read_every_key(dataset, lost_key=True)
        master = system.config.master_key
        shared = system.keyring.params[master]
        system.revoke("S002", 4321)
        system.revoke("S002", 8765)  # the first new key dies with the account it replaced
        assert set(system.keyring.params) == {master, 8765}
        assert system.keyring.params[master] is shared is system.users["S001"].params

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_each_reissue_calibrates_once(self, dataset, monkeypatch, lost_key):
        """A fresh account reads the set its reissue calibrated: it is not dropped
        in between and calibrated again."""
        system = self.read_every_key(dataset, lost_key)
        calls = []
        calibrate = tr.calibrate_params
        monkeypatch.setattr(tr, "calibrate_params",
                            lambda *args, **kwargs: calls.append(1) or calibrate(*args,
                                                                                  **kwargs))
        for count, key in enumerate((11, 12, 13), 1):
            fresh = system.reissue("S003", key)
            assert len(calls) == count
            assert fresh.template.meta.key_id == fresh.params.key_id
            AccountScorer(system, fresh)  # built from the account's own set
            assert len(calls) == count
        atk.second_attack(system, atk.public_data_solutions(system, seed=1), n_keys=4)
        assert len(calls) == 3 + 4 * len(system.subjects)


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

    @pytest.mark.parametrize("sources, starts, bad", [
        ("S002", 3.5, "3.5"),
        ("S002", [1, 2.5], "2.5"),
        ("S002", True, "True"),
        ("S002", np.array([1.0, 2.0]), "1.0"),
        (["S001", "S002"], np.array([True, False]), "True"),
        ("S002", [0, 2 ** 64, 0.5], "0.5"),
        ("S002", [1, True], "True"),
        (["S001", "S002"], (True, 2), "True"),
        ("S002", np.array([1, True], dtype=object), "True"),
        ("S002", [[1], [np.True_]], "np.True_"),
    ], ids=["float", "float-in-list", "bool", "whole-float-array", "bool-array",
            "float-beside-a-big-int", "bool-in-list", "bool-in-tuple", "bool-in-object-array",
            "numpy-bool-in-nested-list"])
    def test_non_integer_start_refused_before_any_gather(self, system, monkeypatch,
                                                         sources, starts, bad):
        monkeypatch.setattr(system, "_gather", lambda *args: pytest.fail("gathered"))
        with pytest.raises(ConfigError, match=f"^a frame offset must be an integer, got {bad}$"):
            system.windows(sources, starts, 1)

    @pytest.mark.parametrize("n_frames", [1.5, True, 2.0, "2"])
    def test_non_integer_window_length_refused_before_any_gather(self, system, monkeypatch,
                                                                 n_frames):
        monkeypatch.setattr(system, "_gather", lambda *args: pytest.fail("gathered"))
        with pytest.raises(ConfigError, match=f"at least one frame, got {n_frames!r}$"):
            system.windows("S002", 0, n_frames)

    def test_numpy_integers_are_integers(self, system):
        want = system.windows("S002", [3, 5], 2)
        for starts, n_frames in ((np.array([3, 5], dtype=np.uint8), np.int64(2)),
                                 ([np.int32(3), 5], np.uint16(2))):
            got = system.windows("S002", starts, n_frames)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("start", [2 ** 63, 2 ** 64, 10 ** 23, -2 ** 63 - 1, -10 ** 23])
    def test_start_outside_int64_names_the_real_offset(self, system, start):
        """No OverflowError or wrapped offset, alone or beside valid starts."""
        message = (f"subject S002: negative frame offset {start}" if start < 0
                   else f"subject S002: not enough frames at offset {start}")
        for sources, starts in (("S002", start), (["S001", "S002"], [0, start])):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                system.windows(sources, starts, 1)

    def test_usable_frames_are_counted_once(self, dataset, monkeypatch):
        system = AuthSystem(dataset, SystemConfig(enroll_frames=5, query_frames=1))
        monkeypatch.setattr(dataset, "n_frames", lambda *args: pytest.fail("counted again"))
        me.system_tests(system)
        me.revocability_scores(system, [4242])
        assert [system.usable_frames(s) for s in system.subjects] == [20] * 6
        monkeypatch.undo()
        with pytest.raises(ConfigError, match="^no features for subject 'S009' / EO$"):
            system.usable_frames("S009")

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

    @pytest.mark.parametrize("lost_key", [True, False])
    def test_protocol_tests_builds_no_template(self, dataset, built, lost_key):
        """The protocols and the scorer count the accounts' gray bytes."""
        config = SystemConfig(enroll_frames=5, query_frames=1, lost_key=lost_key)
        me.protocol_tests(dataset, 5, 1, config)
        system = AuthSystem(dataset, config)
        me.revocability_scores(system, [4242])
        system.scorer("S003").feature_score(np.ones(2 * system.dim))
        assert built == []
