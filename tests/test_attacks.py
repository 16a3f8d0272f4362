import numpy as np
import pytest

from neurolock import attacks as atk
from neurolock import transform as tr
from neurolock.errors import ConfigError, ObjectiveError, ShapeError
from neurolock.pipeline import random_feature_dataset
from neurolock.system import AuthSystem, SystemConfig

# worked low-dimensional inversion fixture (two keys, same features)
V1 = np.array([0.19, 0.54, 0.37, 0.84])
V2 = np.array([0.59, 0.18, 0.04, 0.92])
P1 = np.array([2, 3, 0, 1])
P2 = np.array([1, 2, 3, 0])
M1 = np.array([[0.15, 0.40], [0.09, 0.54], [0.19, 0.42], [0.35, 0.69]])
M2 = np.array([[0.50, 0.17], [0.22, 0.09], [0.20, 0.69], [0.76, 0.95]])
R1_HAT = np.array([0.2, 0.5])
R2_HAT = np.array([0.3, 0.2])


def params_of(perm, proj, key):
    return tr.TransformParams(user_key=key, dim=4, delta=0.5, permutation=perm,
                              projection=proj, key_id=f"k{key}")


def template_of(r_hat):
    # encode the estimated projections losslessly enough for the solver
    qr = np.stack([r_hat - 0.5, r_hat + 0.5], axis=1)
    meta = tr.TemplateMeta(subject_id="S", key_id="k", delta=0.5,
                           frames_averaged=1, quant_range=qr)
    return tr.CancellableTemplate(bits=tr.gray_encode(r_hat, qr), meta=meta)


def nelder_mead(objective, x0):
    """`atk.nelder_mead` from steps of a tenth of each start coordinate plus 0.1."""
    return atk.nelder_mead(objective, x0, initial_step=0.1 * (np.abs(x0) + 1.0))


class TestNelderMead:
    def test_quadratic_bowl(self):
        x, f = nelder_mead(lambda v: float((v ** 2).sum()), np.array([1.0, 1.0]))
        assert f < 1e-8
        assert f == float((x ** 2).sum())

    def test_absolute_value_matches_grid_search(self):
        objective = lambda v: float(abs(v[0] - 3.0))
        x, f = nelder_mead(objective, np.array([0.0]))
        grid = np.linspace(-5, 10, 150001)
        best = grid[np.argmin(np.abs(grid - 3.0))]
        assert abs(x[0] - best) < 1e-4

    def test_quadratic_stops_when_the_simplex_collapses(self):
        """With no budget, a plain objective runs until the simplex collapses
        below 1e-10, and the best vertex is the best value seen."""
        values = []

        def objective(v):
            values.append(float((v ** 2).sum()))
            return values[-1]
        x, f = nelder_mead(objective, np.array([1.0, -2.0]))
        assert f == min(values)
        assert np.max(np.abs(x)) < 1e-9

    def test_nan_objective_raises(self):
        with pytest.raises(ObjectiveError):
            nelder_mead(lambda v: float("nan"), np.zeros(2))


class TestHillClimb:
    def test_vacuous_threshold_succeeds_immediately(self, small_system):
        config = atk.AttackConfig(case=atk.AttackCase.FEATURE_SPACE, theta=1.0,
                                  max_attempts=10, seed=0)
        outcome = atk.hill_climb_attack(small_system, "S001", config)
        assert outcome.success
        assert outcome.attempts == 1

    def test_impossible_threshold_single_attempt_fails(self, small_system):
        config = atk.AttackConfig(case=atk.AttackCase.TEMPLATE_SPACE, theta=0.0,
                                  max_attempts=1, seed=0)
        outcome = atk.hill_climb_attack(small_system, "S001", config)
        assert not outcome.success
        assert outcome.attempts == 1
        assert outcome.best_score > 0.0

    def test_attempt_accounting_exact(self, small_system):
        config = atk.AttackConfig(case=atk.AttackCase.TEMPLATE_SPACE, theta=0.0,
                                  max_attempts=137, seed=1)
        outcome = atk.hill_climb_attack(small_system, "S001", config)
        assert outcome.attempts == 137
        assert len(outcome.trace) == 137
        assert all(type(score) is float for score in outcome.trace)

    def test_template_space_dimension(self, small_system):
        config = atk.AttackConfig(case=atk.AttackCase.TEMPLATE_SPACE, theta=0.45,
                                  max_attempts=4000, seed=2)
        outcome = atk.hill_climb_attack(small_system, "S002", config)
        if outcome.success:
            assert outcome.solution.size == small_system.users["S002"].params.n_out

    def test_campaign_report(self, small_system):
        config = atk.AttackConfig(case=atk.AttackCase.FEATURE_SPACE, theta=0.45,
                                  max_attempts=3000, seed=3)
        report = atk.run_hill_climb_campaign(small_system, config)
        assert len(report.outcomes) == 6
        assert 0.0 <= report.success_rate <= 1.0
        payload = report.to_json_dict()
        assert payload["case"] == "feature_space"
        assert len(payload["per_user"]) == 6

    def test_campaign_computes_the_feature_box_once(self, small_system, monkeypatch):
        calls = []
        feature_bounds = atk.default_feature_bounds

        def counted(system):
            calls.append(system)
            return feature_bounds(system)
        monkeypatch.setattr(atk, "default_feature_bounds", counted)
        for case in atk.CASES:  # template space searches each key's own range
            atk.run_hill_climb_campaign(small_system, atk.AttackConfig(
                case=case, theta=0.0, max_attempts=30, seed=2))
        assert calls == [small_system]

    @pytest.mark.parametrize("case,bounds", [
        ("feature_space", np.tile([-1.0, 1.0], (3, 1))),   # searches 2 * dim = 20 values
        ("template_space", np.tile([-1.0, 1.0], (6, 1))),  # the key projects to 5 values
    ])
    def test_bounds_of_wrong_shape_fail_before_any_query(self, small_system, monkeypatch,
                                                         case, bounds):
        queries = []
        original = atk.ScoreOracle.__call__

        def counted(oracle, candidate):
            queries.append(candidate)
            return original(oracle, candidate)
        monkeypatch.setattr(atk.ScoreOracle, "__call__", counted)
        config = atk.AttackConfig(case=case, max_attempts=10, bounds=bounds)
        with pytest.raises(ShapeError, match="search bounds"):
            atk.hill_climb_attack(small_system, "S001", config)
        assert queries == []

    @pytest.mark.parametrize("case", ["feature_space", "template_space"])
    @pytest.mark.parametrize("corrupt", [
        lambda b: np.vstack([[np.nan, b[0, 1]], b[1:]]),
        lambda b: b[:, ::-1],
    ], ids=["nan-lower-bound", "inverted-rows"])
    def test_bad_bound_values_fail_before_any_query(self, small_system, monkeypatch,
                                                    case, corrupt):
        queries = []
        monkeypatch.setattr(atk.ScoreOracle, "__call__",
                            lambda oracle, candidate: queries.append(candidate))
        bounds = (atk.default_feature_bounds(small_system) if case == "feature_space"
                  else small_system.users["S001"].params.quant_range)
        config = atk.AttackConfig(case=case, max_attempts=10, bounds=corrupt(bounds))
        with pytest.raises(ConfigError, match="search bounds must be finite"):
            atk.hill_climb_attack(small_system, "S001", config)
        assert queries == []

    def test_explicit_default_bounds_search_the_same(self, small_system):
        account = small_system.users["S001"]
        for case, bounds in (("feature_space", atk.default_feature_bounds(small_system)),
                             ("template_space", account.params.quant_range)):
            default, explicit = [
                atk.hill_climb_attack(small_system, "S001", atk.AttackConfig(
                    case=case, theta=0.0, max_attempts=50, bounds=b))
                for b in (None, bounds)]
            assert explicit.trace == default.trace

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            atk.AttackConfig(theta=1.5)
        with pytest.raises(ConfigError):
            atk.AttackConfig(max_attempts=0)
        with pytest.raises(ConfigError, match="case must be one of"):
            atk.AttackConfig(case="feature")
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            atk.AttackConfig(seed="x")

    def test_case_given_by_value(self):
        assert atk.AttackConfig(case="template_space").case is atk.AttackCase.TEMPLATE_SPACE


def table_oracle(scores, theta=0.5, max_attempts=100, blocks=None):
    """A score oracle whose candidate scores scores[i], i the sum of its entries;
    `blocks` collects the size of every block the batch scorer receives."""
    table = np.asarray(scores, dtype=float)

    def batch_fn(rows):
        if blocks is not None:
            blocks.append(len(rows))
        return table[rows.sum(axis=1).astype(int)]
    return atk.ScoreOracle(lambda x: float(table[int(x.sum())]), theta, max_attempts, batch_fn)


def rows_of(count):
    return np.stack([np.arange(count, dtype=float), np.zeros(count)], axis=1)


def row_by_row(oracle, rows):
    return [oracle(row) for row in rows]


each_query_path = pytest.mark.parametrize("query", [atk.ScoreOracle.batch, row_by_row],
                                          ids=["batch", "row-by-row"])


def test_hill_climb_on_an_unknown_subject_fails_before_the_first_query(small_system,
                                                                        monkeypatch):
    def never(*args):
        raise AssertionError("oracle queried")
    monkeypatch.setattr(atk.ScoreOracle, "__call__", never)
    monkeypatch.setattr(atk.ScoreOracle, "batch", never)
    for case in atk.AttackCase:
        with pytest.raises(ConfigError, match="^unknown subject 'S009'$"):
            atk.hill_climb_attack(small_system, "S009", atk.AttackConfig(case=case))


class TestOracleBatch:
    @each_query_path
    def test_accept_mid_batch_ends_count_and_trace_at_that_row(self, query):
        oracle = table_oracle([0.9, 0.8, 0.7, 0.2, 0.1, 0.6])
        with pytest.raises(atk._SearchOver):
            query(oracle, rows_of(6))
        assert oracle.attempts == 4
        assert oracle.trace == [0.9, 0.8, 0.7, 0.2]
        assert all(type(score) is float for score in oracle.trace)
        assert np.array_equal(oracle.best_x, [3.0, 0.0])
        assert oracle.best_score == 0.2

    @each_query_path
    def test_budget_mid_batch_counts_the_covered_rows_then_raises(self, query):
        blocks = []
        oracle = table_oracle([0.9, 0.8, 0.7, 0.6, 0.55], max_attempts=3, blocks=blocks)
        with pytest.raises(atk._SearchOver):
            query(oracle, rows_of(5))
        assert oracle.attempts == oracle.max_attempts == 3
        assert oracle.trace == [0.9, 0.8, 0.7]
        assert (oracle.best_score, oracle.best_x.tolist()) == (0.7, [2.0, 0.0])
        assert blocks == ([3] if query is atk.ScoreOracle.batch else [])  # no row past it

    @each_query_path
    def test_tied_scores_keep_the_first_seen_row(self, query):
        oracle = table_oracle([0.9, 0.7, 0.8, 0.7, 0.7])
        assert query(oracle, rows_of(5)) == [0.9, 0.7, 0.8, 0.7, 0.7]
        assert (oracle.best_score, oracle.best_x.tolist()) == (0.7, [1.0, 0.0])

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "row-by-row"])
    def test_nelder_mead_stops_where_the_oracle_budget_ends(self, monkeypatch, batched):
        if not batched:
            monkeypatch.delattr(atk.ScoreOracle, "batch")
        oracle = table_oracle([0.9] * 10, max_attempts=4)
        with pytest.raises(atk._SearchOver):
            nelder_mead(oracle, np.zeros(5))  # ends mid-simplex
        assert (oracle.attempts, len(oracle.trace)) == (4, 4)
        assert (oracle.best_score, oracle.best_x.tolist()) == (0.9, [0.0] * 5)

    def test_a_budget_of_one_scores_only_the_start(self):
        blocks = []
        oracle = table_oracle([0.9, 0.8, 0.7], max_attempts=1, blocks=blocks)
        with pytest.raises(atk._SearchOver):
            atk.nelder_mead(oracle, np.array([2.0, 0.0]), initial_step=-1.0)
        assert blocks == [1]
        assert oracle.trace == [0.7]
        assert (oracle.best_score, oracle.best_x.tolist()) == (0.7, [2.0, 0.0])

    def test_nelder_mead_stops_at_the_first_accepted_row(self):
        oracle = table_oracle([0.9, 0.8, 0.3, 0.1], max_attempts=100)
        with pytest.raises(atk._SearchOver):
            atk.nelder_mead(oracle, np.zeros(3), initial_step=[1.0, 2.0, 3.0])
        assert oracle.trace == [0.9, 0.8, 0.3]
        assert (oracle.best_score, oracle.best_x.tolist()) == (0.3, [0.0, 2.0, 0.0])

    def test_nan_row_raises_objective_error(self):
        oracle = table_oracle([0.9, 0.8, float("nan"), 0.6])
        with pytest.raises(ObjectiveError):
            atk.nelder_mead(oracle, np.zeros(3), initial_step=[1.0, 2.0, 3.0])
        assert oracle.trace[:2] == [0.9, 0.8]
        assert np.isnan(oracle.trace[2])


class TestBatchedSimplex:
    """The initial simplex and every shrink go through ScoreOracle.batch; the
    search must count, trace and find exactly what it does one row at a
    time (the oracle without `batch`, as nelder_mead then calls it)."""

    @staticmethod
    def climb(system, monkeypatch, subject, config):
        blocks = []
        batch = atk.ScoreOracle.batch

        def recorded(oracle, rows):
            blocks.append((oracle.attempts, len(rows)))
            return batch(oracle, rows)
        with monkeypatch.context() as patch:
            patch.setattr(atk.ScoreOracle, "batch", recorded)
            batched = atk.hill_climb_attack(system, subject, config)
        with monkeypatch.context() as patch:
            patch.delattr(atk.ScoreOracle, "batch")
            row_by_row = atk.hill_climb_attack(system, subject, config)
        for name in ("success", "attempts", "best_score", "similarity", "trace"):
            assert getattr(batched, name) == getattr(row_by_row, name), name
        assert batched.solution.tobytes() == row_by_row.solution.tobytes()
        return batched, blocks

    @pytest.mark.parametrize("case,subject,theta,seed", [
        ("feature_space", "S001", 0.15, 1), ("template_space", "S003", 0.25, 1)])
    def test_accept_mid_batch(self, small_system, monkeypatch, case, subject, theta, seed):
        config = atk.AttackConfig(case=case, theta=theta, max_attempts=2000, seed=seed)
        outcome, blocks = self.climb(small_system, monkeypatch, subject, config)
        start, size = blocks[-1]
        assert outcome.success
        assert start + 1 < outcome.attempts < start + size  # neither first nor last row
        assert (len(outcome.trace), outcome.trace[-1]) == (outcome.attempts,
                                                           outcome.best_score)
        assert outcome.best_score <= theta

    @pytest.mark.parametrize("case", ["feature_space", "template_space"])
    def test_budget_ends_mid_batch(self, small_system, monkeypatch, case):
        probe = atk.AttackConfig(case=case, theta=0.0, max_attempts=400, seed=5)
        _, blocks = self.climb(small_system, monkeypatch, "S002", probe)
        start, size = next((a, k) for a, k in blocks if a > 100 and k >= 3)
        budget = start + size // 2
        config = atk.AttackConfig(case=case, theta=0.0, max_attempts=budget, seed=5)
        outcome, blocks = self.climb(small_system, monkeypatch, "S002", config)
        # no block came after the budget ended, and the last one began at start
        assert all(attempts < budget for attempts, _ in blocks)
        assert blocks[-1][0] == start
        assert not outcome.success
        assert outcome.attempts == len(outcome.trace) == config.max_attempts

    def test_no_block_is_scored_on_a_spent_budget(self, small_system, monkeypatch):
        """A shrink reached after a single query spent the budget scores nothing:
        the oracle stops before it calls the scorer on an empty block."""
        sizes = []
        init = atk.ScoreOracle.__init__

        def recording(oracle, score_fn, theta, max_attempts, batch_fn):
            def counted(rows):
                sizes.append(len(rows))
                return batch_fn(rows)
            init(oracle, score_fn, theta, max_attempts, counted)
        monkeypatch.setattr(atk.ScoreOracle, "__init__", recording)
        for case in ("feature_space", "template_space"):
            for budget in range(50, 1494, 37):
                config = atk.AttackConfig(case=case, theta=0.0, max_attempts=budget, seed=0)
                assert atk.hill_climb_attack(small_system, "S001", config).attempts == budget
        assert len(sizes) > 5000
        assert sizes.count(0) == 0


class TestArm:
    def test_worked_example_recovery_far_from_truth(self):
        result = atk.arm_attack(
            [template_of(R1_HAT), template_of(R2_HAT)],
            [params_of(P1, M1, 1), params_of(P2, M2, 10)],
            truth=(V1, V2))
        assert result.n_equations == 4
        assert result.n_unknowns == 8
        assert result.rank < result.n_unknowns
        # all-positive 8-vectors have a chance cosine of 0.76 +- 0.11, so the
        # meaningful claim is "at or below chance": no information recovered
        assert result.similarity < 0.9
        truth = np.concatenate([V1, V2])
        estimate = np.concatenate([result.v1_hat, result.v2_hat])
        tc = truth - truth.mean()
        ec = estimate - estimate.mean()
        centered = tc @ ec / (np.linalg.norm(tc) * np.linalg.norm(ec))
        assert abs(centered) < 0.8  # within ~2 sigma of zero for 8 components

    def test_single_pair_underdetermined(self):
        result = atk.arm_attack([template_of(R1_HAT)], [params_of(P1, M1, 1)],
                                truth=(V1, V2))
        assert result.n_equations == 2
        assert result.n_unknowns == 4
        assert result.rank < result.n_unknowns
        # minimum-norm solution cannot reproduce the true monomials
        c_true = V1[P1] * V2
        recovered = result.v1_hat[P1] * result.v2_hat
        assert not np.allclose(recovered, c_true, atol=1e-3)

    def test_residual_matches_normal_equations_oracle(self, rng):
        dim, delta = 6, 0.5
        v1 = rng.uniform(0.1, 1.0, dim)
        v2 = rng.uniform(0.1, 1.0, dim)
        templates, params_list = [], []
        for key in (5, 6, 7):
            params = tr.derive_params(key, dim, delta)
            r = tr.project(tr.combine(v1, v2, params), params)
            qr = np.stack([r - 1.0, r + 1.0], axis=1)
            meta = tr.TemplateMeta(subject_id="S", key_id=params.key_id,
                                   delta=delta, frames_averaged=1, quant_range=qr)
            templates.append(tr.CancellableTemplate(bits=tr.gray_encode(r, qr),
                                                    meta=meta))
            params_list.append(params)
        result = atk.arm_attack(templates, params_list)
        # each template decodes over its own range: no key's block is dropped
        assert result.n_equations == 3 * params_list[0].n_out
        # oracle: rebuild the same system and solve by pseudo-inverse
        monomial_col = {}
        rows, rhs = [], []
        for template, params in zip(templates, params_list):
            r_hat = tr.gray_decode(template.bits, template.meta.quant_range)
            for j in range(params.n_out):
                coeffs = {}
                for i in range(dim):
                    key = (int(params.permutation[i]), i)
                    col = monomial_col.setdefault(key, len(monomial_col))
                    coeffs[col] = coeffs.get(col, 0.0) + params.projection[i, j]
                rows.append(coeffs)
                rhs.append(r_hat[j])
        a = np.zeros((len(rows), len(monomial_col)))
        for r_idx, coeffs in enumerate(rows):
            for col, value in coeffs.items():
                a[r_idx, col] = value
        z = np.linalg.pinv(a) @ np.array(rhs)
        oracle_residual = np.linalg.norm(a @ z - np.array(rhs))
        assert result.residual == pytest.approx(oracle_residual, abs=1e-8)

    def test_underdetermined_for_few_keys(self, rng):
        for trial in range(20):
            dim = int(rng.integers(4, 16))
            n_keys = int(rng.integers(1, 4))
            v1 = rng.uniform(0.1, 1.0, dim)
            v2 = rng.uniform(0.1, 1.0, dim)
            templates, params_list = [], []
            for k in range(n_keys):
                params = tr.derive_params(1000 + trial * 10 + k, dim, 0.5)
                r = tr.project(tr.combine(v1, v2, params), params)
                qr = np.stack([r - 1.0, r + 1.0], axis=1)
                meta = tr.TemplateMeta(subject_id="S", key_id=params.key_id,
                                       delta=0.5, frames_averaged=1,
                                       quant_range=qr)
                templates.append(tr.CancellableTemplate(
                    bits=tr.gray_encode(r, qr), meta=meta))
                params_list.append(params)
            result = atk.arm_attack(templates, params_list)
            assert result.rank < result.n_unknowns

    def test_dim_mismatch_raises(self):
        with pytest.raises(ShapeError):
            atk.arm_attack([template_of(R1_HAT)],
                           [params_of(P1, M1, 1), params_of(P2, M2, 2)])

    @pytest.mark.parametrize("r_hat", [np.array([0.2]), np.array([0.2, 0.5, 0.1])])
    def test_bit_count_must_match_key(self, r_hat):
        # the key projects to 2 values: 8 or 24 bits are one value short or over
        with pytest.raises(ShapeError, match="projects to 2 values"):
            atk.arm_attack([template_of(R1_HAT), template_of(r_hat)],
                           [params_of(P1, M1, 1), params_of(P2, M2, 10)])


class TestSecondAttack:
    def test_true_features_always_pass_single_frame_system(self):
        dataset = random_feature_dataset(n_subjects=5, n_frames=10, dim=8, seed=77)
        config = SystemConfig(enroll_frames=1, query_frames=1, delta=0.5)
        system = AuthSystem(dataset, config)
        solutions = [atk.Solution(subject=s, kind="feature",
                                  payload=system.users[s].true_features,
                                  source="oracle")
                     for s in system.subjects]
        report = atk.second_attack(system, solutions, n_keys=20, theta=0.389, seed=1)
        assert report.sar == 1.0
        assert report.score_mean == 0.0

    def test_random_public_vectors_rejected_at_strict_threshold(self):
        dataset = random_feature_dataset(n_subjects=6, n_frames=10, dim=10, seed=78)
        config = SystemConfig(enroll_frames=2, query_frames=1, delta=0.5)
        system = AuthSystem(dataset, config)
        solutions = atk.public_data_solutions(system, n_per_user=1, seed=5)
        report = atk.second_attack(system, solutions, n_keys=30, theta=0.05, seed=2)
        assert report.sar == 0.0
        assert report.n_tests == 6 * 30

    def test_template_solutions_report_bit_similarity(self):
        dataset = random_feature_dataset(n_subjects=4, n_frames=10, dim=8, seed=79)
        config = SystemConfig(enroll_frames=2, query_frames=1, delta=0.5)
        system = AuthSystem(dataset, config)
        solutions = [atk.Solution(subject="S001", kind="template",
                                  payload=system.users["S001"].template.bits.copy(),
                                  source="mathematical")]
        report = atk.second_attack(system, solutions, n_keys=25, theta=0.05, seed=3)
        assert report.n_tests == 25
        assert report.similarity_mean == pytest.approx(1.0 - report.score_mean)
        assert sorted(report.to_json_dict()) == [
            "n_successes", "n_tests", "per_solution", "sar", "score_mean", "score_std",
            "similarity_mean", "similarity_std"]

    def test_no_solutions_report_no_scores(self):
        dataset = random_feature_dataset(n_subjects=4, n_frames=10, dim=8, seed=79)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=2, query_frames=1,
                                                  delta=0.5))
        report = atk.second_attack(system, [], n_keys=3)
        assert (report.n_tests, report.n_successes, report.sar) == (0, 0, 0.0)
        assert report.score_mean is None and report.score_std is None
        assert report.similarity_mean is None and report.similarity_std is None

    def test_unknown_kind_fails_before_any_reissue(self, monkeypatch):
        dataset = random_feature_dataset(n_subjects=3, n_frames=6, dim=8, seed=80)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=2, query_frames=1,
                                                  delta=0.5))
        reissued = []
        monkeypatch.setattr(system, "reissue", lambda *args: reissued.append(args))
        solutions = [atk.Solution(subject="S001", kind="feature",
                                  payload=system.users["S001"].true_features),
                     atk.Solution(subject="S002", kind="bits",
                                  payload=system.users["S002"].template.bits)]
        with pytest.raises(ConfigError, match="unknown solution kind 'bits'"):
            atk.second_attack(system, solutions, n_keys=3)
        assert reissued == []

    @pytest.mark.parametrize("corrupt", [
        lambda bits: bits.astype(float),
        lambda bits: bits.reshape(2, -1),
        lambda bits: bits[:-1],
        lambda bits: bits.astype(int) * 2,
    ], ids=["float", "2-d", "one-bit-short", "not-0-or-1"])
    def test_bad_template_payload_fails_before_any_reissue(self, monkeypatch, corrupt):
        dataset = random_feature_dataset(n_subjects=3, n_frames=6, dim=8, seed=80)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=2, query_frames=1,
                                                  delta=0.5))
        reissued = []
        monkeypatch.setattr(system, "reissue", lambda *args: reissued.append(args))
        bits = system.users["S002"].template.bits
        solutions = [atk.Solution(subject="S001", kind="template",
                                  payload=system.users["S001"].template.bits),
                     atk.Solution(subject="S002", kind="template", payload=corrupt(bits))]
        with pytest.raises(ShapeError, match=f"S002 is not a 1-D integer or bool array "
                                             f"of {bits.size} bits, each 0 or 1"):
            atk.second_attack(system, solutions, n_keys=3)
        assert reissued == []

    @pytest.mark.parametrize("kind", ["feature", "template"])
    def test_unknown_subject_fails_before_any_reissue(self, small_system, monkeypatch,
                                                      kind):
        reissued = []
        monkeypatch.setattr(small_system, "reissue", lambda *args: reissued.append(args))
        payload = (np.ones(2 * small_system.dim) if kind == "feature"
                   else small_system.users["S001"].template.bits)
        solutions = [atk.Solution(subject="S001", kind=kind, payload=payload),
                     atk.Solution(subject="S009", kind=kind, payload=payload)]
        with pytest.raises(ConfigError, match="^unknown subject 'S009'$"):
            atk.second_attack(small_system, solutions, n_keys=3)
        assert reissued == []

    @pytest.mark.parametrize("n_keys", [0, -1])
    def test_fewer_than_one_key_fails_before_any_reissue(self, monkeypatch, n_keys):
        dataset = random_feature_dataset(n_subjects=4, n_frames=10, dim=8, seed=81)
        system = AuthSystem(dataset, SystemConfig(enroll_frames=2, query_frames=1,
                                                  delta=0.5))
        reissued = []
        monkeypatch.setattr(system, "reissue", lambda *args: reissued.append(args))
        solutions = atk.public_data_solutions(system, seed=5)[:2]
        with pytest.raises(ConfigError, match=f"at least one fresh key, got {n_keys}$"):
            atk.second_attack(system, solutions, n_keys=n_keys)
        assert reissued == []


class TestBruteForce:
    def test_paper_dimensions(self):
        assert atk.brute_force_space(70, 8) == 1120

    def test_small_cases(self):
        assert atk.brute_force_space(4, 8) == 64
        assert atk.brute_force_space(1, 1) == 2

    def test_invalid(self):
        with pytest.raises(ConfigError):
            atk.brute_force_space(0, 8)
