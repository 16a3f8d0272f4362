"""Classification-style vs authentication-style evaluation of per-user
classifiers, with a closed-form LDA.

The classification-style procedure relabels the whole database per subject
and splits it train/test, which leaks every impostor's data into training.
The authentication-style procedure holds out an intruder set entirely:
per-user models train only on user-set data and intruders are scored as
unseen probes. Comparing the two quantifies how much the leak flatters the
false acceptance rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LengthError, SingularityError


@dataclass
class LdaModel:
    weights: np.ndarray
    threshold: float

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary; positive means class 1 (user)."""
        return np.atleast_2d(features) @ self.weights - self.threshold


def lda_train(x: np.ndarray, y: np.ndarray) -> LdaModel:
    """Closed-form two-class LDA of feature rows `x` with 0/1 labels `y`
    (1 = user, 0 = other), one per row.

    w = Sigma^-1 (mu1 - mu0) with Sigma the pooled within-class covariance
    plus reg * I, reg = 1e-6 * trace(Sigma) / dim; the decision threshold
    sits at the projected class-mean midpoint shifted by the log prior
    ratio. A zero within-class covariance leaves Sigma singular and raises.
    """
    if not ((y == 0).any() and (y == 1).any()):
        raise LengthError("training set needs at least one sample per class")
    x0, x1 = x[y == 0], x[y == 1]
    mu0, mu1 = x0.mean(axis=0), x1.mean(axis=0)
    dim = x.shape[1]
    scatter = np.zeros((dim, dim))
    for part, mu in ((x0, mu0), (x1, mu1)):
        centered = part - mu
        scatter += centered.T @ centered
    cov = scatter / x.shape[0]
    cov_reg = cov + 1e-6 * np.trace(cov) / dim * np.eye(dim)
    try:
        weights = np.linalg.solve(cov_reg, mu1 - mu0)
    except np.linalg.LinAlgError:
        raise SingularityError(
            "singular within-class covariance") from None
    prior1 = x1.shape[0] / x.shape[0]
    prior0 = 1.0 - prior1
    threshold = float(0.5 * weights @ (mu1 + mu0) - np.log(prior1 / prior0))
    return LdaModel(weights=weights, threshold=threshold)


# ---------------------------------------------------------------------------
# evaluation procedures
# ---------------------------------------------------------------------------

@dataclass
class SlMetrics:
    accuracy: float
    far: float
    frr: float
    classifier_eer: float
    n_tests: int
    n_user_tests: int
    n_intruder_tests: int
    train_keys: dict = field(default_factory=dict)     # model subject -> set of keys
    intruder_keys: set = field(default_factory=set)    # (subject, idx) of held-out intruders

    def row(self) -> dict:
        return {"accuracy": self.accuracy, "far": self.far, "frr": self.frr,
                "classifier_eer": self.classifier_eer}


def _stratified_split(indices_by_class: dict[int, np.ndarray], split: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train_parts, test_parts = [], []
    for cls, indices in indices_by_class.items():
        shuffled = indices[rng.permutation(indices.size)]
        cut = int(round(split * shuffled.size))
        cut = min(max(cut, 1), shuffled.size - 1)  # both sides non-empty
        train_parts.append(shuffled[:cut])
        test_parts.append(shuffled[cut:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def _sweep_eer(scores: np.ndarray, labels: np.ndarray) -> float:
    """Classifier EER over decision scores (similarity orientation)."""
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    thresholds = np.unique(scores)
    # accept when score >= threshold
    far = 1.0 - np.searchsorted(neg, thresholds, side="left") / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    gap = np.abs(far - frr)
    best = int(np.argmin(gap))
    return float((far[best] + frr[best]) / 2.0)


def _pool_metrics(preds: np.ndarray, truths: np.ndarray, scores: np.ndarray) -> dict:
    tp = int(((preds == 1) & (truths == 1)).sum())
    tn = int(((preds == 0) & (truths == 0)).sum())
    fp = int(((preds == 1) & (truths == 0)).sum())
    fn = int(((preds == 0) & (truths == 1)).sum())
    total = tp + tn + fp + fn
    return {
        "accuracy": (tp + tn) / total if total else float("nan"),
        "far": fp / (fp + tn) if fp + tn else float("nan"),
        "frr": fn / (fn + tp) if fn + tp else float("nan"),
        "classifier_eer": _sweep_eer(scores, truths),
        "n_tests": total,
        "n_user_tests": tp + fn,
        "n_intruder_tests": fp + tn,
    }


def eval_classification_style(dataset: dict[str, np.ndarray], split: float = 0.8,
                              seed: int = 0) -> SlMetrics:
    """Standard one-vs-rest classification evaluation (the leaky procedure).

    Every subject's model is trained on a split of the full relabeled
    database, so other subjects' data is present at training time.
    """
    subjects = sorted(dataset)
    if len(subjects) < 2:
        raise ConfigError("need at least 2 subjects")
    all_x = np.concatenate([dataset[s] for s in subjects])
    all_keys = [(s, i) for s in subjects for i in range(dataset[s].shape[0])]
    preds, truths, scores = [], [], []
    train_keys: dict[str, set] = {}
    for s_idx, subject in enumerate(subjects):
        y = np.array([1 if k[0] == subject else 0 for k in all_keys])
        rng = np.random.default_rng([seed, s_idx])
        train_idx, test_idx = _stratified_split(
            {0: np.flatnonzero(y == 0), 1: np.flatnonzero(y == 1)}, split, rng)
        model = lda_train(all_x[train_idx], y[train_idx])
        train_keys[subject] = {all_keys[i] for i in train_idx}
        s = model.decision_scores(all_x[test_idx])
        preds.extend((s >= 0).astype(int))
        truths.extend(y[test_idx])
        scores.extend(s)
    metrics = _pool_metrics(np.array(preds), np.array(truths), np.array(scores))
    return SlMetrics(**metrics, train_keys=train_keys, intruder_keys=set())


def user_set_size(n_users: int | None, n_subjects: int) -> int:
    """Authentication-style user-set size: `n_users`, or 80 % of the subjects
    (at least 2) when None. It must be at least 2 and leave at least one
    subject for the intruder set; otherwise ConfigError."""
    if n_users is None:
        n_users = max(2, int(0.8 * n_subjects))
    if not (2 <= n_users < n_subjects):
        raise ConfigError(
            f"user-set size {n_users} must leave a non-empty intruder set "
            f"out of {n_subjects} subjects")
    return n_users


def eval_authentication_style(dataset: dict[str, np.ndarray], split: float = 0.8,
                              n_users: int | None = None, seed: int = 0) -> SlMetrics:
    """Held-out-intruder evaluation.

    The subject pool is split into a user set and an intruder set; per-user
    models train only on user-set data, and every intruder sample is scored
    as an unseen probe against every user model.
    """
    subjects = sorted(dataset)
    n_users = user_set_size(n_users, len(subjects))
    rng_split = np.random.default_rng([seed, 0xD15C])
    order = rng_split.permutation(len(subjects))
    user_set = sorted(subjects[i] for i in order[:n_users])
    intruder_set = sorted(subjects[i] for i in order[n_users:])
    intruder_x = np.concatenate([dataset[s] for s in intruder_set])
    intruder_keys = {(s, i) for s in intruder_set for i in range(dataset[s].shape[0])}

    pool_x = np.concatenate([dataset[s] for s in user_set])
    pool_keys = [(s, i) for s in user_set for i in range(dataset[s].shape[0])]
    preds, truths, scores = [], [], []
    train_keys: dict[str, set] = {}
    for u_idx, user in enumerate(user_set):
        y = np.array([1 if k[0] == user else 0 for k in pool_keys])
        rng = np.random.default_rng([seed, 1 + u_idx])
        train_idx, test_idx = _stratified_split(
            {0: np.flatnonzero(y == 0), 1: np.flatnonzero(y == 1)}, split, rng)
        model = lda_train(pool_x[train_idx], y[train_idx])
        train_keys[user] = {pool_keys[i] for i in train_idx}
        # user tests: the held-out genuine samples only
        user_test = np.array([i for i in test_idx if y[i] == 1])
        s_user = model.decision_scores(pool_x[user_test])
        preds.extend((s_user >= 0).astype(int))
        truths.extend(np.ones(user_test.size, dtype=int))
        scores.extend(s_user)
        s_intr = model.decision_scores(intruder_x)
        preds.extend((s_intr >= 0).astype(int))
        truths.extend(np.zeros(intruder_x.shape[0], dtype=int))
        scores.extend(s_intr)
    metrics = _pool_metrics(np.array(preds), np.array(truths), np.array(scores))
    return SlMetrics(**metrics, train_keys=train_keys, intruder_keys=intruder_keys)


def pitfall_report(dataset: dict[str, np.ndarray], split: float = 0.8,
                   n_users: int | None = None,
                   seeds: tuple[int, ...] = (0,)) -> list[dict]:
    """LDA under both evaluation procedures, one row each, averaged over seeds.

    `split` is the training fraction of both; `n_users` sizes the
    authentication-style user set.
    """
    rows = []
    for evaluation, row_users, run in (
            ("classification", None,
             lambda seed: eval_classification_style(dataset, split, seed)),
            ("authentication", n_users,
             lambda seed: eval_authentication_style(dataset, split, n_users, seed))):
        metrics = [run(seed).row() for seed in seeds]
        row = {"method": "LDA", "evaluation": evaluation, "split": split,
               "n_users": row_users, "n_seeds": len(seeds)}
        for field_name in ("accuracy", "far", "frr", "classifier_eer"):
            row[field_name] = float(np.mean([m[field_name] for m in metrics]))
        rows.append(row)
    return rows
