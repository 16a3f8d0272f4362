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


def _stratified_split(y: np.ndarray, split: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices, class 0 then class 1 of the 0/1 labels `y`."""
    train_parts, test_parts = [], []
    for cls in (0, 1):
        indices = np.flatnonzero(y == cls)
        shuffled = indices[rng.permutation(indices.size)]
        cut = min(max(int(round(split * shuffled.size)), 1), shuffled.size - 1)  # both non-empty
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


def _per_user_lda(pool: dict[str, np.ndarray], split: float, seeds: list, probes,
                  intruder_keys: set) -> SlMetrics:
    """One LDA per pool subject against the rest of the pool, each trained on a
    stratified split drawn from ``default_rng(seeds[i])``; scores pooled over all.
    ``probes(x, y, test_idx)`` lists the (samples, truths) blocks a model scores,
    given the pool's samples, the model's 0/1 labels and its held-out rows."""
    subjects = sorted(pool)
    x = np.concatenate([pool[s] for s in subjects])
    keys = [(s, i) for s in subjects for i in range(pool[s].shape[0])]
    truths, scores, train_keys = [], [], {}
    for subject, rng_seed in zip(subjects, seeds):
        y = np.array([1 if k[0] == subject else 0 for k in keys])
        train_idx, test_idx = _stratified_split(y, split, np.random.default_rng(rng_seed))
        model = lda_train(x[train_idx], y[train_idx])
        train_keys[subject] = {keys[i] for i in train_idx}
        for block, truth in probes(x, y, test_idx):  # one decision_scores call per block
            scores.extend(model.decision_scores(block))
            truths.extend(truth)
    scores = np.array(scores)
    metrics = _pool_metrics((scores >= 0).astype(int), np.array(truths), scores)
    return SlMetrics(**metrics, train_keys=train_keys, intruder_keys=intruder_keys)


def eval_classification_style(dataset: dict[str, np.ndarray], split: float = 0.8,
                              seed: int = 0) -> SlMetrics:
    """Standard one-vs-rest classification evaluation (the leaky procedure).

    Every subject's model is trained on a split of the full relabeled
    database, so other subjects' data is present at training time.
    """
    if len(dataset) < 2:
        raise ConfigError("need at least 2 subjects")
    return _per_user_lda(dataset, split, [[seed, i] for i in range(len(dataset))],
                         lambda x, y, test_idx: [(x[test_idx], y[test_idx])], set())


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
    order = np.random.default_rng([seed, 0xD15C]).permutation(len(subjects))
    users = {subjects[i]: dataset[subjects[i]] for i in order[:n_users]}
    intruders = {subjects[i]: dataset[subjects[i]] for i in order[n_users:]}
    intruder_x = np.concatenate([intruders[s] for s in sorted(intruders)])

    def probes(x, y, test_idx):  # the held-out genuine samples, then every intruder sample
        genuine = test_idx[y[test_idx] == 1]
        return [(x[genuine], y[genuine]), (intruder_x, np.zeros(len(intruder_x), int))]
    return _per_user_lda(users, split, [[seed, 1 + i] for i in range(n_users)], probes,
                         {(s, i) for s in intruders for i in range(intruders[s].shape[0])})


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
