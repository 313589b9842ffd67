"""Training pipeline for the prediction models (section 7.2).

The paper trains on historical changes with a 70/30 train/validation
split, reports ~97 % accuracy, and prunes features with recursive feature
elimination.  This module reproduces that pipeline on synthetic history:
dataset assembly from decided changes, splitting, metrics (accuracy,
precision/recall, AUC), RFE, and a :func:`train_models` entry point that
returns a ready :class:`~repro.predictor.predictors.LearnedPredictor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.changes.change import Change
from repro.changes.truth import potential_conflict, real_conflict
from repro.predictor.features import (
    CONFLICT_FEATURES,
    SUCCESS_FEATURES,
    FeatureExtractor,
)
from repro.predictor.logistic import LogisticRegression
from repro.predictor.predictors import LearnedPredictor


@dataclass
class ClassifierMetrics:
    """Validation metrics for one binary classifier."""

    accuracy: float
    precision: float
    recall: float
    auc: float
    n_samples: int
    positive_rate: float


@dataclass
class TrainingReport:
    """Everything :func:`train_models` learned, for inspection and benches."""

    success_metrics: ClassifierMetrics
    conflict_metrics: ClassifierMetrics
    success_weights: Dict[str, float] = field(default_factory=dict)
    conflict_weights: Dict[str, float] = field(default_factory=dict)
    success_features_kept: Tuple[str, ...] = SUCCESS_FEATURES
    conflict_features_kept: Tuple[str, ...] = CONFLICT_FEATURES

    def top_success_features(self, k: int = 3) -> List[str]:
        """Feature names with the largest positive standardized weights."""
        ranked = sorted(self.success_weights.items(), key=lambda kv: -kv[1])
        return [name for name, _ in ranked[:k]]

    def bottom_success_features(self, k: int = 2) -> List[str]:
        """Feature names with the most negative standardized weights."""
        ranked = sorted(self.success_weights.items(), key=lambda kv: kv[1])
        return [name for name, _ in ranked[:k]]


def train_test_split(
    X: np.ndarray, y: np.ndarray, train_fraction: float = 0.7, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled split into (X_train, y_train, X_valid, y_valid)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(X))
    cut = int(round(len(X) * train_fraction))
    train, valid = order[:cut], order[cut:]
    return X[train], y[train], X[valid], y[valid]


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC via the rank-sum (Mann–Whitney) formulation, with tie handling."""
    positives = scores[labels == 1]
    negatives = scores[labels == 0]
    if len(positives) == 0 or len(negatives) == 0:
        return 0.5
    order = np.argsort(np.concatenate([scores]))
    ranks = np.empty(len(scores), dtype=float)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    n_pos, n_neg = len(positives), len(negatives)
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate_classifier(
    model: LogisticRegression, X: np.ndarray, y: np.ndarray
) -> ClassifierMetrics:
    """Accuracy / precision / recall / AUC on a validation set."""
    probabilities = model.predict_proba(X)
    predictions = (probabilities >= 0.5).astype(int)
    y = np.asarray(y).astype(int)
    tp = int(((predictions == 1) & (y == 1)).sum())
    fp = int(((predictions == 1) & (y == 0)).sum())
    fn = int(((predictions == 0) & (y == 1)).sum())
    correct = int((predictions == y).sum())
    return ClassifierMetrics(
        accuracy=correct / len(y) if len(y) else 0.0,
        precision=tp / (tp + fp) if (tp + fp) else 0.0,
        recall=tp / (tp + fn) if (tp + fn) else 0.0,
        auc=_rank_auc(probabilities, y),
        n_samples=len(y),
        positive_rate=float(y.mean()) if len(y) else 0.0,
    )


def recursive_feature_elimination(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    keep: int,
) -> List[int]:
    """RFE: repeatedly drop the feature with the smallest |weight|.

    Returns the indices of the surviving features, in original order.
    Mirrors the paper's use of RFE [25] to "reduce the set of features to
    just the bare minimum".
    """
    if keep <= 0 or keep > len(feature_names):
        raise ValueError("keep must be in [1, n_features]")
    surviving = list(range(len(feature_names)))
    while len(surviving) > keep:
        model = LogisticRegression().fit(X[:, surviving], y)
        weights = np.abs(model.standardized_weights())
        drop_position = int(np.argmin(weights))
        surviving.pop(drop_position)
    return surviving


def assemble_success_dataset(
    changes: Sequence[Change],
    extractor: Optional[FeatureExtractor] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(X, y) for the success model from labeled historical changes.

    History is replayed in order so the running developer statistics only
    see the past (no label leakage).
    """
    extractor = extractor if extractor is not None else FeatureExtractor()
    rows: List[np.ndarray] = []
    labels: List[int] = []
    for change in changes:
        if change.ground_truth is None:
            raise ValueError(f"{change.change_id} has no ground truth")
        rows.append(extractor.success_vector(change))
        labels.append(1 if change.ground_truth.individually_ok else 0)
        extractor.observe_outcome(change, change.ground_truth.individually_ok)
    return np.vstack(rows), np.asarray(labels)


def assemble_conflict_dataset(
    changes: Sequence[Change],
    extractor: Optional[FeatureExtractor] = None,
    window: int = 40,
) -> Tuple[np.ndarray, np.ndarray]:
    """(X, y) for the conflict model from near-in-time change pairs.

    Pairs each change with its ``window`` predecessors (approximating
    concurrency in the historical stream), keeping only *potentially
    conflicting* pairs — those are the pairs the speculation engine ever
    asks the model about; the label is the ground-truth real-conflict bit.
    """
    extractor = extractor if extractor is not None else FeatureExtractor()
    rows: List[np.ndarray] = []
    labels: List[int] = []
    for index, change in enumerate(changes):
        for other in changes[max(0, index - window) : index]:
            if not potential_conflict(change, other):
                continue
            rows.append(extractor.conflict_vector(change, other))
            conflicted = real_conflict(change, other)
            labels.append(1 if conflicted else 0)
            extractor.observe_conflict(change, other, conflicted)
    if not rows:
        raise ValueError("no potentially-conflicting pairs in the history")
    return np.vstack(rows), np.asarray(labels)


def train_models(
    history: Sequence[Change],
    train_fraction: float = 0.7,
    seed: int = 0,
) -> Tuple[LearnedPredictor, TrainingReport]:
    """Train success + conflict models on historical changes.

    Follows section 7.2: extract features, 70/30 split, fit logistic
    regression, validate.  Returns the predictor (with a *fresh* extractor
    whose developer history has been warmed by the full replay) and the
    report with metrics and standardized weights.
    """
    warm_extractor = FeatureExtractor()
    X_s, y_s = assemble_success_dataset(history, warm_extractor)
    X_c, y_c = assemble_conflict_dataset(history, warm_extractor)

    Xs_tr, ys_tr, Xs_va, ys_va = train_test_split(X_s, y_s, train_fraction, seed)
    Xc_tr, yc_tr, Xc_va, yc_va = train_test_split(X_c, y_c, train_fraction, seed)

    success_model = LogisticRegression().fit(Xs_tr, ys_tr)
    conflict_model = LogisticRegression().fit(Xc_tr, yc_tr)

    report = TrainingReport(
        success_metrics=evaluate_classifier(success_model, Xs_va, ys_va),
        conflict_metrics=evaluate_classifier(conflict_model, Xc_va, yc_va),
        success_weights=dict(
            zip(SUCCESS_FEATURES, success_model.standardized_weights())
        ),
        conflict_weights=dict(
            zip(CONFLICT_FEATURES, conflict_model.standardized_weights())
        ),
    )
    predictor = LearnedPredictor(success_model, conflict_model, warm_extractor)
    return predictor, report
