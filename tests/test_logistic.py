"""Unit tests for the numpy logistic regression."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.predictor.logistic import LogisticRegression


def _separable(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    logits = 3.0 * X[:, 0] - 2.0 * X[:, 1]
    y = (logits + rng.normal(scale=0.3, size=n) > 0).astype(int)
    return X, y


class TestFit:
    def test_learns_separable_data(self):
        X, y = _separable()
        model = LogisticRegression().fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        assert accuracy > 0.95

    def test_weight_signs_match_generating_process(self):
        X, y = _separable()
        model = LogisticRegression().fit(X, y)
        weights = model.standardized_weights()
        assert weights[0] > 0
        assert weights[1] < 0
        assert abs(weights[2]) < abs(weights[0])

    def test_probabilities_in_unit_interval(self):
        X, y = _separable()
        model = LogisticRegression().fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(50), np.linspace(-1, 1, 50)])
        y = (X[:, 1] > 0).astype(int)
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_imbalanced_intercept_initialization(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        y = np.zeros(300, dtype=int)
        y[:15] = 1  # 5% positives, no signal
        model = LogisticRegression().fit(X, y)
        assert model.predict_proba(X).mean() == pytest.approx(0.05, abs=0.05)

    def test_regularization_shrinks_weights(self, monkeypatch):
        X, y = _separable()
        monkeypatch.setattr(LogisticRegression, "L2", 1e-6)
        loose = LogisticRegression().fit(X, y)
        monkeypatch.setattr(LogisticRegression, "L2", 10.0)
        tight = LogisticRegression().fit(X, y)
        assert np.abs(tight.standardized_weights()).sum() < np.abs(
            loose.standardized_weights()
        ).sum()

    def test_predict_one(self):
        X, y = _separable()
        model = LogisticRegression().fit(X, y)
        p = model.predict_one([3.0, -3.0, 0.0])
        assert p > 0.9


class TestValidation:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict_proba(np.zeros((1, 2)))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((2, 1)), np.array([0, 2]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), np.array([0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((0, 1)), np.array([]))

    def test_1d_X_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros(5), np.zeros(5))
