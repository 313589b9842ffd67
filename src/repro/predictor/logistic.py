"""Logistic regression on numpy.

The paper trains its models with scikit-learn; that package is a
substitution boundary here, so the same model family is implemented
directly: L2-regularized logistic regression fitted by full-batch
gradient descent with backtracking on the learning rate, plus input
standardization so regularization treats features symmetrically.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import NotFittedError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() finite for extreme logits.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


class LogisticRegression:
    """L2-regularized binary logistic regression."""

    #: Regularization strength (applied to weights, not the intercept).
    L2 = 1e-3
    #: Initial gradient-descent step size; halved when a step fails to
    #: reduce the loss.
    LEARNING_RATE = 1.0
    #: Gradient steps before giving up.
    MAX_ITER = 500
    #: Convergence threshold on the loss decrease.
    TOL = 1e-7

    def __init__(self) -> None:
        self.weights_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self.n_iter_: int = 0

    # -- fitting ----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on a (n_samples, n_features) matrix and 0/1 labels."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("labels must be 0/1")

        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self._std = std
        Xs = (X - self._mean) / self._std

        n, d = Xs.shape
        w = np.zeros(d)
        b = float(np.log((y.mean() + 1e-9) / (1.0 - y.mean() + 1e-9)))
        rate = self.LEARNING_RATE
        loss = self._loss(Xs, y, w, b)
        for iteration in range(self.MAX_ITER):
            p = _sigmoid(Xs @ w + b)
            error = p - y
            grad_w = Xs.T @ error / n + self.L2 * w
            grad_b = float(error.mean())
            # Backtracking: shrink the step until the loss improves.
            while rate > 1e-8:
                w_new = w - rate * grad_w
                b_new = b - rate * grad_b
                loss_new = self._loss(Xs, y, w_new, b_new)
                if loss_new <= loss:
                    break
                rate *= 0.5
            else:
                break
            improvement = loss - loss_new
            w, b, loss = w_new, b_new, loss_new
            self.n_iter_ = iteration + 1
            if improvement < self.TOL:
                break
        self.weights_ = w
        self.intercept_ = b
        return self

    def _loss(self, Xs: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
        p = _sigmoid(Xs @ w + b)
        eps = 1e-12
        nll = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
        return float(nll + 0.5 * self.L2 * float(w @ w))

    # -- prediction ---------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.weights_ is None or self._mean is None or self._std is None:
            raise NotFittedError("model used before fit()")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw logits for a sample matrix."""
        self._require_fitted()
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        Xs = (X - self._mean) / self._std
        z = Xs @ self.weights_ + self.intercept_
        return z[0] if single else z

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(label == 1) for each sample."""
        return _sigmoid(np.asarray(self.decision_function(X)))

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at ``threshold``."""
        return (self.predict_proba(X) >= threshold).astype(int)

    def predict_one(self, x: Sequence[float]) -> float:
        """P(label == 1) for a single feature vector."""
        return float(self.predict_proba(np.asarray(x, dtype=float)))

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """P(label == 1) for a batch of feature vectors, vectorized.

        One standardize + matvec + sigmoid pass over the whole
        (n_samples, n_features) matrix — callers with many cold samples
        (the speculation engine's per-epoch ``p_success`` refresh) use
        this instead of ``n`` ``predict_one`` round trips.
        """
        X = np.asarray(X, dtype=float)
        if X.size == 0:
            return np.zeros(0, dtype=float)
        if X.ndim != 2:
            raise ValueError("predict_many expects a 2-dimensional matrix")
        return self.predict_proba(X)

    # -- introspection ----------------------------------------------------

    def standardized_weights(self) -> np.ndarray:
        """Weights in standardized-feature space (comparable magnitudes)."""
        self._require_fitted()
        assert self.weights_ is not None
        return self.weights_.copy()
