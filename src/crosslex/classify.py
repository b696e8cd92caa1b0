"""Zero-shot cross-lingual classification on mean shared-space embeddings.

A logistic-regression classifier is trained on one language's labeled
documents and evaluated on another language's, with both featurized in
the shared space so no target-language labels are ever consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import project_space
from .config import ClassifyConfig, check
from .errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    ProtocolError,
)
from .rules import HATE, LabeledDataset


@dataclass
class ClassifierModel:
    weights: np.ndarray
    bias: float
    losses: list = field(default_factory=list)  # per-epoch regularized loss

    def scores(self, features):
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.weights.shape[0]:
            raise DimensionError(
                f"feature dim {features.shape[1]} != model dim {self.weights.shape[0]}"
            )
        return 1.0 / (1.0 + np.exp(-(features @ self.weights + self.bias)))


@dataclass
class Metrics:
    precision: float
    recall: float
    f1: float
    accuracy: float
    tp: int
    fp: int
    fn: int
    tn: int


def featurize_dataset(ds, model, spaces):
    """Feature matrix and binary label vector (1 = hate) for a dataset."""
    shared = project_space(model, ds.language, spaces)
    vocab = spaces[ds.language].vocab
    feats = np.zeros((len(ds.docs), shared.shape[1]))
    labels = np.zeros(len(ds.docs))
    oov_docs = 0
    for i, (tokens, label) in enumerate(ds.docs):
        rows = [vocab[t] for t in tokens if t in vocab]
        if rows:
            feats[i] = shared[rows].mean(axis=0)
        else:
            oov_docs += 1
        labels[i] = 1.0 if label == HATE else 0.0
    return feats, labels, oov_docs


def train_logreg(features, labels, epochs=ClassifyConfig.epochs,
                 learning_rate=ClassifyConfig.learning_rate, l2=ClassifyConfig.l2):
    """Full-batch gradient descent on L2-regularized logistic loss.

    Weights start at zero, so training is deterministic.
    """
    check("classify", "epochs", epochs)
    check("classify", "learning_rate", learning_rate)
    check("classify", "l2", l2)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = features.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least 2 training examples")
    if len(np.unique(labels)) < 2:
        raise DegenerateDataError("training labels contain a single class")

    w = np.zeros(features.shape[1])
    b = 0.0
    losses = []
    for _ in range(epochs):
        p = ClassifierModel(w, b).scores(features)
        eps = 1e-12
        loss = -np.mean(
            labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps)
        ) + l2 * np.dot(w, w) / 2.0
        losses.append(float(loss))
        err = p - labels
        grad_w = features.T @ err / n + l2 * w
        grad_b = float(np.mean(err))
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return ClassifierModel(weights=w, bias=b, losses=losses)


def metrics_from_counts(tp, fp, fn, tn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total > 0 else 0.0
    return Metrics(precision, recall, f1, accuracy, tp, fp, fn, tn)


def evaluate(clf, features, labels, threshold=ClassifyConfig.threshold):
    """Confusion counts and rates with hate as the positive class."""
    check("classify", "threshold", threshold)
    preds = clf.scores(features) >= threshold
    labels = np.asarray(labels, dtype=bool)
    tp = int(np.sum(preds & labels))
    fp = int(np.sum(preds & ~labels))
    fn = int(np.sum(~preds & labels))
    tn = int(np.sum(~preds & ~labels))
    return metrics_from_counts(tp, fp, fn, tn)


_SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train, dev, test


def split_dataset(ds, seed=ClassifyConfig.split_seed):
    """Deterministic 70/10/20 train/dev/test split of a labeled dataset."""
    check("classify", "split_seed", seed)
    order = np.random.default_rng(seed).permutation(len(ds.docs))
    n = len(ds.docs)
    n_train = int(round(_SPLIT_FRACTIONS[0] * n))
    n_dev = int(round(_SPLIT_FRACTIONS[1] * n))
    parts = (
        order[:n_train],
        order[n_train:n_train + n_dev],
        order[n_train + n_dev:],
    )
    return tuple(
        LabeledDataset(language=ds.language, docs=[ds.docs[i] for i in idx])
        for idx in parts
    )


def zero_shot_eval(train_ds, test_ds, model, spaces, cfg=ClassifyConfig(),
                   allow_same_language=False):
    """Train on the source language, evaluate on the target language.

    Training consumes only train_ds, so no target-language document can
    influence the classifier. Same-language evaluation requires the
    explicit monolingual flag, and an empty test set is an error. The
    ``cfg`` values it uses are checked by ``train_logreg`` and ``evaluate``;
    ``cfg.split_seed`` is ``split_dataset``'s.
    """
    if train_ds.language == test_ds.language and not allow_same_language:
        raise ProtocolError(
            "train and test language coincide; pass the monolingual flag "
            "for a monolingual evaluation"
        )
    if not test_ds.docs:
        raise InsufficientDataError("no test documents to evaluate")
    train_x, train_y, _ = featurize_dataset(train_ds, model, spaces)
    clf = train_logreg(
        train_x,
        train_y,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        l2=cfg.l2,
    )
    test_x, test_y, _ = featurize_dataset(test_ds, model, spaces)
    return evaluate(clf, test_x, test_y, threshold=cfg.threshold)
