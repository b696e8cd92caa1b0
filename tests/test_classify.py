import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crosslex import (
    ClassifierModel,
    ClassifyConfig,
    evaluate,
    featurize_dataset,
    project,
    project_space,
    split_dataset,
    train_logreg,
    zero_shot_eval,
)
from crosslex.classify import _BLOCK_DOCS, metrics_from_counts
from crosslex.errors import (
    ConfigurationError,
    DegenerateDataError,
    DimensionError,
)
from crosslex.rules import HATE, NON_HATE, LabeledDataset

CFG = ClassifyConfig(epochs=500, learning_rate=2.0, l2=1e-5)


def test_featurize_single_token(trilingual):
    tri = trilingual
    word = tri.words[0]
    ds = LabeledDataset("es", [([word], HATE)])
    feats, labels, oov_docs = featurize_dataset(ds, tri.model, tri.spaces)
    assert oov_docs == 0
    np.testing.assert_allclose(feats[0], project(tri.model, word, "es", tri.spaces),
                               rtol=0, atol=1e-12)
    assert labels.tolist() == [1.0]


def test_featurize_all_oov(trilingual):
    tri = trilingual
    ds = LabeledDataset("en", [(["nope", "nah"], NON_HATE),
                               ([tri.words[1]], HATE)])
    feats, labels, oov_docs = featurize_dataset(ds, tri.model, tri.spaces)
    assert oov_docs == 1
    assert np.all(feats[0] == 0)
    assert np.any(feats[1] != 0)
    assert labels.tolist() == [0.0, 1.0]


def test_featurize_mean_of_tokens(trilingual):
    tri = trilingual
    docs = [
        (tri.words[3:40:3] + ["nope"] + tri.words[5:8], HATE),
        (tri.words[:3], NON_HATE),
        (tri.words[10:12] + tri.words[10:11], HATE),
    ]
    for lang in ("en", "es", "it"):
        vocab = tri.spaces[lang].vocab
        whole = project_space(tri.model, lang, tri.spaces)
        feats, labels, oov_docs = featurize_dataset(
            LabeledDataset(lang, docs), tri.model, tri.spaces)
        assert oov_docs == 0
        assert labels.tolist() == [1.0, 0.0, 1.0]
        for row, (tokens, _) in zip(feats, docs):
            expected = whole[[vocab[t] for t in tokens if t in vocab]].mean(axis=0)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)


def featurize_loop(ds, model, spaces):
    """featurize_dataset one document at a time: the oracle of the
    vectorized featurizer."""
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


def assert_featurized_as_loop(ds, tri):
    feats, labels, oov_docs = featurize_dataset(ds, tri.model, tri.spaces)
    want_feats, want_labels, want_oov = featurize_loop(ds, tri.model, tri.spaces)
    assert feats.shape == want_feats.shape
    np.testing.assert_allclose(feats, want_feats, rtol=0, atol=1e-12)
    assert labels.dtype == want_labels.dtype
    assert labels.tolist() == want_labels.tolist()
    assert oov_docs == want_oov


# Six in-vocabulary words and two OOV ones, so repeats and all-OOV
# documents are common.
_TOKENS = st.sampled_from([f"w{i:03d}" for i in range(6)] + ["nope", "W000"])


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(st.tuples(st.lists(_TOKENS, max_size=7),
                               st.sampled_from([HATE, NON_HATE])), max_size=20),
       lang=st.sampled_from(["en", "es", "it"]))
@example(docs=[], lang="en")
def test_featurize_matches_per_document_loop(trilingual, docs, lang):
    """Features within 1e-12 of the per-document mean, labels and the
    all-OOV count equal, with empty, all-OOV and repeated-token documents
    and no documents at all (features of shape ``(0, d)``)."""
    assert_featurized_as_loop(LabeledDataset(lang, docs), trilingual)


def test_featurize_dataset_longer_than_a_block(trilingual):
    rng = np.random.default_rng(3)
    vocab = trilingual.words[:40] + ["nope"]
    docs = [([vocab[i] for i in rng.integers(len(vocab), size=rng.integers(4))],
             HATE if i % 3 else NON_HATE) for i in range(2 * _BLOCK_DOCS + 5)]
    ds = LabeledDataset("es", docs)
    assert_featurized_as_loop(ds, trilingual)
    assert featurize_dataset(ds, trilingual.model, trilingual.spaces)[2] > 0


def test_zero_weight_model_predicts_half():
    model = ClassifierModel(weights=np.zeros(4), bias=0.0)
    scores = model.scores(np.random.default_rng(0).normal(size=(5, 4)))
    assert np.allclose(scores, 0.5)


def test_separable_data_perfect_training_f1():
    feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([1.0, 0.0])
    model = train_logreg(feats, labels, epochs=500, learning_rate=0.1, l2=0.0)
    assert evaluate(model, feats, labels).f1 == 1.0


def test_loss_non_increasing():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(40, 3))
    labels = (feats @ np.array([1.0, -2.0, 0.5]) > 0).astype(float)
    model = train_logreg(feats, labels, epochs=100, learning_rate=0.01, l2=0.0)
    diffs = np.diff(model.losses)
    assert np.all(diffs <= 1e-12)


def test_single_class_error():
    for labels in (np.ones(4), np.zeros(4)):
        with pytest.raises(DegenerateDataError,
                           match="training labels contain a single class"):
            train_logreg(np.zeros((4, 2)), labels, epochs=1)


def test_l2_shrinks_weights():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(60, 4))
    labels = (feats[:, 0] > 0).astype(float)
    free = train_logreg(feats, labels, epochs=200, learning_rate=0.05, l2=0.0)
    tight = train_logreg(feats, labels, epochs=200, learning_rate=0.05, l2=10.0)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(free.weights)


def test_evaluate_counts_example():
    m = metrics_from_counts(tp=2, fp=1, fn=1, tn=6)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.tp + m.fp + m.fn + m.tn == 10


def test_f1_degenerate_conventions():
    assert metrics_from_counts(0, 0, 5, 5).f1 == 0.0
    assert metrics_from_counts(0, 3, 0, 7).f1 == 0.0
    perfect = metrics_from_counts(5, 0, 0, 5)
    assert perfect.f1 == 1.0


def test_f1_bounds_and_scaling_invariance():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(30, 3))
    labels = (feats[:, 1] > 0).astype(float)
    model = train_logreg(feats, labels, epochs=100, learning_rate=0.5)
    m = evaluate(model, feats, labels)
    assert 0.0 <= m.f1 <= max(m.precision, m.recall) + 1e-12
    scaled = ClassifierModel(weights=model.weights * 7.0, bias=model.bias * 7.0)
    assert np.array_equal(
        model.scores(feats) >= 0.5, scaled.scores(feats) >= 0.5
    )


def test_evaluate_dimension_mismatch():
    model = ClassifierModel(weights=np.zeros(3), bias=0.0)
    with pytest.raises(DimensionError):
        evaluate(model, np.zeros((2, 4)), np.zeros(2))


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, float("nan")])
def test_evaluate_threshold_outside_unit_interval(threshold):
    model = ClassifierModel(weights=np.zeros(3), bias=0.0)
    with pytest.raises(ConfigurationError, match=r"threshold must be in \(0, 1\)"):
        evaluate(model, np.zeros((2, 3)), np.zeros(2), threshold=threshold)


def test_zero_shot_same_language_rejected(trilingual_labeled):
    tri = trilingual_labeled
    with pytest.raises(ConfigurationError) as exc:
        zero_shot_eval(
            tri.datasets["en"], tri.datasets["en"], tri.model, tri.spaces, CFG
        )
    assert str(exc.value) == ("train and test language coincide; pass "
                              "allow_same_language=True for a monolingual "
                              "evaluation")


def test_zero_shot_determinism(trilingual_labeled):
    tri = trilingual_labeled
    a = zero_shot_eval(tri.datasets["en"], tri.datasets["es"], tri.model,
                       tri.spaces, CFG)
    b = zero_shot_eval(tri.datasets["en"], tri.datasets["es"], tri.model,
                       tri.spaces, CFG)
    assert a == b


def test_zero_shot_transfer_quality(trilingual_labeled):
    tri = trilingual_labeled
    m = zero_shot_eval(tri.datasets["es"], tri.datasets["it"], tri.model,
                       tri.spaces, CFG)
    assert m.f1 >= 0.80


def test_split_dataset_fractions():
    docs = [([f"t{i}"], HATE if i % 2 else NON_HATE) for i in range(100)]
    ds = LabeledDataset(language="en", docs=docs)
    train, dev, test = split_dataset(ds, seed=0)
    assert len(train.docs) == 70
    assert len(dev.docs) == 10
    assert len(test.docs) == 20
    combined = sorted(d for part in (train, dev, test) for d in part.docs)
    assert combined == sorted(docs)
