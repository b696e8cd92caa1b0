"""crosslex: domain-specific multilingual word embeddings.

Aligns independently trained monolingual embedding spaces with CCA
against a bilingual lexicon, and evaluates the shared space through
cross-lingual retrieval, association-rule context similarity, and
zero-shot transfer classification.
"""

__version__ = "0.1.0"

from .alignment import (
    AlignmentModel,
    CcaResult,
    fit_cca,
    fit_hub_alignment,
    load_alignment,
    project,
    project_space,
    save_alignment,
)
from .classify import (
    ClassifierModel,
    ClassifyConfig,
    Metrics,
    evaluate,
    featurize_dataset,
    split_dataset,
    train_logreg,
    zero_shot_eval,
)
from .contextsim import context_sim, cross_lingual_report, met_sim, word_sim
from .corpus import build_vocab, filter_corpus, tokenize
from .embedding_store import (
    EmbeddingSpace,
    cosine,
    load_embeddings,
    save_embeddings,
)
from .lexicon import BilingualLexicon, load_lexicon, restrict_to_vocab, split_lexicon
from .retrieval import bli_precision_at_k, knn, knn_batch
from .rules import (
    AssociationRule,
    LabeledDataset,
    WordContext,
    build_context,
    load_labeled_dataset,
    mine_rules,
)
from .sgns import SgnsConfig, train_sgns
