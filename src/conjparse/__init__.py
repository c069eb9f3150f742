"""conjparse: a greedy arc-hybrid dependency parser whose scoring of
coordination arcs is augmented by surface-symmetry features of the
candidate conjunct head words, plus evaluation and corpus-analysis tools
for measuring the effect on "conj" attachment."""

from .conj_features import (
    ConjFeatureVector,
    cap_feature,
    lemma_feature,
    sentiment_feature,
    suffix_feature,
    sym_feature,
)
from .evaluation import (
    EvalReport,
    attachment_scores,
    conj_diff,
    evaluate,
    rel_att_metrics,
)
from .model import Hyperparams, Model, Vocabulary
from .parser import augmented_scores, greedy_parse, parse_corpus
from .resources import (
    EmbeddingTable,
    FeatureResources,
    LemmaLexicon,
    SentimentLexicon,
)
from .training import gradient_check, train_model, train_step
from .transitions import (
    Transition,
    TransitionCodec,
    apply,
    initial_config,
    is_terminal,
    oracle_sequence,
    static_oracle,
)
from .treebank import (
    LabelInventory,
    Sentence,
    Token,
    is_projective,
    read_conll,
    write_conll,
)

__version__ = "0.1.0"
