"""Surface-symmetry features of a candidate (head, modifier) word pair.

Coordinated head words tend to look alike: shared capitalization, a common
suffix, the same lemma, nearby embeddings, or matching sentiment polarity.
Each feature is a cheap pure function of the two word forms plus a lexical
resource; together they form the six-value vector fed to the coordination
scorer and to the corpus statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from .resources import EmbeddingTable, FeatureResources, LemmaLexicon, SentimentLexicon

# Common-suffix lengths are capped here and scaled into [0, 1] before they
# reach the scorer; raw lengths stay available for corpus statistics.
SUFFIX_CAP = 7

# Minimum common-suffix length for the suffix property to "fire" in
# prevalence reports and corpus statistics.
SUFFIX_FIRE_THRESHOLD = 3

FEATURE_SIZE = 6


@dataclass(frozen=True)
class ConjFeatureVector:
    """The six feature values for one head/modifier pair."""

    cap: bool
    suffix_len: int
    lemma_match: bool
    similarity: float
    head_sentiment: int
    modifier_sentiment: int

    def to_inputs(self) -> np.ndarray:
        """Numeric encoding consumed by the coordination scorer."""
        return np.array(
            [
                1.0 if self.cap else 0.0,
                min(self.suffix_len, SUFFIX_CAP) / SUFFIX_CAP,
                1.0 if self.lemma_match else 0.0,
                self.similarity,
                float(self.head_sentiment),
                float(self.modifier_sentiment),
            ],
            dtype=np.float64,
        )

    def fired(self) -> FrozenSet[str]:
        """Which boolean-style properties hold for this pair.

        ``suf`` fires at a common suffix of at least SUFFIX_FIRE_THRESHOLD
        characters, ``sent`` when both words carry non-neutral sentiment.
        The embedding similarity has no natural firing point and is
        deliberately absent.
        """
        fired = set()
        if self.cap:
            fired.add("cap")
        if self.suffix_len >= SUFFIX_FIRE_THRESHOLD:
            fired.add("suf")
        if self.lemma_match:
            fired.add("lem")
        if self.head_sentiment != 0 and self.modifier_sentiment != 0:
            fired.add("sent")
        return frozenset(fired)


def cap_feature(head: str, modifier: str) -> bool:
    """Whether both word forms start with an uppercase character."""
    if not head or not modifier:
        raise ValueError("cap_feature requires non-empty words")
    return head[0].isupper() and modifier[0].isupper()


def suffix_feature(head: str, modifier: str) -> int:
    """Length of the longest common suffix, case-sensitive."""
    if not head or not modifier:
        raise ValueError("suffix_feature requires non-empty words")
    n = 0
    for a, b in zip(reversed(head), reversed(modifier)):
        if a != b:
            break
        n += 1
    return n


def lemma_feature(head: str, head_pos: str, modifier: str, modifier_pos: str,
                  lexicon: LemmaLexicon) -> bool:
    """Whether the two words map to the same lemma."""
    return lexicon.lemma_of(head, head_pos) == lexicon.lemma_of(modifier, modifier_pos)


def sym_feature(head: str, modifier: str,
                embeddings: Optional[EmbeddingTable]) -> float:
    """Cosine similarity of the word embeddings; 0 when either is unknown."""
    if embeddings is None:
        return 0.0
    a = embeddings.lookup(head)
    b = embeddings.lookup(modifier)
    if a is None or b is None:
        return 0.0
    norm = embeddings.norm_of(head) * embeddings.norm_of(modifier)
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / norm)


def sentiment_feature(word: str, lexicon: SentimentLexicon) -> int:
    lowered = word.lower()
    if lowered in lexicon.positive:
        return 1
    if lowered in lexicon.negative:
        return -1
    return 0


def extract_forms(head_form: str, head_pos: str, modifier_form: str,
                  modifier_pos: str, resources: FeatureResources) -> ConjFeatureVector:
    """Feature vector for a candidate head/modifier word pair."""
    return ConjFeatureVector(
        cap=cap_feature(head_form, modifier_form),
        suffix_len=suffix_feature(head_form, modifier_form),
        lemma_match=lemma_feature(
            head_form, head_pos, modifier_form, modifier_pos, resources.lemmas
        ),
        similarity=sym_feature(head_form, modifier_form, resources.embeddings),
        head_sentiment=sentiment_feature(head_form, resources.sentiment),
        modifier_sentiment=sentiment_feature(modifier_form, resources.sentiment),
    )
