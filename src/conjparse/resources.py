"""Lexical resources backing the coordination features.

All three resources are plain UTF-8 text files supplied at runtime:

* sentiment: two word lists (one word per line, ``#`` comments allowed)
* lemmas: TSV of ``form<TAB>pos_class<TAB>lemma``
* embeddings: ``word v1 v2 ... vd`` lines, optional ``count dim`` header

Loaded resources are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np


class ResourceError(ValueError):
    pass


def _numbered_lines(path):
    """(line number, line) pairs of a UTF-8 text file, newlines kept."""
    # Undecodable bytes become lone surrogates, which name their line when
    # they fail to encode back.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ResourceError(f"{path}, line {number}: not valid UTF-8") from None
            yield number, line


def _iter_resource_lines(path):
    for number, raw in _numbered_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


@dataclass(frozen=True)
class SentimentLexicon:
    positive: FrozenSet[str]
    negative: FrozenSet[str]

    def __post_init__(self):
        overlap = self.positive & self.negative
        if overlap:
            sample = ", ".join(sorted(overlap)[:5])
            raise ResourceError(
                f"{len(overlap)} words in both sentiment lists (e.g. {sample})"
            )

    @classmethod
    def empty(cls) -> "SentimentLexicon":
        return cls(frozenset(), frozenset())

    @classmethod
    def load(cls, positive_path, negative_path) -> "SentimentLexicon":
        positive = frozenset(
            line.lower() for _, line in _iter_resource_lines(positive_path)
        )
        negative = frozenset(
            line.lower() for _, line in _iter_resource_lines(negative_path)
        )
        return cls(positive, negative)


# Coarse word classes used to key the lemma lexicon, derived from the first
# character of the treebank POS tag (PTB-style J/R for adjectives/adverbs,
# UD-style A mapped to adjective).
_POS_CLASS = {"N": "noun", "V": "verb", "J": "adj", "A": "adj", "R": "adv"}


# Every class ``pos_class`` returns, and so every class a lemma entry can have.
_POS_CLASSES = frozenset(_POS_CLASS.values()) | {"other"}


def pos_class(pos_tag: str) -> str:
    if not pos_tag:
        return "other"
    return _POS_CLASS.get(pos_tag[0].upper(), "other")


class LemmaLexicon:
    """(lowercased form, pos class) -> lemma, with identity fallback."""

    def __init__(self, entries: Optional[Dict[Tuple[str, str], str]] = None):
        self._entries = dict(entries or {})

    def items(self):
        """(form, pos class, lemma) triples in deterministic order."""
        return sorted(
            (form, cls_name, lemma)
            for (form, cls_name), lemma in self._entries.items()
        )

    def lemma_of(self, form: str, pos_tag: str) -> str:
        key = (form.lower(), pos_class(pos_tag))
        hit = self._entries.get(key)
        return hit if hit is not None else form.lower()

    @classmethod
    def empty(cls) -> "LemmaLexicon":
        return cls()

    @classmethod
    def load(cls, path) -> "LemmaLexicon":
        entries: Dict[Tuple[str, str], str] = {}
        for number, line in _iter_resource_lines(path):
            parts = line.split("\t")
            if len(parts) != 3:
                raise ResourceError(
                    f"{path}, line {number}: expected 3 tab-separated fields"
                )
            form, cls_name, lemma = parts
            if cls_name not in _POS_CLASSES:
                raise ResourceError(
                    f"{path}, line {number}: unknown pos class {cls_name!r}, "
                    f"expected one of {', '.join(sorted(_POS_CLASSES))}"
                )
            key = (form.lower(), cls_name)
            entries.setdefault(key, lemma)  # first entry wins
        return cls(entries)


class EmbeddingTable:
    """Word -> dense vector lookup, falling back to the lowercased word.

    Each vector's Euclidean norm is computed once: here, unless ``norms``
    already holds them by word.
    """

    def __init__(self, vectors: Dict[str, np.ndarray], dim: int,
                 norms: Optional[Dict[str, float]] = None):
        self.dim = dim
        self._vectors = vectors
        self._norms = norms if norms is not None else {
            word: float(np.linalg.norm(vec)) for word, vec in vectors.items()}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def words(self):
        return self._vectors.keys()

    def lookup(self, word: str) -> Optional[np.ndarray]:
        vec = self._vectors.get(word)
        if vec is None:
            vec = self._vectors.get(word.lower())
        return vec

    def norm_of(self, word: str) -> float:
        """The norm of ``lookup(word)``, which must be a vector."""
        norm = self._norms.get(word)
        return self._norms[word.lower()] if norm is None else norm

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Read a table; the first line with a fault raises ``ResourceError``
        naming it.  A fault is a line that is not UTF-8, a vector with the
        wrong number of values, a value that is not a finite number, or a
        norm that is not finite.  Whitespace that ends a line is ignored:
        word2vec writes a space after each vector."""
        values = array("d")  # every vector read, one after another
        numbers: List[int] = []  # the line number of each vector
        first: Dict[str, int] = {}  # each word's first vector, by index
        dim = 0
        try:
            for number, raw in _numbered_lines(path):
                line = raw.rstrip()
                if not line:
                    continue
                parts = line.split(" ")
                if number == 1 and len(parts) == 2:
                    try:
                        int(parts[0]), int(parts[1])
                        continue  # "count dim" header
                    except ValueError:
                        pass
                if not dim:
                    dim = len(parts) - 1
                    if not dim:
                        raise ResourceError(f"{path}, line {number}: no vector values")
                elif len(parts) - 1 != dim:
                    raise ResourceError(
                        f"{path}, line {number}: expected {dim} values, "
                        f"got {len(parts) - 1}"
                    )
                try:
                    values.extend(map(float, parts[1:]))
                except ValueError:
                    raise ResourceError(
                        f"{path}, line {number}: non-numeric vector value"
                    ) from None
                first.setdefault(parts[0], len(numbers))
                numbers.append(number)
        except ResourceError:
            # A fault met while reading is the first one unless a vector
            # read before it has a value or norm that is not finite.
            _checked_table(path, values, numbers, dim)
            raise
        if not numbers:
            raise ResourceError(f"{path}: no vectors found")
        table, norms = _checked_table(path, values, numbers, dim)
        if len(first) < len(numbers):  # first entry wins
            rows = list(first.values())
            table, norms = table[rows], norms[rows]
        return cls(dict(zip(first, table)), dim, dict(zip(first, norms.tolist())))


def _checked_table(path, values: array, numbers: List[int], dim: int):
    """The first ``len(numbers)`` vectors of ``values`` as one (vectors,
    dim) table, and their norms.

    A vector whose norm is not finite raises ``ResourceError`` naming its
    line: either a value is not finite, or finite values square past the
    float range (the embedding similarity feature divides by the norm).
    """
    table = np.frombuffer(values, count=len(numbers) * dim).reshape(len(numbers), dim)
    # The product np.linalg.norm takes of a vector.
    with np.errstate(over="ignore"):
        norms = np.array([math.sqrt(row.dot(row)) for row in table])
    finite = np.isfinite(norms)
    if not finite.all():
        row = int(np.argmin(finite))
        fault = ("non-finite vector value" if not np.isfinite(table[row]).all()
                 else "vector norm overflows")
        raise ResourceError(f"{path}, line {numbers[row]}: {fault}")
    return table, norms


@dataclass(frozen=True)
class FeatureResources:
    """Bundle of the resources consulted during feature extraction."""

    lemmas: LemmaLexicon = field(default_factory=LemmaLexicon.empty)
    sentiment: SentimentLexicon = field(default_factory=SentimentLexicon.empty)
    embeddings: Optional[EmbeddingTable] = None

    @classmethod
    def empty(cls) -> "FeatureResources":
        return cls()
