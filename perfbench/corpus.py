"""Seeded synthetic treebanks that carry ``conj`` arcs.

Trees come from a random walk over legal arc-hybrid transitions with the
single-root rule, written here independently of ``conjparse.transitions``
so that the benchmark's own inputs do not run (or get traced in) the code
under test.  Such a walk can only produce projective trees with exactly
one token under the root.

Arc labels follow the label frequencies of the shipped sample treebank,
so ``conj`` arcs occur (about one arc in nine).  Word forms are drawn from
the sample vocabulary plus every word of the embedding, lemma and
sentiment files, so the SYM, LEM and SENT features fire.

Sentence lengths are a fixed, evenly spread set for a given corpus size,
in an order the caller fixes; the seed decides the words and the trees.
Throughput then depends on the seed only through the content, not
through a lucky draw of short sentences.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from conjparse.resources import FeatureResources
from conjparse.treebank import Sentence, Token

ROOT_LABEL = "root"

# POS tags for words that occur only in a resource file, by lemma class.
_CLASS_POS = {"noun": "NN", "verb": "VB", "adj": "JJ", "adv": "RB"}


class Lexicon:
    """The words, POS tags and arc labels the generator draws from."""

    def __init__(self, sample: Sequence[Sentence], resources: FeatureResources):
        pos_counts: Dict[str, Counter] = {}
        labels: Counter = Counter()
        for sentence in sample:
            for tok in sentence:
                pos_counts.setdefault(tok.form, Counter())[tok.pos] += 1
                labels[tok.gold_label] += 1
        words = {form: counts.most_common(1)[0][0]
                 for form, counts in pos_counts.items()}
        for form, class_name, _ in resources.lemmas.items():
            words.setdefault(form, _CLASS_POS.get(class_name, "NN"))
        for form in resources.sentiment.positive | resources.sentiment.negative:
            words.setdefault(form, "JJ")
        if resources.embeddings is not None:
            for form in resources.embeddings.words():
                words.setdefault(form, "NN")
        self.words: List[Tuple[str, str]] = sorted(words.items())
        del labels[ROOT_LABEL]
        self.labels = sorted(labels)
        self.label_weights = [labels[label] for label in self.labels]


def random_tree(rng: random.Random, n: int) -> List[int]:
    """Gold heads (1-based tokens, 0 = root) from a random legal walk."""
    stack = [0]
    buffer = 1
    heads = [0] * (n + 1)
    while buffer <= n or len(stack) > 1:
        moves = []
        if buffer <= n:
            moves.append("shift")
            if stack[-1] != 0:
                moves.append("left")
        # Single-root rule: the root takes its dependent last.
        if len(stack) >= 2 and (stack[-2] != 0 or buffer > n):
            moves.append("right")
        move = rng.choice(moves)
        if move == "shift":
            stack.append(buffer)
            buffer += 1
        elif move == "left":
            heads[stack.pop()] = buffer
        else:
            top = stack.pop()
            heads[top] = stack[-1]
    return heads[1:]


def make_sentence(rng: random.Random, lexicon: Lexicon, n: int) -> Sentence:
    heads = random_tree(rng, n)
    labels = rng.choices(lexicon.labels, weights=lexicon.label_weights, k=n)
    tokens = []
    for i, head in enumerate(heads):
        form, pos = rng.choice(lexicon.words)
        label = ROOT_LABEL if head == 0 else labels[i]
        tokens.append(Token(id=i + 1, form=form, pos=pos, gold_head=head,
                            gold_label=label))
    return Sentence(tuple(tokens))


def spread_lengths(count: int, low: int, high: int, log: bool = False) -> List[int]:
    """``count`` lengths evenly spread over [low, high], linearly or by log."""
    if count == 1:
        return [round((low + high) / 2)]
    if log:
        ratio = math.log(high / low)
        return [round(low * math.exp(ratio * i / (count - 1))) for i in range(count)]
    return [round(low + (high - low) * i / (count - 1)) for i in range(count)]


def corpus(rng: random.Random, lexicon: Lexicon, lengths: Sequence[int]) -> List[Sentence]:
    """One sentence of each length, in order."""
    return [make_sentence(rng, lexicon, n) for n in lengths]


def conj_arc_frac(sentences: Sequence[Sentence]) -> float:
    arcs = [tok.gold_label for sentence in sentences for tok in sentence]
    return arcs.count("conj") / len(arcs)


def check_tree(heads: Sequence[int]) -> str:
    """Empty if ``heads`` is a projective tree with one root child, else why not.

    An independent check of the benchmark's inputs and of the parser's
    outputs; it does not use ``conjparse.treebank``.
    """
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return "not exactly one root child"
    for dep, head in enumerate(heads, start=1):
        if not 0 <= head <= n or head == dep:
            return f"token {dep} has head {head}"
    for dep in range(1, n + 1):
        seen = set()
        node = dep
        while node != 0:
            if node in seen:
                return f"cycle through token {node}"
            seen.add(node)
            node = heads[node - 1]
    for dep, head in enumerate(heads, start=1):
        lo, hi = sorted((head, dep))
        for inner in range(lo + 1, hi):
            if not lo <= heads[inner - 1] <= hi:
                return f"arc {head}->{dep} is crossed"
    return ""
