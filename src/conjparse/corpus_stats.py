"""Treebank statistics over head/modifier word pairs, per relation label.

Answers two questions about a corpus: which word pairs are most often
joined by a given label, and how often each surface-symmetry property
(shared capitalization, common suffix of 3+, same lemma, doubly non-neutral
sentiment) holds per label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .conj_features import extract_forms
from .resources import FeatureResources
from .treebank import Sentence


@dataclass
class LabelStats:
    label: str
    total_edges: int = 0
    cap_both: int = 0
    cap_one: int = 0
    suf_ge_3: int = 0
    lem_same: int = 0
    sent_both_nonneutral: int = 0

    def percent(self, counter_name: str) -> float:
        if self.total_edges == 0:
            return 0.0
        return 100.0 * getattr(self, counter_name) / self.total_edges


def top_pairs(sentences: Sequence[Sentence], label: str, k: int
              ) -> List[Tuple[Tuple[str, str], int]]:
    """Most frequent lowercased (head form, modifier form) pairs for a label."""
    counts: Counter = Counter()
    for sent in sentences:
        for tok in sent:
            if tok.gold_label != label:
                continue
            pair = (sent.form_of(tok.gold_head).lower(), tok.form.lower())
            counts[pair] += 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:max(k, 0)]


def label_stats(sentences: Sequence[Sentence],
                resources: FeatureResources) -> List[LabelStats]:
    """Per-label symmetry-property counts over every gold edge.

    A property holds when its feature fires (``ConjFeatureVector.fired``),
    as in ``evaluation.conj_diff``; ``cap_one`` has no feature of its own.
    """
    stats: Dict[str, LabelStats] = {}
    for sent in sentences:
        for tok in sent:
            entry = stats.setdefault(tok.gold_label, LabelStats(tok.gold_label))
            head_form = sent.form_of(tok.gold_head)
            fired = extract_forms(head_form, sent.pos_of(tok.gold_head),
                                  tok.form, tok.pos, resources).fired()
            entry.total_edges += 1
            entry.cap_both += "cap" in fired
            entry.cap_one += head_form[0].isupper() != tok.form[0].isupper()
            entry.suf_ge_3 += "suf" in fired
            entry.lem_same += "lem" in fired
            entry.sent_both_nonneutral += "sent" in fired
    return [stats[label] for label in sorted(stats)]


_STAT_COLUMNS = (
    "total_edges", "cap_both", "cap_one", "suf_ge_3", "lem_same",
    "sent_both_nonneutral",
)


def stats_tsv(stats: Sequence[LabelStats]) -> str:
    lines = ["label\t" + "\t".join(_STAT_COLUMNS)]
    for entry in stats:
        values = "\t".join(str(getattr(entry, c)) for c in _STAT_COLUMNS)
        lines.append(f"{entry.label}\t{values}")
    return "\n".join(lines) + "\n"


def stats_markdown(stats: Sequence[LabelStats]) -> str:
    header = "| label | edges | cap both % | cap one % | suffix>=3 % | same lemma % | both sentiment % |"
    rule = "|---|---|---|---|---|---|---|"
    lines = [header, rule]
    for entry in stats:
        lines.append(
            f"| {entry.label} | {entry.total_edges} "
            f"| {entry.percent('cap_both'):.1f} | {entry.percent('cap_one'):.1f} "
            f"| {entry.percent('suf_ge_3'):.1f} | {entry.percent('lem_same'):.1f} "
            f"| {entry.percent('sent_both_nonneutral'):.1f} |"
        )
    return "\n".join(lines) + "\n"


def pairs_tsv(pairs: Sequence[Tuple[Tuple[str, str], int]]) -> str:
    lines = ["head\tmodifier\tcount"]
    for (head, modifier), count in pairs:
        lines.append(f"{head}\t{modifier}\t{count}")
    return "\n".join(lines) + "\n"


def pairs_markdown(pairs: Sequence[Tuple[Tuple[str, str], int]]) -> str:
    lines = ["| rank | head | modifier | count |", "|---|---|---|---|"]
    for rank, ((head, modifier), count) in enumerate(pairs, start=1):
        lines.append(f"| {rank} | {head} | {modifier} | {count} |")
    return "\n".join(lines) + "\n"
