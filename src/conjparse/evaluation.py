"""Attachment scores, per-label Rel / Rel+Att metrics and system diffs.

Punctuation tokens are excluded from every metric: a token counts as
punctuation when its gold label is "punct" or its POS tag is one of
``DEFAULT_PUNCT_POS``, the classic punctuation tags.

``Rel`` asks only whether a token's relation label is right, ``Rel+Att``
additionally requires the predicted head to match, so for coordination it
separates "found a conjunct" from "attached the conjunct to the right
first-conjunct head".  Every metric is read from one walk over the aligned
corpora (``_count``), which checks their alignment once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .conj_features import extract_forms
from .resources import FeatureResources
from .treebank import Sentence, Token

DEFAULT_PUNCT_POS = frozenset({"``", "''", ":", ",", "."})


class MisalignedCorporaError(ValueError):
    pass


def is_punctuation(token: Token) -> bool:
    return token.gold_label == "punct" or token.pos in DEFAULT_PUNCT_POS


def has_scored_token(sentences: Sequence[Sentence]) -> bool:
    """Whether any token of ``sentences`` is one the metrics count."""
    return not all(map(is_punctuation, (tok for s in sentences for tok in s)))


def _predicted(token: Token) -> Tuple[int, str]:
    """Predicted (head, label); falls back to the annotation columns.

    Sentences read back from a parser output file carry their predictions
    in the regular head/label columns.
    """
    head = token.pred_head if token.pred_head is not None else token.gold_head
    label = token.pred_label if token.pred_label is not None else token.gold_label
    return head, label


def check_aligned(gold: Sequence[Sentence], pred: Sequence[Sentence],
                  names: Tuple[str, str] = ("gold", "predicted")) -> None:
    if len(gold) != len(pred):
        raise MisalignedCorporaError(
            f"{names[0]} has {len(gold)} sentences, {names[1]} has {len(pred)}"
        )
    for index, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise MisalignedCorporaError(
                f"sentence {index}: {len(g)} tokens vs {len(p)}"
            )
        for tg, tp in zip(g, p):
            if tg.form != tp.form:
                raise MisalignedCorporaError(
                    f"sentence {index}, token {tg.id}: form {tg.form!r} vs {tp.form!r}"
                )


def _count(gold: Sequence[Sentence], pred: Sequence[Sentence]
           ) -> Tuple[Tuple[int, int, int], Dict[str, List[int]]]:
    """Every count behind the metrics, from one walk of the corpora.

    Returns (counted tokens, correct heads, correct heads+labels) and, for
    each label seen in gold or in the prediction, [gold count, predicted
    count, Rel hits, Rel+Att hits].  The walk only tallies (gold label,
    predicted label, head correct) triples, of which there are few.
    """
    check_aligned(gold, pred)
    tally = Counter(
        (g_tok.gold_label, label, head == g_tok.gold_head)
        for g_sent, p_sent in zip(gold, pred)
        for g_tok, (head, label) in zip(g_sent, map(_predicted, p_sent))
        if not is_punctuation(g_tok)
    )
    counted = heads = both = 0
    per_label: Dict[str, List[int]] = {}
    for (gold_label, label, head_ok), n in tally.items():
        counted += n
        heads += head_ok * n
        per_label.setdefault(gold_label, [0, 0, 0, 0])[0] += n
        counts = per_label.setdefault(label, [0, 0, 0, 0])
        counts[1] += n
        if label == gold_label:
            counts[2] += n
            counts[3] += head_ok * n
            both += head_ok * n
    return (counted, heads, both), per_label


def _percent(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def attachment_counts(gold: Sequence[Sentence], pred: Sequence[Sentence]
                      ) -> Tuple[int, int, int]:
    """(counted tokens, correct heads, correct heads+labels)."""
    return _count(gold, pred)[0]


def attachment_scores(gold: Sequence[Sentence], pred: Sequence[Sentence]
                      ) -> Tuple[float, float]:
    """(UAS, LAS) percentages over non-punctuation tokens."""
    counted, heads, both = attachment_counts(gold, pred)
    return _percent(heads, counted), _percent(both, counted)


def rel_counts(gold: Sequence[Sentence], pred: Sequence[Sentence], label: str
               ) -> Tuple[int, int, int]:
    """(true positives, gold positives, predicted positives) by label only."""
    gold_n, pred_n, tp, _ = _count(gold, pred)[1].get(label, (0, 0, 0, 0))
    return tp, gold_n, pred_n


def rel_att_counts(gold: Sequence[Sentence], pred: Sequence[Sentence], label: str
                   ) -> Tuple[int, int, int]:
    """Like rel_counts but a true positive also needs the correct head."""
    gold_n, pred_n, _, tp = _count(gold, pred)[1].get(label, (0, 0, 0, 0))
    return tp, gold_n, pred_n


def precision_recall_f1(tp: int, gold_n: int, pred_n: int
                        ) -> Tuple[float, float, float]:
    precision = _percent(tp, pred_n)
    recall = _percent(tp, gold_n)
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return precision, recall, f1


def rel_att_metrics(gold, pred, label):
    return precision_recall_f1(*rel_att_counts(gold, pred, label))


@dataclass
class LabelMetrics:
    rel_p: float
    rel_r: float
    rel_f1: float
    relatt_p: float
    relatt_r: float
    relatt_f1: float
    gold_support: int
    pred_support: int


@dataclass
class EvalReport:
    uas: float
    las: float
    counted_tokens: int
    per_label: Dict[str, LabelMetrics]


def evaluate(gold: Sequence[Sentence], pred: Sequence[Sentence]) -> EvalReport:
    """Full report: UAS/LAS plus Rel and Rel+Att for every label seen."""
    (counted, heads, both), counts = _count(gold, pred)
    per_label = {}
    for label, (gold_n, pred_n, rel_tp, att_tp) in sorted(counts.items()):
        rp, rr, rf = precision_recall_f1(rel_tp, gold_n, pred_n)
        ap, ar, af = precision_recall_f1(att_tp, gold_n, pred_n)
        per_label[label] = LabelMetrics(
            rel_p=rp, rel_r=rr, rel_f1=rf,
            relatt_p=ap, relatt_r=ar, relatt_f1=af,
            gold_support=gold_n, pred_support=pred_n,
        )
    return EvalReport(uas=_percent(heads, counted), las=_percent(both, counted),
                      counted_tokens=counted, per_label=per_label)


# ----------------------------------------------------------------------
# two-system diff over coordination attachments


@dataclass(frozen=True)
class DiffCase:
    sentence_index: int
    modifier_id: int
    modifier_form: str
    gold_head_form: str
    head_form_a: str
    head_form_b: str
    fired: FrozenSet[str]


@dataclass
class ConjDiff:
    label: str
    only_a: List[DiffCase]
    only_b: List[DiffCase]
    prevalence_a: Dict[str, float] = field(default_factory=dict)
    prevalence_b: Dict[str, float] = field(default_factory=dict)


PREVALENCE_ROWS = (
    "lem", "cap", "suf", "sent",
    "lem+cap+suf", "lem+suf", "sent+suf",
    "other_combination", "single_feature", "any_feature",
)


def feature_prevalence(cases: Sequence[DiffCase]) -> Dict[str, float]:
    """Percentage of cases per feature and per disjoint combination bucket.

    The first four rows are independent per-feature percentages; the
    combination buckets partition the cases (three named pairings, any
    other multi-feature case, exactly one feature, any feature at all).
    """
    rows = {name: 0 for name in PREVALENCE_ROWS}
    for case in cases:
        fired = case.fired
        for feature in ("lem", "cap", "suf", "sent"):
            rows[feature] += feature in fired
        if {"lem", "cap", "suf"} <= fired:
            rows["lem+cap+suf"] += 1
        elif {"lem", "suf"} <= fired:
            rows["lem+suf"] += 1
        elif {"sent", "suf"} <= fired:
            rows["sent+suf"] += 1
        elif len(fired) >= 2:
            rows["other_combination"] += 1
        elif len(fired) == 1:
            rows["single_feature"] += 1
        rows["any_feature"] += bool(fired)
    total = len(cases)
    if total == 0:
        return {name: 0.0 for name in PREVALENCE_ROWS}
    return {name: 100.0 * count / total for name, count in rows.items()}


def conj_diff(gold: Sequence[Sentence], pred_a: Sequence[Sentence],
              pred_b: Sequence[Sentence], resources: FeatureResources,
              label: str = "conj") -> ConjDiff:
    """Attachments carried by one system but not the other, with features.

    A gold ``label`` attachment counts as correct for a system when it
    predicts both the label and the gold head for that modifier.  Feature
    firing is judged on the gold head/modifier pair.
    """
    check_aligned(gold, pred_a, names=("gold", "system A"))
    check_aligned(gold, pred_b, names=("gold", "system B"))
    only_a: List[DiffCase] = []
    only_b: List[DiffCase] = []
    for index, (g_sent, a_sent, b_sent) in enumerate(zip(gold, pred_a, pred_b)):
        for g_tok, a_tok, b_tok in zip(g_sent, a_sent, b_sent):
            if g_tok.gold_label != label:
                continue
            a_head, a_label = _predicted(a_tok)
            b_head, b_label = _predicted(b_tok)
            a_ok = a_label == label and a_head == g_tok.gold_head
            b_ok = b_label == label and b_head == g_tok.gold_head
            if a_ok == b_ok:
                continue
            head_id = g_tok.gold_head
            features = extract_forms(
                g_sent.form_of(head_id), g_sent.pos_of(head_id),
                g_tok.form, g_tok.pos, resources,
            )
            case = DiffCase(
                sentence_index=index,
                modifier_id=g_tok.id,
                modifier_form=g_tok.form,
                gold_head_form=g_sent.form_of(head_id),
                head_form_a=g_sent.form_of(a_head) if 0 <= a_head <= len(g_sent) else "?",
                head_form_b=g_sent.form_of(b_head) if 0 <= b_head <= len(g_sent) else "?",
                fired=features.fired(),
            )
            (only_a if a_ok else only_b).append(case)
    return ConjDiff(
        label=label,
        only_a=only_a,
        only_b=only_b,
        prevalence_a=feature_prevalence(only_a),
        prevalence_b=feature_prevalence(only_b),
    )


# ----------------------------------------------------------------------
# report formatting


def report_tsv(report: EvalReport) -> str:
    lines = [
        f"uas\t{report.uas:.4f}",
        f"las\t{report.las:.4f}",
        f"counted_tokens\t{report.counted_tokens}",
        "label\trel_p\trel_r\trel_f1\trelatt_p\trelatt_r\trelatt_f1"
        "\tgold_support\tpred_support",
    ]
    for label, m in report.per_label.items():
        lines.append(
            f"{label}\t{m.rel_p:.4f}\t{m.rel_r:.4f}\t{m.rel_f1:.4f}"
            f"\t{m.relatt_p:.4f}\t{m.relatt_r:.4f}\t{m.relatt_f1:.4f}"
            f"\t{m.gold_support}\t{m.pred_support}"
        )
    return "\n".join(lines) + "\n"


def report_table(report: EvalReport) -> str:
    lines = [
        f"UAS: {report.uas:.2f}   LAS: {report.las:.2f}   "
        f"tokens counted: {report.counted_tokens}",
        "",
        f"{'label':<12} {'Rel P':>7} {'Rel R':>7} {'Rel F1':>7} "
        f"{'R+A P':>7} {'R+A R':>7} {'R+A F1':>7} {'gold':>6} {'pred':>6}",
    ]
    for label, m in report.per_label.items():
        lines.append(
            f"{label:<12} {m.rel_p:>7.2f} {m.rel_r:>7.2f} {m.rel_f1:>7.2f} "
            f"{m.relatt_p:>7.2f} {m.relatt_r:>7.2f} {m.relatt_f1:>7.2f} "
            f"{m.gold_support:>6} {m.pred_support:>6}"
        )
    return "\n".join(lines) + "\n"


def diff_case_lines(diff: ConjDiff) -> str:
    lines = [
        "list\tsentence\tmodifier\tgold_head\thead_in_a\thead_in_b\tfeatures"
    ]
    for name, cases in (("only_a", diff.only_a), ("only_b", diff.only_b)):
        for case in cases:
            fired = ",".join(sorted(case.fired)) or "-"
            lines.append(
                f"{name}\t{case.sentence_index}\t{case.modifier_form}"
                f"\t{case.gold_head_form}\t{case.head_form_a}"
                f"\t{case.head_form_b}\t{fired}"
            )
    return "\n".join(lines) + "\n"


def diff_table(diff: ConjDiff) -> str:
    lines = [
        f"'{diff.label}' attachments correct in exactly one system: "
        f"A-only {len(diff.only_a)}, B-only {len(diff.only_b)}",
        "",
        f"{'feature':<20} {'A-only %':>10} {'B-only %':>10}",
    ]
    for row in PREVALENCE_ROWS:
        lines.append(
            f"{row:<20} {diff.prevalence_a[row]:>10.1f} {diff.prevalence_b[row]:>10.1f}"
        )
    return "\n".join(lines) + "\n"
