import numpy as np
import pytest

from conftest import make_sentence, random_tree_sentence
from conjparse import evaluation
from conjparse.evaluation import (
    DEFAULT_PUNCT_POS,
    MisalignedCorporaError,
    attachment_counts,
    attachment_scores,
    conj_diff,
    diff_case_lines,
    diff_table,
    evaluate,
    feature_prevalence,
    is_punctuation,
    precision_recall_f1,
    rel_att_counts,
    rel_att_metrics,
    rel_counts,
    report_table,
    report_tsv,
)
from conjparse.resources import FeatureResources, LemmaLexicon


def _with_preds(sentence, heads, labels):
    return sentence.with_predictions(heads, labels)


def _gold_as_pred(sentence):
    return sentence.with_predictions(
        [t.gold_head for t in sentence], [t.gold_label for t in sentence]
    )


@pytest.fixture()
def gold():
    return [
        make_sentence([2, 0, 2, 2], labels=["nsubj", "root", "dobj", "punct"],
                      forms=["he", "eats", "apples", "."],
                      pos=["PRP", "VBZ", "NNS", "."]),
        make_sentence([2, 0, 2, 3, 3], labels=["nsubj", "root", "dobj", "cc", "conj"],
                      forms=["she", "buys", "shares", "and", "bonds"],
                      pos=["PRP", "VBZ", "NNS", "CC", "NNS"]),
    ]


def test_perfect_predictions(gold):
    pred = [_gold_as_pred(s) for s in gold]
    assert attachment_scores(gold, pred) == (100.0, 100.0)
    for label in ("nsubj", "root", "dobj", "conj"):
        assert precision_recall_f1(*rel_counts(gold, pred, label)) == (
            100.0, 100.0, 100.0)
        assert rel_att_metrics(gold, pred, label) == (100.0, 100.0, 100.0)


def test_right_heads_wrong_labels(gold):
    pred = [
        s.with_predictions([t.gold_head for t in s], ["x"] * len(s))
        for s in gold
    ]
    assert attachment_scores(gold, pred) == (100.0, 0.0)


def test_punctuation_excluded(gold):
    pred = [_gold_as_pred(s) for s in gold]
    counted, _, _ = attachment_counts(gold, pred)
    assert counted == 3 + 5  # the period is excluded
    assert is_punctuation(gold[0].token(4))
    assert not is_punctuation(gold[0].token(3))


def test_absent_label_reports_zero_with_zero_support(gold):
    pred = [_gold_as_pred(s) for s in gold]
    assert precision_recall_f1(*rel_counts(gold, pred, "xcomp")) == (0.0, 0.0, 0.0)
    tp, gold_n, pred_n = rel_counts(gold, pred, "xcomp")
    assert (tp, gold_n, pred_n) == (0, 0, 0)


def test_rel_att_recall_with_one_wrong_head(gold):
    # both conj-labeled, one head wrong among k=1 gold conj tokens per corpus
    pred = [
        _gold_as_pred(gold[0]),
        gold[1].with_predictions([2, 0, 2, 3, 2],
                                 ["nsubj", "root", "dobj", "cc", "conj"]),
    ]
    p, r, f1 = precision_recall_f1(*rel_counts(gold, pred, "conj"))
    assert (p, r) == (100.0, 100.0)
    p, r, f1 = rel_att_metrics(gold, pred, "conj")
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def _brute_force_counts(gold, pred):
    counted = heads = both = 0
    for gs, ps in zip(gold, pred):
        for gt, pt in zip(gs.tokens, ps.tokens):
            if gt.gold_label == "punct" or gt.pos in DEFAULT_PUNCT_POS:
                continue
            counted += 1
            if pt.pred_head == gt.gold_head:
                heads += 1
                if pt.pred_label == gt.gold_label:
                    both += 1
    return counted, heads, both


def _brute_force_label(gold, pred, label, need_head):
    tp = gold_n = pred_n = 0
    for gs, ps in zip(gold, pred):
        for gt, pt in zip(gs.tokens, ps.tokens):
            if gt.gold_label == "punct" or gt.pos in DEFAULT_PUNCT_POS:
                continue
            g = gt.gold_label == label
            p = pt.pred_label == label
            gold_n += g
            pred_n += p
            if g and p and (not need_head or pt.pred_head == gt.gold_head):
                tp += 1
    return tp, gold_n, pred_n


def _random_pair(rng, n):
    gold = random_tree_sentence(rng, n)
    heads = [int(rng.integers(0, n + 1)) for _ in range(n)]
    heads = [h if h != i + 1 else 0 for i, h in enumerate(heads)]
    # "appos" is never a gold label, so it is seen in predictions only.
    labels = [str(rng.choice(["root", "nsubj", "dobj", "conj", "punct", "appos"]))
              for _ in range(n)]
    return gold, gold.with_predictions(heads, labels)


def test_metrics_match_bruteforce_on_random_pairs():
    rng = np.random.default_rng(17)
    prediction_only_seen = False
    for _ in range(1000):
        gold_s, pred_s = _random_pair(rng, int(rng.integers(1, 11)))
        gold, pred = [gold_s], [pred_s]
        counts = _brute_force_counts(gold, pred)
        assert attachment_counts(gold, pred) == counts
        for label in ("conj", "nsubj"):
            assert rel_counts(gold, pred, label) == _brute_force_label(
                gold, pred, label, need_head=False
            )
            assert rel_att_counts(gold, pred, label) == _brute_force_label(
                gold, pred, label, need_head=True
            )
        report = evaluate(gold, pred)
        assert report.counted_tokens == counts[0]
        seen = {
            label
            for gt, pt in zip(gold_s.tokens, pred_s.tokens)
            if not (gt.gold_label == "punct" or gt.pos in DEFAULT_PUNCT_POS)
            for label in (gt.gold_label, pt.pred_label)
        }
        assert sorted(report.per_label) == sorted(seen)
        for label, m in report.per_label.items():
            rel = _brute_force_label(gold, pred, label, need_head=False)
            att = _brute_force_label(gold, pred, label, need_head=True)
            assert (m.gold_support, m.pred_support) == rel[1:] == att[1:]
            assert (m.rel_p, m.rel_r, m.rel_f1) == precision_recall_f1(*rel)
            assert (m.relatt_p, m.relatt_r, m.relatt_f1) == \
                precision_recall_f1(*att)
        prediction_only_seen |= "appos" in report.per_label
    assert prediction_only_seen


def test_rel_att_tp_never_exceeds_rel_tp():
    rng = np.random.default_rng(23)
    for _ in range(300):
        gold_s, pred_s = _random_pair(rng, int(rng.integers(1, 11)))
        for label in ("conj", "dobj", "punct"):
            tp_rel, _, _ = rel_counts([gold_s], [pred_s], label)
            tp_att, _, _ = rel_att_counts([gold_s], [pred_s], label)
            assert tp_att <= tp_rel


def test_permutation_invariance(gold):
    pred = [
        gold[0].with_predictions([2, 0, 1, 2], ["nsubj", "root", "x", "punct"]),
        gold[1].with_predictions([2, 0, 2, 3, 3],
                                 ["nsubj", "root", "dobj", "cc", "conj"]),
    ]
    forward = attachment_scores(gold, pred)
    backward = attachment_scores(gold[::-1], pred[::-1])
    assert forward == backward
    assert rel_counts(gold, pred, "conj") == rel_counts(
        gold[::-1], pred[::-1], "conj"
    )


def test_misalignment_reports_first_divergence(gold):
    with pytest.raises(MisalignedCorporaError, match="2 sentences"):
        attachment_scores(gold, gold[:1])
    mismatched = [gold[0], make_sentence([0], forms=["x"])]
    with pytest.raises(MisalignedCorporaError, match="sentence 1"):
        attachment_scores(gold, mismatched)


def test_evaluate_report_structure(gold):
    pred = [_gold_as_pred(s) for s in gold]
    report = evaluate(gold, pred)
    assert report.uas == report.las == 100.0
    assert report.counted_tokens == 8
    assert report.per_label["conj"].rel_f1 == 100.0
    assert report.per_label["conj"].gold_support == 1
    assert "punct" not in report.per_label
    tsv = report_tsv(report)
    assert "conj\t100.0000" in tsv
    table = report_table(report)
    assert "UAS: 100.00" in table


def test_evaluate_checks_alignment_once_and_visits_each_token_once(
        sample_sentences, monkeypatch):
    calls = {"check_aligned": 0, "is_punctuation": 0}

    def counting(name):
        original = getattr(evaluation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(evaluation, name, counting(name))
    evaluate(sample_sentences, [_gold_as_pred(s) for s in sample_sentences])
    assert calls == {"check_aligned": 1,
                     "is_punctuation": sum(map(len, sample_sentences))}


def test_f1_is_harmonic_mean():
    gold = [make_sentence([0, 1], labels=["root", "conj"], forms=["a", "b"])]
    pred = [gold[0].with_predictions([0, 1], ["conj", "root"])]
    p, r, f1 = precision_recall_f1(*rel_counts(gold, pred, "conj"))
    assert p == 0.0 and r == 0.0 and f1 == 0.0


# ----------------------------------------------------------------------
# two-system diff


def _coord_gold():
    return [
        make_sentence(
            [2, 0, 2, 3, 3],
            labels=["nsubj", "root", "dobj", "cc", "conj"],
            forms=["she", "buys", nouns[0], "and", nouns[1]],
            pos=["PRP", "VBZ", "NNS", "CC", "NNS"],
        )
        for nouns in (
            ("shares", "bonds"), ("men", "women"), ("tables", "chairs"),
            ("Corp.", "Inc."), ("up", "down"),
        )
    ]


def test_diff_empty_when_systems_agree(gold, empty_resources):
    pred = [_gold_as_pred(s) for s in gold]
    diff = conj_diff(gold, pred, pred, empty_resources)
    assert diff.only_a == [] and diff.only_b == []
    assert diff.prevalence_a["any_feature"] == 0.0


def test_diff_all_gold_conj_in_only_a(empty_resources):
    gold = _coord_gold()
    pred_a = [_gold_as_pred(s) for s in gold]
    pred_b = [
        s.with_predictions(
            [h if l != "conj" else 2 for h, l in
             zip((t.gold_head for t in s), (t.gold_label for t in s))],
            [t.gold_label for t in s],
        )
        for s in gold
    ]
    diff = conj_diff(gold, pred_a, pred_b, empty_resources)
    assert len(diff.only_a) == 5
    assert diff.only_b == []


def test_diff_prevalence_known_fixture():
    """5 one-sided cases; 2 share a lemma -> LEM prevalence 40%."""
    lexicon = LemmaLexicon({
        ("men", "noun"): "man", ("women", "noun"): "man",
        ("tables", "noun"): "table", ("chairs", "noun"): "table",
    })
    resources = FeatureResources(lemmas=lexicon)
    gold = _coord_gold()
    pred_a = [_gold_as_pred(s) for s in gold]
    pred_b = [
        s.with_predictions([2, 0, 2, 3, 1], [t.gold_label for t in s])
        for s in gold
    ]
    diff = conj_diff(gold, pred_a, pred_b, resources)
    assert len(diff.only_a) == 5
    assert diff.prevalence_a["lem"] == 40.0
    assert diff.prevalence_a["cap"] == 20.0  # (Corp., Inc.)
    # shares/bonds 0, men/women 3, tables/chairs 1, Corp./Inc. 1, up/down 0
    assert diff.prevalence_a["suf"] == 20.0
    assert diff.prevalence_a["any_feature"] == 60.0
    assert diff.prevalence_b["any_feature"] == 0.0


def test_diff_cases_are_disjoint(empty_resources):
    rng = np.random.default_rng(31)
    gold = _coord_gold()
    for _ in range(20):
        def scramble(sent):
            n = len(sent)
            heads = [int(rng.integers(0, n + 1)) for _ in range(n)]
            heads = [h if h != i + 1 else 0 for i, h in enumerate(heads)]
            labels = [str(rng.choice(["conj", "dobj", "root"]))
                      for _ in range(n)]
            return sent.with_predictions(heads, labels)

        pred_a = [scramble(s) for s in gold]
        pred_b = [scramble(s) for s in gold]
        diff = conj_diff(gold, pred_a, pred_b, FeatureResources.empty())
        keys_a = {(c.sentence_index, c.modifier_id) for c in diff.only_a}
        keys_b = {(c.sentence_index, c.modifier_id) for c in diff.only_b}
        assert not keys_a & keys_b


def test_diff_emitters(empty_resources):
    gold = _coord_gold()
    pred_a = [_gold_as_pred(s) for s in gold]
    pred_b = [
        s.with_predictions([2, 0, 2, 3, 2], [t.gold_label for t in s])
        for s in gold
    ]
    diff = conj_diff(gold, pred_a, pred_b, empty_resources)
    lines = diff_case_lines(diff)
    assert "only_a\t0\tbonds\tshares\tshares\tbuys" in lines
    table = diff_table(diff)
    assert "A-only 5, B-only 0" in table


def test_feature_prevalence_partition():
    from conjparse.evaluation import DiffCase

    def case(fired):
        return DiffCase(0, 1, "m", "h", "a", "b", frozenset(fired))

    cases = [
        case({"lem", "cap", "suf"}),
        case({"lem", "suf"}),
        case({"sent", "suf"}),
        case({"cap", "sent"}),
        case({"cap"}),
        case(set()),
    ]
    rows = feature_prevalence(cases)
    total = (rows["lem+cap+suf"] + rows["lem+suf"] + rows["sent+suf"]
             + rows["other_combination"] + rows["single_feature"])
    assert abs(total - rows["any_feature"]) < 1e-9
    assert rows["any_feature"] == pytest.approx(100.0 * 5 / 6)
