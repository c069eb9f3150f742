"""Per-layer metrics: what each one is made of.

Every ``_s`` metric is the summed self time of a group of spans, so a
group that holds a function and all of its wrapped callees reports the
layer's whole cost once, and the groups never count a second twice.
``_calls`` metrics are span call counts.  ``_share`` metrics divide a
group's self time by the traced wall time.  README.md maps each metric to
the end-to-end metric it should move and the workloads it shows on.
"""

from __future__ import annotations

from typing import Dict, Tuple

ADAM = ("network.Adam.step",)
BILSTM_BACKWARD = ("network.bilstm_backward", "network.lstm_backward")
ENCODE = ("model.Model.encode", "model.Model.word_ids_of", "model.Model.pos_ids_of",
          "model.Model.pretrained_ids_of", "network.bilstm_forward",
          "network.lstm_forward")
EXTRACT = ("conj_features.extract_forms", "conj_features.extract",
           "conj_features.cap_feature", "conj_features.suffix_feature",
           "conj_features.lemma_feature", "conj_features.sym_feature",
           "conj_features.sentiment_feature")
RESOURCE_LOADS = ("resources.EmbeddingTable.load", "resources.LemmaLexicon.load",
                  "resources.SentimentLexicon.load")

# name -> (kind, spans); kind is "self_s", "calls" or "share".
SPAN_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "network.adam_step_calls": ("calls", ADAM),
    "network.adam_step_s": ("self_s", ADAM),
    "network.adam_step_share": ("share", ADAM),
    "model.zero_grads_s": ("self_s", ("model.Model.zero_grads",)),
    "model.copy_params_s": ("self_s", ("model.Model.copy_params",)),
    "network.bilstm_backward_s": ("self_s", BILSTM_BACKWARD),
    "network.bilstm_backward_share": ("share", BILSTM_BACKWARD),
    "network.lstm_backward_calls": ("calls", ("network.lstm_backward",)),
    "network.mlp_backward_s": ("self_s", ("network.mlp_backward",)),
    "training.oracle_path_s": ("self_s", ("training.oracle_path",)),
    "transitions.static_oracle_calls": ("calls", ("transitions.static_oracle",)),
    "transitions.static_oracle_s": ("self_s", ("transitions.static_oracle",)),
    "treebank.is_projective_calls": ("calls", ("treebank.is_projective",)),
    "training.sentence_loss_s": ("self_s", ("training.sentence_loss",
                                            "training.batch_loss")),
    "training.train_step_s": ("self_s", ("training.train_step",
                                         "training.dropped_word_ids")),
    "model.encode_calls": ("calls", ("model.Model.encode",)),
    "model.encode_s": ("self_s", ENCODE),
    "model.encode_share": ("share", ENCODE),
    "kernels.cell_forward_calls": ("calls", ("kernels.cell_forward",)),
    "kernels.cell_backward_calls": ("calls", ("kernels.cell_backward",)),
    "parser.score_config_calls": ("calls", ("parser.score_config",)),
    "parser.score_config_s": ("self_s", ("parser.score_config",
                                         "parser.conj_candidate")),
    "parser.greedy_parse_s": ("self_s", ("parser.greedy_parse",)),
    "parser.parse_corpus_s": ("self_s", ("parser.parse_corpus",)),
    "model.config_feature_vector_s": ("self_s", ("model.Model.config_feature_vector",
                                                 "model.Model.feature_slots")),
    "model.transition_scores_calls": ("calls", ("model.Model.transition_scores",)),
    "model.transition_scores_s": ("self_s", ("model.Model.transition_scores",
                                             "network.mlp_forward")),
    "conj_features.extract_calls": ("calls", ("conj_features.extract_forms",)),
    "conj_features.extract_s": ("self_s", EXTRACT),
    "model.conj_score_calls": ("calls", ("model.Model.conj_score",)),
    "model.conj_score_s": ("self_s", ("model.Model.conj_score",)),
    "transitions.legal_mask_calls": ("calls", ("transitions.legal_mask",)),
    "transitions.legal_mask_s": ("self_s", ("transitions.legal_mask",)),
    "transitions.apply_calls": ("calls", ("transitions.apply",)),
    "transitions.apply_s": ("self_s", ("transitions.apply",)),
    "model.load_s": ("self_s", ("model.Model.load",)),
    "treebank.read_conll_s": ("self_s", ("treebank.read_conll",
                                         "treebank.validate_tree")),
    "treebank.write_conll_s": ("self_s", ("treebank.write_conll",)),
    "evaluation.evaluate_s": ("self_s", ("evaluation.evaluate",
                                         "evaluation.rel_counts",
                                         "evaluation.rel_att_counts",
                                         "evaluation.precision_recall_f1")),
    "evaluation.attachment_scores_s": ("self_s", ("evaluation.attachment_scores",
                                                  "evaluation.attachment_counts",
                                                  "evaluation.check_aligned")),
    "resources.load_s": ("self_s", RESOURCE_LOADS),
    "resources.embedding_lookups": ("calls", ("resources.EmbeddingTable.lookup",)),
}

# Ratios computed from hook counters and from the trace itself:
# zero_loss_frac       sentences with zero loss / sentences
# distinct_pair_ratio  distinct (sentence, head, modifier) within a job / extract calls
# conj_scored_ratio    conj_score calls / score_config calls
# wall_s               traced wall time: one set-up and two jobs per input,
#                      without the jobs' unmeasured preparation and checks
# coverage             top-level span time / traced wall time
# overhead_frac        traced / fastest untraced time of the same jobs, minus 1
DERIVED_METRICS = (
    "training.zero_loss_frac",
    "conj_features.distinct_pair_ratio",
    "parser.conj_scored_ratio",
    "trace.wall_s",
    "trace.coverage",
    "trace.overhead_frac",
)

PER_LAYER = tuple(SPAN_METRICS) + DERIVED_METRICS

# Per-layer metrics where a higher value is better; for all others lower is.
HIGHER_IS_BETTER = frozenset({"training.zero_loss_frac",
                              "conj_features.distinct_pair_ratio",
                              "parser.conj_scored_ratio", "trace.coverage"})


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or name.endswith("_lookups"):
        return "count"
    return "ratio"


def span_metrics(tracer, wall_s: float) -> Dict[str, float]:
    """Values of every SPAN_METRICS entry from a finished trace."""
    values = {}
    for name, (kind, spans) in SPAN_METRICS.items():
        if kind == "calls":
            values[name] = sum(tracer.calls(s) for s in spans)
        else:
            seconds = sum(tracer.self_s(s) for s in spans)
            values[name] = seconds / wall_s if kind == "share" else seconds
    return values


class Counters:
    """Hook state behind the derived ratios."""

    def __init__(self):
        self.losses = 0
        self.zero_losses = 0
        self.extracts = 0
        self.distinct_pairs = 0
        self._pairs = set()
        # Sentences named in ``_pairs`` by id stay referenced, so no id is reused.
        self._sentences = {}

    def new_job(self) -> None:
        """Count repeated pairs within a job only: jobs that rerun an input
        would otherwise look like redundant work inside the library."""
        self.distinct_pairs += len(self._pairs)
        self._pairs.clear()
        self._sentences.clear()

    def on_sentence_loss(self, tracer, args, result) -> None:
        self.losses += 1
        self.zero_losses += result == 0.0

    def on_extract(self, tracer, args, result) -> None:
        self.extracts += 1
        scoring = tracer.parent_args("parser.score_config")
        if scoring is None:
            self._pairs.add(args[:4])
            return
        config, sentence = scoring[1], scoring[3]
        self._sentences[id(sentence)] = sentence
        self._pairs.add((id(sentence), config.stack[-2], config.stack[-1]))

    def hooks(self):
        return {"training.sentence_loss": self.on_sentence_loss,
                "conj_features.extract_forms": self.on_extract}


def per_layer_metrics(tracer, counters: Counters, wall_s: float,
                      overhead_frac: float) -> Dict[str, float]:
    """Every PER_LAYER value, given the traced wall time and the overhead."""
    values = span_metrics(tracer, wall_s)
    score_calls = tracer.calls("parser.score_config")
    values["training.zero_loss_frac"] = (
        counters.zero_losses / counters.losses if counters.losses else 0.0)
    counters.new_job()
    values["conj_features.distinct_pair_ratio"] = (
        counters.distinct_pairs / counters.extracts if counters.extracts else 0.0)
    values["parser.conj_scored_ratio"] = (
        tracer.calls("model.Model.conj_score") / score_calls if score_calls else 0.0)
    values["trace.wall_s"] = wall_s
    values["trace.coverage"] = tracer.top_level_s / wall_s
    values["trace.overhead_frac"] = overhead_frac
    return {name: values[name] for name in PER_LAYER}
