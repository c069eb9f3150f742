"""Command-line interface: train, parse, evaluate, analyze, gradcheck.

Exit codes: 0 success, 2 usage error (argparse), 3 data/resource error,
4 model-file error, 1 anything else.  Configuration precedence is
command-line flags over a JSON config file over built-in defaults; the
effective configuration is echoed at the start of every training run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

import numpy as np

from . import corpus_stats, evaluation, training
from .model import (
    HYPERPARAM_TYPES,
    Hyperparams,
    Model,
    ModelIOError,
    Vocabulary,
    check_hyperparams,
)
from .parser import parse_corpus
from .resources import (
    EmbeddingTable,
    FeatureResources,
    LemmaLexicon,
    ResourceError,
    SentimentLexicon,
)
from .transitions import OracleError
from .treebank import (
    ConllError,
    LabelInventory,
    OutputError,
    OutputFile,
    Sentence,
    decode_text,
    is_projective,
    read_conll,
    write_conll,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_OTHER = 1


def _add_lexicon_flags(sub):
    sub.add_argument("--lemma-lexicon", help="TSV lemma lexicon")
    sub.add_argument("--sentiment-pos", help="positive word list")
    sub.add_argument("--sentiment-neg", help="negative word list")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjparse",
        description="Greedy arc-hybrid dependency parser with "
                    "coordination-symmetry features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a parser model")
    train.add_argument("--train", required=True, help="training treebank")
    train.add_argument("--dev", help="development treebank for model selection")
    train.add_argument("--model", required=True, help="output model path")
    train.add_argument("--format", choices=("conllx", "conllu"), default="conllx")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--seed", type=int, required=True)
    train.add_argument("--config", help="JSON file with hyperparameter overrides")
    train.add_argument("--no-conj-features", action="store_true",
                       help="disable the coordination scorer")
    train.add_argument("--no-single-root", action="store_true",
                       help="allow several root attachments when decoding")
    train.add_argument("--tune-pretrained", action="store_true",
                       help="update pretrained embeddings during training")
    train.add_argument("--hyper", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override one hyperparameter (repeatable)")
    train.add_argument("--embeddings", help="pretrained embedding text file")
    _add_lexicon_flags(train)

    parse = sub.add_parser("parse", help="parse a treebank with a trained model")
    parse.add_argument("--model", required=True)
    parse.add_argument("--input", required=True)
    parse.add_argument("--output", required=True)
    parse.add_argument("--format", choices=("conllx", "conllu"), default="conllx")
    parse.add_argument("--no-single-root", action="store_true")
    parse.add_argument("--embeddings", help="pretrained embedding text file")
    _add_lexicon_flags(parse)

    evaluate = sub.add_parser("evaluate", help="score predictions against gold")
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--pred", required=True)
    evaluate.add_argument("--pred-b", help="second prediction file: also emit "
                                           "a two-system conj diff")
    evaluate.add_argument("--format", choices=("conllx", "conllu"), default="conllx")
    evaluate.add_argument("--tsv", action="store_true",
                          help="emit machine-readable TSV instead of a table")
    evaluate.add_argument("--diff-label", default="conj")
    _add_lexicon_flags(evaluate)

    analyze = sub.add_parser("analyze", help="corpus statistics per label")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--format", choices=("conllx", "conllu"), default="conllx")
    analyze.add_argument("--label", default="conj",
                         help="label for the top-pairs listing")
    analyze.add_argument("--top", type=int, default=24)
    analyze.add_argument("--markdown", action="store_true")
    _add_lexicon_flags(analyze)

    gradcheck = sub.add_parser(
        "gradcheck", help="compare analytic gradients with finite differences"
    )
    gradcheck.add_argument("--input", default=None,
                           help="tiny treebank (default: bundled fixture)")
    gradcheck.add_argument("--format", choices=("conllx", "conllu"),
                           default="conllx")
    gradcheck.add_argument("--seed", type=int, default=7)
    gradcheck.add_argument("--step", type=float, default=1e-4)
    gradcheck.add_argument("--tolerance", type=float, default=1e-4)

    return parser


def load_resources(args) -> FeatureResources:
    lemmas = (
        LemmaLexicon.load(args.lemma_lexicon)
        if args.lemma_lexicon
        else LemmaLexicon.empty()
    )
    if args.sentiment_pos and args.sentiment_neg:
        sentiment = SentimentLexicon.load(args.sentiment_pos, args.sentiment_neg)
    else:
        if args.sentiment_pos or args.sentiment_neg:
            print("warning: need both sentiment lists; using neutral sentiment",
                  file=sys.stderr)
        sentiment = SentimentLexicon.empty()
    # Only ``train`` and ``parse`` take ``--embeddings``.
    embeddings = (
        EmbeddingTable.load(args.embeddings)
        if getattr(args, "embeddings", None)
        else None
    )
    return FeatureResources(lemmas=lemmas, sentiment=sentiment,
                            embeddings=embeddings)


_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _parse_hyper_flags(pairs: List[str]) -> dict:
    """``--hyper NAME=VALUE`` strings as checked hyperparameter values."""
    values = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep:
            raise ValueError(f"--hyper expects NAME=VALUE, got {pair!r}")
        kind = HYPERPARAM_TYPES.get(name, str)  # unknown names fail the check
        try:
            values[name] = _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise ValueError(f"hyperparameter {name!r} must be {kind.__name__}, "
                             f"got {text!r}") from None
    return check_hyperparams(values)


def _projective_sentences(path, fmt: str, purpose: str
                          ) -> Tuple[List[Sentence], int]:
    """The projective sentences of a treebank and the number skipped.

    Raises ``OracleError`` naming ``path`` when there is none to
    ``purpose``.
    """
    sentences = read_conll(path, fmt=fmt)
    projective = [s for s in sentences if is_projective(s)]
    skipped = len(sentences) - len(projective)
    if not projective:
        raise OracleError(
            f"{path}: no projective sentence to {purpose} "
            f"({skipped} non-projective skipped)")
    return projective, skipped


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be at least 0, got {seed}")


def cmd_train(args) -> int:
    _check_seed(args.seed)
    try:  # opened first: training can take long, and the model is written last
        with OutputFile(args.model) as output:
            _trained_model(args).save(output)
    except OutputError as exc:
        raise ModelIOError(f"cannot write {args.model}: {exc.strerror}") from None
    print(f"model written to {args.model}")
    return EXIT_OK


def _trained_model(args) -> Model:
    if args.epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {args.epochs}")
    config = {}
    if args.config:
        # Bytes that are not UTF-8 are a data error, as in every input file.
        text = decode_text(args.config)
        try:
            config = check_hyperparams(json.loads(text))
        except ValueError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None
    overrides = {**config, **_parse_hyper_flags(args.hyper)}
    if "pretrained_dim" in overrides:
        raise ValueError("hyperparameter 'pretrained_dim' cannot be set: it "
                         "follows from --embeddings")
    hp = Hyperparams(**overrides)
    if args.no_conj_features:
        hp.use_conj_features = False
    if args.no_single_root:
        hp.single_root = False
    if args.tune_pretrained:
        hp.tune_pretrained = True

    # A model trained on nothing has no labels and cannot parse.
    train_sents, skipped = _projective_sentences(args.train, args.format,
                                                 "train on")
    dev_sents = read_conll(args.dev, fmt=args.format) if args.dev else None
    if dev_sents is not None and not evaluation.has_scored_token(dev_sents):
        raise ConllError(f"{args.dev}: {training.NOTHING_TO_SCORE}")
    # Read after the treebanks, so that a bad treebank's error comes alone.
    resources = load_resources(args)

    vocab = Vocabulary.from_corpus(train_sents)
    labels = LabelInventory.from_sentences(train_sents)
    model = Model.build(hp, vocab, labels, pretrained=resources.embeddings,
                        seed=args.seed)

    print(f"configuration: {json.dumps(model.hp.to_dict(), sort_keys=True)}")
    print(f"seed: {args.seed}  epochs: {args.epochs}")
    print(f"training sentences: {len(train_sents)} "
          f"(skipped {skipped} non-projective)")
    if dev_sents is not None:
        print(f"dev sentences: {len(dev_sents)}")

    # Overflowing parameters fail training with one error line; numpy's
    # warnings about them would only come first.
    with np.errstate(all="ignore"):
        result = training.train_model(
            model, train_sents, resources, epochs=args.epochs, seed=args.seed,
            dev_sentences=dev_sents, log=print,
        )
    if result.best_epoch is not None:
        print(f"best dev LAS {result.best_las:.2f} at epoch {result.best_epoch}; "
              "saving that checkpoint")
    return model


def cmd_parse(args) -> int:
    model = Model.load(args.model)
    if args.no_single_root:
        model.hp.single_root = False
    sentences = read_conll(args.input, fmt=args.format)
    resources = load_resources(args)
    with OutputFile(args.output) as output:
        parsed = parse_corpus(sentences, model, resources)
        output.write(write_conll(parsed, use_predicted=True))
    print(f"parsed {len(parsed)} sentences into {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # Every input is read and scored before anything is printed.
    gold = read_conll(args.gold, fmt=args.format)
    pred = read_conll(args.pred, fmt=args.format, require_tree=False)
    report = evaluation.evaluate(gold, pred)
    if args.pred_b:
        pred_b = read_conll(args.pred_b, fmt=args.format, require_tree=False)
        diff = evaluation.conj_diff(gold, pred, pred_b, load_resources(args),
                                    label=args.diff_label)
    print(evaluation.report_tsv(report) if args.tsv
          else evaluation.report_table(report), end="")
    if args.pred_b:
        print()
        print(evaluation.diff_table(diff), end="")
        print()
        print(evaluation.diff_case_lines(diff), end="")
    return EXIT_OK


def cmd_analyze(args) -> int:
    sentences = read_conll(args.input, fmt=args.format)
    resources = load_resources(args)
    if not args.sentiment_pos and not args.sentiment_neg:
        print("warning: no sentiment lists given; sentiment columns are "
              "all-neutral", file=sys.stderr)
    stats = corpus_stats.label_stats(sentences, resources)
    pairs = corpus_stats.top_pairs(sentences, args.label, args.top)
    if args.markdown:
        print(corpus_stats.stats_markdown(stats), end="")
        print()
        print(corpus_stats.pairs_markdown(pairs), end="")
    else:
        print(corpus_stats.stats_tsv(stats), end="")
        print()
        print(corpus_stats.pairs_tsv(pairs), end="")
    return EXIT_OK


def _bundled_gradcheck_fixture() -> str:
    import importlib.resources

    candidate = importlib.resources.files("conjparse").joinpath(
        "data/gradcheck.conllx"
    )
    return str(candidate)


def cmd_gradcheck(args) -> int:
    _check_seed(args.seed)
    path = args.input or _bundled_gradcheck_fixture()
    sentences, _ = _projective_sentences(path, args.format, "check gradients on")
    hp = Hyperparams(
        word_dim=6, pos_dim=3, lstm_layers=2, lstm_dim=5, mlp_dim=8,
        conj_mlp_dim=7, word_dropout_alpha=0.0,
    )
    vocab = Vocabulary.from_corpus(sentences)
    labels = LabelInventory.from_sentences(sentences)
    model = Model.build(hp, vocab, labels, seed=args.seed)
    # Check at a generic random point: the fresh init keeps all transition
    # scores nearly tied, right on the hinge loss's kinks.
    training.jitter_params(model, seed=args.seed + 1)
    report = training.gradient_check(
        model, sentences, FeatureResources.empty(),
        step=args.step, tolerance=args.tolerance,
    )
    for entry in report.entries:
        status = "ok" if entry.max_rel_error < args.tolerance else "FAIL"
        print(f"{entry.key:<20} max_rel_err={entry.max_rel_error:.3e} "
              f"({entry.checked} values) {status}")
    print(f"distance to nearest hinge kink: {report.kink_margin:.3e}")
    print(f"overall max relative error: {report.max_rel_error:.3e} "
          f"(tolerance {args.tolerance:g})")
    if not report.passed:
        print("gradient check FAILED")
        return EXIT_OTHER
    print("gradient check passed")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "parse": cmd_parse,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "gradcheck": cmd_gradcheck,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ModelIOError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ConllError, ResourceError, OracleError,
            evaluation.MisalignedCorporaError, OSError) as exc:
        # OSError: an input or output path that cannot be used.
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
