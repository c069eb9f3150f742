"""Record the bit-level golden outputs that tests/test_golden.py checks.

One short, fixed run of the library at its default sizes, with all four
lexical resources of data/:

- ``train_model`` on six sample sentences and one generated 24-token
  sentence, whose 24 LSTM steps cross ``network._FACTOR_BLOCK`` (the
  sample's longest sentence has 7 tokens), at batch sizes 1 and 2, with
  word dropout on, two epochs with dev selection;
- a parse of four dev sentences by each trained model;
- ``conjparse gradcheck`` on its bundled fixture.

The record holds the sha256 of each model's bytes, of each parse's CoNLL
output and of the gradient-check report, each run's epoch losses, and the
numpy and BLAS build it was made with: the bits hold for that build only.
Model bits also depend on the BLAS thread count, so the run sets
``OPENBLAS_NUM_THREADS=1`` before numpy loads.

    python3 tools/record_golden.py           # rewrite tests/data/golden.json
    python3 tools/record_golden.py --print   # print the record, write nothing

A change that moves the record changes rounding or behaviour: re-record,
and report the change with dev LAS and conj Rel+Att F1 before and after.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from typing import List, Sequence  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conjparse import cli, training  # noqa: E402
from conjparse.model import Hyperparams, Model, Vocabulary  # noqa: E402
from conjparse.parser import parse_corpus  # noqa: E402
from conjparse.resources import (EmbeddingTable, FeatureResources,  # noqa: E402
                                 LemmaLexicon, SentimentLexicon)
from conjparse.treebank import (LabelInventory, Sentence, Token,  # noqa: E402
                                is_projective, read_conll, validate_tree,
                                write_conll)

DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "data" / "golden.json"
SEED = 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def long_sentence(rng: random.Random, tokens: Sequence[Token], n: int) -> Sentence:
    """A projective tree over ``n`` tokens copied from ``tokens``.

    Each span picks its root at random and hangs the spans on either side
    of it off that root, so every subtree is contiguous.
    """
    heads = [0] * (n + 1)
    spans = [(1, n, 0)]
    while spans:
        low, high, head = spans.pop()
        if low <= high:
            root = rng.randint(low, high)
            heads[root] = head
            spans += [(low, root - 1, root), (root + 1, high, root)]
    picks = [rng.choice(tokens) for _ in range(n)]
    sentence = Sentence(tuple(
        Token(i, tok.form, tok.pos, heads[i], tok.gold_label, tok.lemma)
        for i, tok in enumerate(picks, start=1)))
    validate_tree(sentence)
    assert is_projective(sentence)
    return sentence


def _model_bytes(model: Model) -> bytes:
    buffer = io.BytesIO()
    model.save(buffer)
    return buffer.getvalue()


def record() -> dict:
    resources = FeatureResources(
        lemmas=LemmaLexicon.load(DATA / "lemmas.tsv"),
        sentiment=SentimentLexicon.load(DATA / "sentiment_positive.txt",
                                        DATA / "sentiment_negative.txt"),
        embeddings=EmbeddingTable.load(DATA / "embeddings_sample.txt"),
    )
    sample = [s for s in read_conll(DATA / "sample_treebank.conllx") if is_projective(s)]
    tokens: List[Token] = [tok for sentence in sample[:40] for tok in sentence]
    train = sample[:6] + [long_sentence(random.Random(SEED), tokens, 24)]
    dev = sample[200:204]
    out: dict = {}
    for batch_size in (1, 2):
        model = Model.build(Hyperparams(batch_size=batch_size),
                            Vocabulary.from_corpus(train),
                            LabelInventory.from_sentences(train),
                            pretrained=resources.embeddings, seed=SEED)
        result = training.train_model(model, train, resources, epochs=2, seed=SEED,
                                      dev_sentences=dev)
        parsed = parse_corpus(dev, model, resources)
        out[f"batch_size_{batch_size}"] = {
            "epoch_losses": [repr(epoch.loss) for epoch in result.history],
            "model_sha256": _sha256(_model_bytes(model)),
            "conll_sha256": _sha256(write_conll(parsed, use_predicted=True)),
        }
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(["gradcheck", "--seed", str(SEED)])
    out["gradcheck"] = {"exit_code": code,
                        "report_sha256": _sha256(report.getvalue().encode())}
    # The bits hold for one numpy and BLAS build; a mismatch names them.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["build"] = {"numpy": np.__version__,
                    "blas": f"{blas.get('name')} {blas.get('version')}"}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--print", action="store_true",
                        help="print the record as JSON instead of writing it")
    args = parser.parse_args(argv)
    text = json.dumps(record(), indent=2, sort_keys=True) + "\n"
    if args.print:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
