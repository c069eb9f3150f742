"""Per-line treebank and embedding readers, kept as references.

``conjparse.treebank.read_conll`` parses each line inline and checks a
sentence in linear time; ``conjparse.resources.EmbeddingTable.load``
parses a whole file into one table and checks it at once.  The plain
versions below parse, check and build one line and one record at a time,
in the order a reader meets them, so the tests can require the same
records, bits, exception classes and messages from both.  The
projectivity check below scans each arc's span, where the library's makes
one linear pass.

The embedding reference strips trailing whitespace from each line before
splitting it, as the library does, so that word2vec's text files (a space
after each vector) read alike.
"""

import math
from typing import Dict, List, Optional

import numpy as np

from conjparse.resources import ResourceError, _numbered_lines
from conjparse.treebank import (
    MISSING,
    ROOT_ID,
    ConllParseError,
    Sentence,
    Token,
    TreeStructureError,
    decode_text,
)


def is_projective(sentence: Sentence) -> bool:
    """True iff no token between a head and its dependent escapes their span.

    Scans every token inside each arc's span: quadratic at worst.
    """
    heads = {tok.id: tok.gold_head for tok in sentence.tokens}
    for tok in sentence.tokens:
        lo, hi = sorted((tok.gold_head, tok.id))
        for inner in range(lo + 1, hi):
            if not lo <= heads[inner] <= hi:
                return False
    return True


def validate_tree(sentence: Sentence, sentence_index: int = 0) -> None:
    """Raise TreeStructureError unless gold heads form a single rooted tree."""
    n = len(sentence)
    root_children = 0
    for tok in sentence.tokens:
        if tok.gold_head == tok.id:
            raise TreeStructureError(f"token {tok.id} is its own head", sentence_index)
        if not 0 <= tok.gold_head <= n:
            raise TreeStructureError(
                f"token {tok.id} has head {tok.gold_head} outside 0..{n}",
                sentence_index,
            )
        if tok.gold_head == ROOT_ID:
            root_children += 1
    if n and root_children == 0:
        raise TreeStructureError("no token attached to the root", sentence_index)
    if root_children > 1:
        raise TreeStructureError(
            f"{root_children} tokens attached to the root", sentence_index
        )
    # Cycle check: every node must reach the root.
    heads = {tok.id: tok.gold_head for tok in sentence.tokens}
    for tok in sentence.tokens:
        seen = set()
        node = tok.id
        while node != ROOT_ID:
            if node in seen:
                raise TreeStructureError(
                    f"cycle through token {node}", sentence_index
                )
            seen.add(node)
            node = heads[node]


_CONLLX_MIN_COLUMNS = 8
_CONLLU_COLUMNS = 10


def _parse_token_line(parts: List[str], fmt: str, line_number: int) -> Optional[Token]:
    if fmt == "conllu":
        if len(parts) != _CONLLU_COLUMNS:
            raise ConllParseError(
                f"expected {_CONLLU_COLUMNS} columns, got {len(parts)}", line_number
            )
        if "-" in parts[0] or "." in parts[0]:
            return None  # multiword ranges and empty nodes carry no tree arcs
    else:
        if not _CONLLX_MIN_COLUMNS <= len(parts) <= 10:
            raise ConllParseError(
                f"expected {_CONLLX_MIN_COLUMNS}-10 columns, got {len(parts)}",
                line_number,
            )
    try:
        token_id = int(parts[0])
    except ValueError:
        raise ConllParseError(f"bad token id {parts[0]!r}", line_number) from None
    form = parts[1]
    if not form:
        raise ConllParseError("empty FORM column", line_number)
    lemma = None if parts[2] == MISSING else parts[2]
    coarse, fine = parts[3], parts[4]
    pos = fine if fine != MISSING else coarse
    try:
        head = int(parts[6])
    except ValueError:
        raise ConllParseError(f"bad head {parts[6]!r}", line_number) from None
    label = parts[7]
    return Token(id=token_id, form=form, pos=pos, gold_head=head,
                 gold_label=label, lemma=lemma)


def read_conll(source, fmt: str = "conllx", require_tree: bool = True) -> List[Sentence]:
    """Parse CoNLL-X or CoNLL-U data from a file path or from ``bytes``."""
    if fmt not in ("conllx", "conllu"):
        raise ValueError(f"unknown format {fmt!r}")
    sentences: List[Sentence] = []
    tokens: List[Token] = []

    def finish():
        if not tokens:
            return
        index = len(sentences)
        for position, tok in enumerate(tokens, start=1):
            if tok.id != position:
                raise TreeStructureError(
                    f"token ids not consecutive at {tok.id}", index
                )
        sent = Sentence(tuple(tokens))
        for tok in tokens:
            if tok.gold_head > len(sent):
                raise TreeStructureError(
                    f"token {tok.id} has head {tok.gold_head} beyond sentence "
                    f"length {len(sent)}",
                    index,
                )
        if require_tree:
            validate_tree(sent, index)
        sentences.append(sent)
        tokens.clear()

    for line_number, raw in enumerate(decode_text(source).split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            finish()
            continue
        if line.startswith("#"):
            continue
        tok = _parse_token_line(line.split("\t"), fmt, line_number)
        if tok is not None:
            tokens.append(tok)
    finish()
    return sentences


def load_embeddings(path):
    """(vectors by word, dim, norms by word) of an embedding text file."""
    vectors: Dict[str, np.ndarray] = {}
    norms: Dict[str, float] = {}
    dim = None
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
        word, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ResourceError(f"{path}, line {number}: no vector values")
        elif len(values) != dim:
            raise ResourceError(
                f"{path}, line {number}: expected {dim} values, "
                f"got {len(values)}"
            )
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ResourceError(
                f"{path}, line {number}: non-numeric vector value"
            ) from None
        if not np.all(np.isfinite(vec)):
            raise ResourceError(
                f"{path}, line {number}: non-finite vector value"
            )
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm):
            raise ResourceError(f"{path}, line {number}: vector norm overflows")
        if word not in vectors:  # first entry wins
            vectors[word] = vec
            norms[word] = norm
    if dim is None:
        raise ResourceError(f"{path}: no vectors found")
    return vectors, dim, norms
