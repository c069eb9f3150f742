"""CoNLL treebank reading, writing and tree validation; output files.

Supports the tabular CoNLL-X and CoNLL-U formats.  A token is an immutable
named tuple, built from its line in the one pass that reads the file.
Sentences are validated on read, in time linear in their length: gold
heads must form a single tree hanging off the artificial root node 0, with
exactly one token attached to the root.  Non-tree input is rejected rather
than repaired, because silently repaired trees corrupt any evaluation run
on them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

ROOT_ID = 0
ROOT_FORM = "*root*"
ROOT_POS = "*root*"

MISSING = "_"


class ConllError(ValueError):
    """Base class for treebank input problems."""


class ConllParseError(ConllError):
    """A line could not be parsed (wrong column count, bad integer, ...)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TreeStructureError(ConllError):
    """Heads of a sentence do not form a single tree rooted at node 0."""

    def __init__(self, message: str, sentence_index: int):
        super().__init__(f"sentence {sentence_index}: {message}")
        self.sentence_index = sentence_index


class Token(NamedTuple):
    """One word of a sentence with gold and (optional) predicted annotation.

    ``id`` is the 1-based position, ``gold_head`` the 0-based head id where
    0 denotes the artificial root.  A token is an immutable named tuple: it
    compares equal to the tuple of its fields.
    """

    id: int
    form: str
    pos: str
    gold_head: int
    gold_label: str
    lemma: Optional[str] = None
    pred_head: Optional[int] = None
    pred_label: Optional[str] = None


@dataclass(frozen=True)
class Sentence:
    """An ordered token sequence; the root node 0 is implicit."""

    tokens: Tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def token(self, token_id: int) -> Token:
        """Return the token with the given 1-based id."""
        return self.tokens[token_id - 1]

    def form_of(self, node_id: int) -> str:
        return ROOT_FORM if node_id == ROOT_ID else self.token(node_id).form

    def pos_of(self, node_id: int) -> str:
        return ROOT_POS if node_id == ROOT_ID else self.token(node_id).pos

    def gold_children(self) -> dict:
        """Map each node id (including 0) to the ids of its gold dependents."""
        children: dict = {ROOT_ID: []}
        for tok in self.tokens:
            children.setdefault(tok.id, [])
            children.setdefault(tok.gold_head, []).append(tok.id)
        return children

    def with_predictions(self, heads: Sequence[int], labels: Sequence[str]) -> "Sentence":
        if len(heads) != len(self.tokens) or len(labels) != len(self.tokens):
            raise ValueError("prediction length does not match sentence length")
        return Sentence(tuple(
            Token(tok.id, tok.form, tok.pos, tok.gold_head, tok.gold_label,
                  tok.lemma, head, label)
            for tok, head, label in zip(self.tokens, heads, labels)))


@dataclass(frozen=True)
class LabelInventory:
    """The ordered set of relation labels a parser can produce."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in inventory")

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> "LabelInventory":
        seen = {tok.gold_label for sent in sentences for tok in sent}
        return cls(tuple(sorted(seen)))


def validate_tree(sentence: Sentence, sentence_index: int = 0) -> None:
    """Raise TreeStructureError unless gold heads form a single rooted tree.

    Token ids must run 1..n in order, as ``read_conll`` requires.
    """
    _check_tree([-1] + [tok.gold_head for tok in sentence.tokens], sentence_index)


def _check_tree(heads: List[int], sentence_index: int) -> None:
    """``validate_tree`` on ``heads``, where ``heads[i]`` is token i's head.

    The first fault is reported in this order: a token that heads itself
    or has a head outside 0..n, then the count of root children, then a
    cycle.  ``heads[0]`` is never read.
    """
    n = len(heads) - 1
    for dep in range(1, n + 1):
        head = heads[dep]
        if head == dep:
            raise TreeStructureError(f"token {dep} is its own head", sentence_index)
        if not 0 <= head <= n:
            raise TreeStructureError(
                f"token {dep} has head {head} outside 0..{n}", sentence_index)
    root_children = heads.count(ROOT_ID)
    if n and root_children == 0:
        raise TreeStructureError("no token attached to the root", sentence_index)
    if root_children > 1:
        raise TreeStructureError(
            f"{root_children} tokens attached to the root", sentence_index
        )
    # Every node must reach the root.  The walk from each token in turn
    # marks the nodes it passes with its start, and stops at a marked node:
    # one marked by an earlier walk, which did reach the root, or one of
    # its own, a cycle.  So no node is walked twice, and the node named is
    # the one the walk from each token in turn revisits first.
    marks = [0] * (n + 1)
    marks[ROOT_ID] = -1
    for start in range(1, n + 1):
        node = start
        while not marks[node]:
            marks[node] = start
            node = heads[node]
        if marks[node] == start:
            raise TreeStructureError(f"cycle through token {node}", sentence_index)


def is_projective(sentence: Sentence) -> bool:
    """True iff no token between a head and its dependent escapes their span.

    For a tree that is the same as no two arcs crossing, the root's arc
    included, which one left-to-right pass checks in linear time: arcs
    open at their left end, longest first, and must close at their right
    end in the reverse order.
    """
    n = len(sentence.tokens)
    left_ends: List[List[int]] = [[] for _ in range(n + 1)]
    for tok in sentence.tokens:
        if tok.gold_head < tok.id:
            left_ends[tok.id].append(tok.gold_head)
        elif tok.gold_head > tok.id:
            left_ends[tok.gold_head].append(tok.id)
    # The arcs' right ends by left end, the farthest first.
    right_ends: List[List[int]] = [[] for _ in range(n + 1)]
    for right in range(n, 0, -1):
        for left in left_ends[right]:
            right_ends[left].append(right)
    open_arcs: List[int] = []
    for position in range(n + 1):
        for _ in left_ends[position]:
            if open_arcs.pop() != position:
                return False
        open_arcs.extend(right_ends[position])
    return True


def decode_text(source) -> str:
    """The text of ``bytes`` or of a file; not UTF-8 is a ``ConllError``."""
    if isinstance(source, bytes):
        data, where = source, ""
    else:
        with open(source, "rb") as handle:
            data = handle.read()
        where = f"{source}, "
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        raise ConllError(f"{where}line {line_number}: not valid UTF-8") from None


def _sentence(tokens: List[Token], index: int, require_tree: bool) -> Sentence:
    """The sentence of ``tokens``, checked as ``read_conll`` documents."""
    n = len(tokens)
    heads = [-1]
    for position, tok in enumerate(tokens, start=1):
        if tok.id != position:
            raise TreeStructureError(f"token ids not consecutive at {tok.id}", index)
        heads.append(tok.gold_head)
    if max(heads) > n:
        tok = next(tok for tok in tokens if tok.gold_head > n)
        raise TreeStructureError(
            f"token {tok.id} has head {tok.gold_head} beyond sentence length {n}",
            index,
        )
    if require_tree:
        _check_tree(heads, index)
    return Sentence(tuple(tokens))


def read_conll(source, fmt: str = "conllx", require_tree: bool = True) -> List[Sentence]:
    """Parse CoNLL-X or CoNLL-U data from a file path or from ``bytes``.

    Comment lines and, in conllu mode, multiword-range / empty-node lines
    are skipped.  A line's columns are checked as it is read; a sentence's
    token ids must run 1..n and no head may exceed n.  With
    ``require_tree`` every sentence is validated as a single rooted tree
    (predicted parses being evaluated may disable it).  A line or tree
    error in a file names the file first: ``PATH, line 3: ...``.
    """
    if fmt not in ("conllx", "conllu"):
        raise ValueError(f"unknown format {fmt!r}")
    conllu = fmt == "conllu"
    sentences: List[Sentence] = []
    tokens: List[Token] = []
    try:
        for line_number, line in enumerate(decode_text(source).split("\n"), start=1):
            line = line.rstrip("\r")
            if not line or line.isspace():
                if tokens:
                    sentences.append(_sentence(tokens, len(sentences), require_tree))
                    tokens = []
                continue
            if line[0] == "#":
                continue
            parts = line.split("\t")
            if conllu:
                if len(parts) != 10:
                    raise ConllParseError(f"expected 10 columns, got {len(parts)}",
                                          line_number)
                if "-" in parts[0] or "." in parts[0]:
                    continue  # multiword ranges and empty nodes carry no tree arcs
            elif not 8 <= len(parts) <= 10:
                raise ConllParseError(f"expected 8-10 columns, got {len(parts)}",
                                      line_number)
            try:
                token_id = int(parts[0])
            except ValueError:
                raise ConllParseError(f"bad token id {parts[0]!r}", line_number) from None
            form = parts[1]
            if not form:
                raise ConllParseError("empty FORM column", line_number)
            lemma = parts[2]
            pos = parts[4]
            if pos == MISSING:
                pos = parts[3]
            try:
                head = int(parts[6])
            except ValueError:
                raise ConllParseError(f"bad head {parts[6]!r}", line_number) from None
            tokens.append(Token(token_id, form, pos, head, parts[7],
                                None if lemma == MISSING else lemma))
        if tokens:
            sentences.append(_sentence(tokens, len(sentences), require_tree))
    except (ConllParseError, TreeStructureError) as exc:
        if not isinstance(source, bytes):
            exc.args = (f"{source}, {exc}",)
        raise
    return sentences


def write_conll(sentences: Sequence[Sentence], use_predicted: bool = False) -> bytes:
    """Serialize sentences back to tabular CoNLL, LF line endings, UTF-8.

    With ``use_predicted`` the predicted head/label pair is written to the
    HEAD/DEPREL columns; every token must then carry a prediction.
    """
    out = io.StringIO()
    for index, sent in enumerate(sentences):
        for tok in sent:
            if use_predicted:
                if tok.pred_head is None or tok.pred_label is None:
                    raise ValueError(
                        f"sentence {index}, token {tok.id} ({tok.form!r}) "
                        "has no prediction"
                    )
                head, label = tok.pred_head, tok.pred_label
            else:
                head, label = tok.gold_head, tok.gold_label
            lemma = tok.lemma if tok.lemma is not None else MISSING
            # The POS tag goes to both the coarse and fine columns, so a
            # round-trip through either format reads back the same tag.
            cols = [str(tok.id), tok.form, lemma, tok.pos, tok.pos,
                    MISSING, str(head), label, MISSING, MISSING]
            out.write("\t".join(cols))
            out.write("\n")
        out.write("\n")
    return out.getvalue().encode("utf-8")


class OutputError(OSError):
    """An output file that could not be opened, written or committed."""


class OutputFile:
    """``with OutputFile(path) as output:`` opens a new file beside ``path``,
    which the block writes through ``output.write``; it replaces ``path`` in
    one rename when the block ends, and is removed when the block raises,
    Ctrl-C included.  An ``OSError`` in opening, writing or renaming is
    raised as an ``OutputError`` naming ``path``.  A path that exists and
    is not a regular file (a device, a pipe, a directory) is opened in
    place; a symbolic link's target is replaced, not the link.
    """

    def __init__(self, path):
        self.path = path

    def __enter__(self) -> "OutputFile":
        in_place = os.path.exists(self.path) and not os.path.isfile(self.path)
        self._target = os.path.realpath(self.path)
        self._temporary = (None if in_place else
                           f"{self._target}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            self._handle = open(self._temporary or self.path, "wb" if in_place else "xb")
        except OSError as exc:
            raise self._error(exc) from None
        return self

    def write(self, data) -> int:
        try:
            return self._handle.write(data)
        except OSError as exc:
            raise self._error(exc) from None

    def __exit__(self, kind, value, traceback) -> None:
        try:
            if kind is None:
                self._handle.close()
                if self._temporary is not None:
                    os.replace(self._temporary, self._target)
                    self._temporary = None
        except OSError as exc:
            raise self._error(exc) from None
        finally:
            if self._temporary is not None:
                with contextlib.suppress(OSError):
                    os.remove(self._temporary)
            with contextlib.suppress(OSError):
                self._handle.close()

    def _error(self, exc: OSError) -> OutputError:
        return OutputError(exc.errno, exc.strerror, os.fspath(self.path))
