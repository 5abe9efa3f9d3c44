"""Term-document matrix construction and per-cell statistics.

A collection of documents is reduced to an immutable sparse matrix of
nonnegative integer counts: rows are distinct terms, columns are documents.
Every statistic used elsewhere in the package (totals, document frequencies,
proportions) is derived from these integers on demand; floats are never
cached in the matrix.
"""

from __future__ import annotations

import csv
import json
import os
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from operator import ge
from pathlib import Path
from typing import Generator, Iterable, Iterator, NamedTuple, TextIO

from .errors import (
    DuplicateCellError,
    DuplicateDocIdError,
    EmptyCollectionError,
    IndexOutOfRangeError,
    InputFormatError,
    InvalidColumnError,
    NegativeCountError,
)

# Tokens are maximal runs of alphanumeric characters (Unicode-aware, underscore
# excluded); everything else separates.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

COUNTS_CSV_HEADER = ("term", "doc", "count")


def tokenize(text: str, *, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Split text into bag-of-words tokens.

    Deterministic: lowercase, split on any maximal run of non-alphanumeric
    characters, drop empties, then drop stopwords.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


class _CellCounts(NamedTuple):
    n_ij: int  # occurrences of the term in the document
    n_i: int   # occurrences of the term in the collection
    n_j: int   # terms in the document
    n: int     # terms in the collection
    b_i: int   # documents containing the term
    d: int     # documents in the collection


class CellStats(_CellCounts):
    """Full statistics bundle for one (term, document) cell: an immutable tuple
    of exact integers, checked however it is built (the constructor, _make or
    _replace). The proportion properties are derived at access time."""

    __slots__ = ()

    def __new__(cls, n_ij: int, n_i: int, n_j: int, n: int, b_i: int, d: int) -> "CellStats":
        if n < 1 or d < 1:
            raise ValueError("collection must contain at least one term and one document")
        if min(n_ij, n_i, n_j, b_i) < 0:
            raise ValueError("counts must be nonnegative")
        if n_ij > min(n_i, n_j):
            raise ValueError("n_ij cannot exceed min(n_i, n_j)")
        if n_i > n or n_j > n:
            raise ValueError("marginal totals cannot exceed the grand total")
        if not 1 <= b_i <= d:
            raise ValueError("b_i must lie in [1, d]")
        if b_i > n_i:
            raise ValueError("b_i cannot exceed n_i")  # each of b_i documents holds the term
        return tuple.__new__(cls, (n_ij, n_i, n_j, n, b_i, d))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "CellStats":
        return cls(*iterable)  # through __new__, and so is _replace

    @property
    def p_ij(self) -> float:
        """Proportion of the document made up by the term."""
        return self.n_ij / self.n_j

    @property
    def p_i(self) -> float:
        """Proportion of the collection made up by the term."""
        return self.n_i / self.n


class _Column(NamedTuple):
    """One document's column: its term indices in ascending order and their
    counts, two tuples of one length. Only _compact makes one, so the indices
    are distinct and sorted."""

    indices: tuple[int, ...]
    counts: tuple[int, ...]


def _compact(column: Mapping[int, int]) -> _Column:
    """A mapping from term index to count as a column, its zeros kept."""
    indices = sorted(column)
    return _Column(tuple(indices), tuple(map(column.__getitem__, indices)))


def _pair(column: object, j: int) -> _Column:
    """A plain (indices, counts) pair as column j, its zeros kept."""
    try:
        indices, counts = map(tuple, column)
    except (TypeError, ValueError):
        raise InvalidColumnError(f"column {j} is neither a mapping nor an (indices, counts) pair") from None
    if len(indices) != len(counts):
        raise InvalidColumnError(f"column {j}: {len(indices)} indices for {len(counts)} counts")
    if any(map(ge, indices, indices[1:])):
        raise InvalidColumnError(f"column {j}: term indices do not strictly ascend")
    return _Column(indices, counts)


class TermDocumentMatrix:
    """Immutable sparse count matrix with term/document registries.

    Registries keep first-seen order, which fixes all output orderings.
    Every term must have a positive total, or the constructor raises
    EmptyCollectionError (ingest_counts drops zero-total terms before it
    builds the matrix); documents are retained even when empty (they still
    count toward d). Counts are stored by column: per document, two tuples
    in ascending term order, the term indices of its positive counts and the
    counts, which matrix.columns[j] gives as the named pair (indices, counts).
    The constructor takes any iterable of one mapping from term index to
    count, or one pair shaped as matrix.columns[j] (InvalidColumnError if it
    is not one), per document and draws them one at a time; it validates
    every cell and stores each column sorted and without its zeros.
    A column that the ingest functions compacted, as each document is read,
    is kept as it is unless it holds a zero, so the hand-over makes no copy.
    """

    def __init__(self, vocab: Iterable[str], docs: Iterable[str], columns: Iterable[Mapping[int, int] | tuple]):
        self._vocab: tuple[str, ...] = tuple(vocab)
        self._docs: tuple[str, ...] = tuple(docs)

        m, d = len(self._vocab), len(self._docs)
        if m < 1 or d < 1:
            raise EmptyCollectionError("matrix must contain at least one term and one document")
        row = [0] * m
        freq = [0] * m
        stored: list[_Column] = []
        for j, column in enumerate(columns):
            if type(column) is not _Column:
                column = _compact(column) if isinstance(column, Mapping) else _pair(column, j)
            indices, counts = column
            if indices and not (0 <= indices[0] and indices[-1] < m):
                i = indices[0] if indices[0] < 0 else indices[-1]
                raise IndexOutOfRangeError(f"cell ({i}, {j}) outside {m}x{d} matrix")
            if counts and min(counts) <= 0:
                i = next((i for i, c in zip(indices, counts) if c < 0), None)
                if i is not None:
                    raise NegativeCountError(f"negative count at cell ({i}, {j})")
                column = _compact({i: c for i, c in zip(indices, counts) if c})
                indices, counts = column
            for i, c in zip(indices, counts):
                row[i] += c
                freq[i] += 1
            stored.append(column)
        if len(stored) != d:
            raise IndexOutOfRangeError(f"{len(stored)} columns for {d} documents")
        if 0 in row:
            raise EmptyCollectionError("every retained term must have a positive total")
        self._columns = tuple(stored)
        self._row_totals = tuple(row)
        self._col_totals = tuple(sum(column.counts) for column in stored)
        self._doc_freq = tuple(freq)
        self._grand_total = sum(row)

    # -- registries ---------------------------------------------------------

    @property
    def vocab(self) -> tuple[str, ...]:
        return self._vocab

    @property
    def docs(self) -> tuple[str, ...]:
        return self._docs

    @property
    def m(self) -> int:
        return len(self._vocab)

    @property
    def d(self) -> int:
        return len(self._docs)

    # -- totals -------------------------------------------------------------

    @property
    def row_totals(self) -> tuple[int, ...]:
        """n_i per term."""
        return self._row_totals

    @property
    def col_totals(self) -> tuple[int, ...]:
        """n_j per document."""
        return self._col_totals

    @property
    def doc_freq(self) -> tuple[int, ...]:
        """b_i per term: number of documents with a positive count."""
        return self._doc_freq

    @property
    def grand_total(self) -> int:
        """n: total term occurrences in the collection."""
        return self._grand_total

    # -- cells --------------------------------------------------------------

    @property
    def columns(self) -> tuple[_Column, ...]:
        """Per document, the pair (indices, counts): the term indices of its
        positive counts, ascending, and the counts."""
        return self._columns

    def cell_stats(self, i: int, j: int) -> CellStats:
        """All integer totals and derived proportions for cell (i, j)."""
        if not 0 <= i < self.m:
            raise IndexOutOfRangeError(f"term index {i} outside [0, {self.m})")
        if not 0 <= j < self.d:
            raise IndexOutOfRangeError(f"document index {j} outside [0, {self.d})")
        column = self._columns[j]
        k = bisect_left(column.indices, i)  # where the cell is, if it is stored
        stored = k < len(column.indices) and column.indices[k] == i
        return CellStats(
            n_ij=column.counts[k] if stored else 0,
            n_i=self._row_totals[i],
            n_j=self._col_totals[j],
            n=self._grand_total,
            b_i=self._doc_freq[i],
            d=self.d,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermDocumentMatrix):
            return NotImplemented
        return (
            self._vocab == other._vocab
            and self._docs == other._docs
            and self._columns == other._columns
        )

    def __repr__(self) -> str:
        return f"TermDocumentMatrix(m={self.m}, d={self.d}, n={self._grand_total})"


def ingest_text(
    documents: Iterable[tuple[str, str]],
    *,
    stopwords: frozenset[str] = frozenset(),
) -> TermDocumentMatrix:
    """Build a matrix from (doc id, raw text) pairs.

    Token order within documents is discarded. Documents that tokenize to
    nothing are retained with an empty column. Each document's column is
    compacted as soon as its text is tokenized.
    """
    terms: dict[str, int] = {}  # term -> row index, in first-seen order
    docs: dict[str, _Column] = {}  # doc id -> its column, in input order

    for doc_id, text in documents:
        if doc_id in docs:
            raise DuplicateDocIdError(f"duplicate document id {doc_id!r}")
        column = {}
        for token, count in Counter(tokenize(text, stopwords=stopwords)).items():
            i = terms.get(token)
            if i is None:
                i = terms[token] = len(terms)
            column[i] = count
        docs[doc_id] = _compact(column)

    if not docs:
        raise EmptyCollectionError("no documents provided")
    if not terms:
        raise EmptyCollectionError("no tokens survived tokenization")
    return TermDocumentMatrix(terms, docs, docs.values())


def ingest_counts(rows: Iterable[tuple[str, str, int]]) -> TermDocumentMatrix:
    """Build a matrix from explicit (term, doc, count) rows.

    Counts must be nonnegative and (term, doc) pairs unique. Zero rows
    register the document (and establish mention order) but contribute no
    occurrences; terms whose total ends up zero are dropped from the
    vocabulary.

    Only the document being read is held as a dict: when the rows move on to
    another document, its column is compacted. A document whose rows come
    back later is reopened as a dict and stays one to the end, so rows that
    alternate between documents cost no more than one dict per document.
    """
    terms: dict[str, int] = {}  # term -> row index, in first-seen order
    totals: list[int] = []
    docs: dict[str, dict[int, int] | _Column] = {}  # doc -> its column, in first-seen order
    doc = column = None  # the document being read, and its dict
    fresh = False  # its first row began this run of rows, so the run's end compacts it

    for term, row_doc, count in rows:
        if count < 0:
            raise NegativeCountError(f"negative count {count} for ({term!r}, {row_doc!r})")
        i = terms.get(term)
        if i is None:
            i = terms[term] = len(totals)
            totals.append(0)
        if row_doc != doc:
            if fresh:
                docs[doc] = _compact(column)
            doc, column = row_doc, docs.get(row_doc)
            fresh = column is None
            if fresh:
                column = docs[doc] = {}
            elif type(column) is _Column:
                column = docs[doc] = dict(zip(*column))
        if i in column:
            raise DuplicateCellError(f"duplicate cell ({term!r}, {doc!r})")
        column[i] = count
        totals[i] += count

    if not docs:
        raise EmptyCollectionError("no count rows provided")
    if fresh:
        docs[doc] = _compact(column)
    kept = [i for i, total in enumerate(totals) if total > 0]
    if not kept:
        raise EmptyCollectionError("all terms have zero total count")
    ids = tuple(docs)
    columns = (docs.pop(doc) for doc in ids)  # a reopened dict freed once compacted
    if len(kept) == len(totals):
        return TermDocumentMatrix(terms, ids, columns)
    # renumber; the matrix itself drops zero cells
    remap = {i: new_i for new_i, i in enumerate(kept)}
    pairs = (zip(*column) if type(column) is _Column else column.items() for column in columns)
    renumbered = ({remap[i]: c for i, c in cells if i in remap} for cells in pairs)
    return TermDocumentMatrix([t for t, i in terms.items() if totals[i]], ids, renumbered)


# -- file formats -------------------------------------------------------------


@contextmanager
def open_text(path: str | Path, newline: str | None) -> Iterator[Iterator[str]]:
    """The lines of a UTF-8 text file (newline as in open()), each checked as it
    is read: the first line that holds bytes that are not UTF-8 raises
    InputFormatError at that line, so a fault on an earlier line is met first."""
    path = Path(path)
    # surrogateescape turns each undecodable byte into a lone surrogate
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline=newline) as handle:
        yield _utf8_lines(handle, path)


def _utf8_lines(handle: TextIO, path: Path) -> Iterator[str]:
    for lineno, line in enumerate(handle, start=1):
        if not line.isascii():
            try:  # the line's bytes again, decoded strictly
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputFormatError(f"invalid UTF-8: {exc.reason}", path=str(path), line=lineno) from None
        yield line


def _checked_name(name: str, what: str, path: Path, line: int) -> str:
    """name, if it can be written as one TSV field; else InputFormatError.

    A name may not hold what would break a TSV row (tab, CR, LF) or what
    UTF-8 cannot encode (a lone surrogate). None of these is printable, so
    most names pass on the first test.
    """
    if not name.isprintable():
        for char in name:
            if char in "\t\n\r" or "\ud800" <= char <= "\udfff":
                raise InputFormatError(
                    f"{what} {name!r} holds {char!r}: a name may not hold a tab, CR, LF "
                    "or lone surrogate (bytes that are not UTF-8)",
                    path=str(path),
                    line=line,
                )
    return name


def csv_rows(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Each nonblank record after the exact header at line 1, with the physical
    line it starts on (a quoted field may hold a newline, so records and lines
    can differ). A wrong header, or a record the csv module cannot read, raises
    InputFormatError at its line, naming path as the caller passed it."""
    with open_text(path, "") as lines:
        reader = csv.reader(lines)
        line = 1
        try:
            first = next(reader, None)
            if first is None or tuple(first) != header:
                raise InputFormatError(
                    f"expected header {','.join(header)!r}, got {first!r}", path=str(path), line=1
                )
            line = reader.line_num + 1
            for row in reader:
                if row:
                    yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise InputFormatError(f"unreadable CSV record: {exc}", path=str(path), line=line) from None


def ascii_int(raw: str) -> int:
    """int(raw) for ASCII digits after an optional '-'; ValueError for anything
    else, such as what int() alone would also take (' 2', '1_0', '+2', the
    digits of other scripts) or more digits than int() converts."""
    if raw.isascii() and raw.removeprefix("-").isdigit():
        return int(raw)
    raise ValueError(f"not an integer in ASCII digits: {raw!r}")


def ascii_float(raw: str) -> float:
    """float(raw) for ASCII text with no '_', no leading '+' and no surrounding
    whitespace; ValueError for anything else, such as what float() alone would
    also take (' 0.2', '1_0e-1', '+0.2', the digits of other scripts)."""
    if raw.isascii() and raw == raw.strip() and "_" not in raw and not raw.startswith("+"):
        return float(raw)
    raise ValueError(f"not a number in ASCII: {raw!r}")


def read_counts_csv(path: str | Path) -> Generator[tuple[str, str, int], None, None]:
    """Yield the rows of a counts CSV with the exact header term,doc,count.

    Each distinct term or doc name is checked once and kept as one string
    object, which every row that repeats it shares; each distinct count
    string is parsed once. A DuplicateCellError thrown in at a row's yield
    (ingest_counts found it repeats a pair) is raised as InputFormatError at
    that row's line.
    """
    path = Path(path)
    names: dict[str, str] = {}
    counts: dict[str, int] = {}
    for lineno, row in csv_rows(path, COUNTS_CSV_HEADER):
        if len(row) != 3:
            raise InputFormatError(f"expected 3 fields, got {len(row)}", path=str(path), line=lineno)
        term, doc, raw = row
        count = counts.get(raw)
        if count is None:
            try:
                count = counts[raw] = ascii_int(raw)
            except ValueError:
                raise InputFormatError(
                    f"count {raw!r} is not an integer", path=str(path), line=lineno
                ) from None
        if count < 0:
            raise InputFormatError(f"count {count} is negative", path=str(path), line=lineno)
        if term not in names:
            names[term] = _checked_name(term, "term", path, lineno)
        if doc not in names:
            names[doc] = _checked_name(doc, "doc", path, lineno)
        try:
            yield names[term], names[doc], count
        except DuplicateCellError as exc:
            raise InputFormatError(str(exc), path=str(path), line=lineno) from None


def read_corpus_jsonl(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (id, text) for each line of a corpus JSONL file: one object per
    line with id and text; the first fault in file order is reported, at its
    line. A DuplicateDocIdError thrown in at a line's yield (ingest_text found
    it repeats an id) is raised as InputFormatError at that line."""
    path = Path(path)
    with open_text(path, None) as lines:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError holds JSONDecodeError and an integer past the
                # digit limit; RecursionError, nesting past the stack
                raise InputFormatError(
                    f"invalid JSON: {getattr(exc, 'msg', exc)}", path=str(path), line=lineno
                ) from None
            if not isinstance(obj, dict) or not isinstance(obj.get("id"), str) or not isinstance(obj.get("text"), str):
                raise InputFormatError(
                    "each line must be an object with string fields 'id' and 'text'",
                    path=str(path),
                    line=lineno,
                )
            try:
                yield _checked_name(obj["id"], "id", path, lineno), obj["text"]
            except DuplicateDocIdError as exc:
                raise InputFormatError(str(exc), path=str(path), line=lineno) from None


def read_text_dir(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (stem, text) for every .txt file in a directory, in name order.

    A missing path or one that is not a directory raises the matching OSError
    on first iteration. A file name holding a tab, CR, LF or bytes that are
    not UTF-8 raises InputFormatError at the directory, and so does a
    DuplicateDocIdError thrown in at a file's yield (ingest_text found a
    second file of its stem, as ".txt" and ".txt.txt").
    """
    path = Path(path)
    for name in sorted(os.listdir(path)):
        if name.endswith(".txt"):
            file = path / _checked_name(name, "file name", path, 0)
            with open_text(file, None) as lines:
                text = "".join(lines)
            try:
                yield file.stem, text
            except DuplicateDocIdError as exc:
                raise InputFormatError(str(exc), path=str(path)) from None


def read_stopwords(path: str | Path) -> frozenset[str]:
    """One stopword per line; blanks skipped; lowercased to match tokenization."""
    words = set()
    with open_text(path, None) as lines:
        for line in lines:
            word = line.strip().lower()
            if word:
                words.add(word)
    return frozenset(words)
