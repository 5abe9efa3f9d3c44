"""Tests for ingestion, the term-document matrix, and per-cell statistics."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_refs import embed_cell_counts, export_counts, write_counts_csv
from termfisher.corpus import (
    CellStats,
    TermDocumentMatrix,
    ingest_counts,
    ingest_text,
    read_corpus_jsonl,
    read_counts_csv,
    read_stopwords,
    read_text_dir,
    tokenize,
)
from termfisher.errors import (
    DuplicateCellError,
    DuplicateDocIdError,
    EmptyCollectionError,
    IndexOutOfRangeError,
    InputFormatError,
    InvalidColumnError,
    NegativeCountError,
    NonIntegerCellError,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The the THE") == ["the", "the", "the"]

    def test_splits_on_punctuation_runs(self):
        assert tokenize("a--b...c, d!") == ["a", "b", "c", "d"]

    def test_underscore_separates(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_digits_are_token_characters(self):
        assert tokenize("py3 2to3") == ["py3", "2to3"]

    def test_unicode_words(self):
        assert tokenize("Café CAFÉ naïve") == ["café", "café", "naïve"]

    def test_stopwords_dropped_after_lowercasing(self):
        assert tokenize("The rain", stopwords=frozenset({"the"})) == ["rain"]


class TestIngestText:
    def test_single_document_counts(self):
        matrix = ingest_text([("d1", "a b a")])
        assert matrix.m == 2
        assert matrix.cell_stats(matrix.vocab.index("a"), 0).n_ij == 2
        assert matrix.cell_stats(matrix.vocab.index("b"), 0).n_ij == 1
        assert matrix.grand_total == 3
        assert matrix.d == 1

    def test_document_frequency(self):
        matrix = ingest_text([("d1", "x"), ("d2", "x")])
        i = matrix.vocab.index("x")
        assert matrix.doc_freq[i] == 2
        assert matrix.row_totals[i] == 2
        assert matrix.d == 2

    def test_case_folding_merges_tokens(self):
        matrix = ingest_text([("d1", "The the THE")])
        assert matrix.vocab == ("the",)
        assert matrix.cell_stats(0, 0).n_ij == 3

    def test_deterministic(self):
        documents = [("d1", "pear plum pear"), ("d2", "plum quince")]
        assert ingest_text(documents) == ingest_text(documents)

    def test_duplicate_doc_id(self):
        with pytest.raises(DuplicateDocIdError):
            ingest_text([("d1", "a"), ("d1", "b")])

    def test_empty_inputs(self):
        with pytest.raises(EmptyCollectionError):
            ingest_text([])
        with pytest.raises(EmptyCollectionError):
            ingest_text([("d1", "?!...")])

    def test_empty_document_is_retained(self):
        matrix = ingest_text([("d1", "a"), ("d2", "")])
        assert matrix.d == 2
        assert matrix.col_totals == (1, 0)

    def test_first_seen_order(self):
        matrix = ingest_text([("d1", "b a"), ("d2", "c a")])
        assert matrix.vocab == ("b", "a", "c")
        assert matrix.docs == ("d1", "d2")


class TestIngestCounts:
    def test_single_cell(self):
        matrix = ingest_counts([("t", "d", 5)])
        assert (matrix.m, matrix.d, matrix.grand_total) == (1, 1, 5)
        assert matrix.doc_freq == (1,)

    def test_reference_cell_embedding(self):
        # totals n=1000, n_i=150, n_j=100, n_ij=25, b_i=4, d=20 padded with filler
        rows = embed_cell_counts(CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20))
        matrix = ingest_counts(rows)
        stats = matrix.cell_stats(matrix.vocab.index("focal"), matrix.docs.index("doc00000"))
        assert (stats.n, stats.n_i, stats.n_j, stats.n_ij) == (1000, 150, 100, 25)
        assert (stats.b_i, stats.d) == (4, 20)

    def test_zero_rows(self):
        # a zero row registers the document; zero-total terms are dropped
        matrix = ingest_counts([("t", "d1", 3), ("u", "d2", 0)])
        assert matrix.vocab == ("t",)
        assert matrix.docs == ("d1", "d2")
        with pytest.raises(EmptyCollectionError):
            ingest_counts([("t", "d", 0)])

    def test_negative_count(self):
        with pytest.raises(NegativeCountError):
            ingest_counts([("t", "d", -1)])

    def test_duplicate_cell(self):
        with pytest.raises(DuplicateCellError):
            ingest_counts([("t", "d", 1), ("t", "d", 2)])

    def test_matches_ingest_text_with_same_counts(self):
        text = ingest_text([("d1", "a a b"), ("d2", "b c")])
        counts = ingest_counts(
            [("a", "d1", 2), ("b", "d1", 1), ("b", "d2", 1), ("c", "d2", 1)]
        )
        assert text == counts


def _rejected_by_cell_stats(n_ij, n_i, n_j, n, b_i, d) -> bool:
    """The cells CellStats rejects, stated apart from its checks."""
    return (
        n < 1 or d < 1
        or min(n_ij, n_i, n_j, b_i) < 0
        or n_ij > min(n_i, n_j)
        or n_i > n or n_j > n
        or not 1 <= b_i <= d
        or b_i > n_i
    )


class TestCellStats:
    def test_proportions(self):
        stats = CellStats(n_ij=25, n_i=150, n_j=100, n=1000, b_i=4, d=20)
        assert stats.p_ij == 0.25
        assert stats.p_i == 0.15

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            CellStats(n_ij=30, n_i=20, n_j=100, n=1000, b_i=2, d=5)  # n_ij > n_i
        with pytest.raises(ValueError):
            CellStats(n_ij=5, n_i=20, n_j=100, n=90, b_i=2, d=5)  # n_j > n
        with pytest.raises(ValueError):
            CellStats(n_ij=5, n_i=20, n_j=50, n=90, b_i=6, d=5)  # b_i > d
        with pytest.raises(ValueError):
            CellStats(n_ij=5, n_i=20, n_j=50, n=90, b_i=0, d=5)  # b_i < 1

    def test_a_term_absent_from_the_collection_is_rejected(self):
        # n_i = 0 with b_i = 1: the cell that icf once had to guard against
        with pytest.raises(ValueError, match="b_i cannot exceed n_i"):
            CellStats(0, 0, 5, 10, 1, 2)

    @given(st.tuples(*[st.integers(-1, 6)] * 6))
    @settings(max_examples=400, deadline=None)
    def test_every_construction_path_checks_the_invariants(self, values):
        fields = dict(zip(CellStats._fields, values))
        base = CellStats(n_ij=0, n_i=1, n_j=1, n=1, b_i=1, d=1)
        builds = [
            lambda: CellStats(*values),
            lambda: CellStats(**fields),
            lambda: CellStats._make(values),
            lambda: CellStats._make(iter(values)),
            lambda: base._replace(**fields),
        ]
        for build in builds:
            if _rejected_by_cell_stats(*values):
                with pytest.raises(ValueError):
                    build()
            else:
                stats = build()
                assert type(stats) is CellStats
                assert stats == values

    def test_one_field_replaced_is_checked(self):
        stats = CellStats(n_ij=5, n_i=20, n_j=50, n=90, b_i=2, d=5)
        assert stats._replace(n_ij=6) == (6, 20, 50, 90, 2, 5)
        with pytest.raises(ValueError):
            stats._replace(b_i=6)
        with pytest.raises(ValueError, match="unexpected field"):
            stats._replace(p_ij=0.5)

    def test_fields_cannot_be_assigned(self):
        stats = CellStats(n_ij=5, n_i=20, n_j=50, n=90, b_i=2, d=5)
        for name in CellStats._fields:
            with pytest.raises(AttributeError):
                setattr(stats, name, 1)
        with pytest.raises(AttributeError):
            stats.extra = 1
        assert stats == (5, 20, 50, 90, 2, 5)

    def test_cell_stats_is_pure(self):
        matrix = ingest_text([("d1", "a b a"), ("d2", "b c")])
        first = matrix.cell_stats(0, 0)
        second = matrix.cell_stats(0, 0)
        assert first == second

    def test_index_out_of_range(self):
        matrix = ingest_text([("d1", "a")])
        with pytest.raises(IndexOutOfRangeError):
            matrix.cell_stats(1, 0)
        with pytest.raises(IndexOutOfRangeError):
            matrix.cell_stats(0, 5)


class TestMatrixInvariants:
    def _assert_consistent(self, matrix: TermDocumentMatrix):
        assert sum(matrix.row_totals) == matrix.grand_total
        assert sum(matrix.col_totals) == matrix.grand_total
        for i in range(matrix.m):
            assert sum(matrix.cell_stats(i, j).n_ij for j in range(matrix.d)) == matrix.row_totals[i]
            assert 1 <= matrix.doc_freq[i] <= matrix.d
        for j in range(matrix.d):
            assert sum(matrix.cell_stats(i, j).n_ij for i in range(matrix.m)) == matrix.col_totals[j]
        for i in range(matrix.m):
            for j in range(matrix.d):
                c = matrix.cell_stats(i, j).n_ij
                assert c <= matrix.row_totals[i]
                assert c <= matrix.col_totals[j]

    def test_fixture_consistency(self):
        matrix = ingest_text(
            [("d1", "a b a c"), ("d2", "b b d"), ("d3", "e"), ("d4", "a e e")]
        )
        self._assert_consistent(matrix)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from(["x", "y", "z"]),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=30,
            unique_by=lambda row: (row[0], row[1]),
        )
    )
    @settings(max_examples=100)
    def test_random_counts_consistency_and_roundtrip(self, rows):
        if all(count == 0 for _, _, count in rows):
            with pytest.raises(EmptyCollectionError):
                ingest_counts(rows)
            return
        matrix = ingest_counts(rows)
        self._assert_consistent(matrix)
        rebuilt = ingest_counts(export_counts(matrix))
        assert rebuilt == matrix
        assert rebuilt.vocab == matrix.vocab
        assert rebuilt.docs == matrix.docs

    def test_roundtrip_preserves_awkward_registry_orders(self):
        # doc order and term order seeded by different rows
        rows = [("a", "d1", 0), ("b", "d1", 1), ("a", "d2", 1)]
        matrix = ingest_counts(rows)
        assert matrix.vocab == ("a", "b")
        assert matrix.docs == ("d1", "d2")
        rebuilt = ingest_counts(export_counts(matrix))
        assert rebuilt == matrix

    def test_export_rows_are_pinned(self):
        # a stored zero count, a document with no nonzero cell, and a document
        # whose cells were stored out of term order
        matrix = TermDocumentMatrix(
            ("a", "b", "c"),
            ("d1", "d2", "d3", "d4"),
            [{0: 2}, {1: 3}, {0: 0}, {2: 1, 0: 1}],
        )
        assert export_counts(matrix) == [
            ("a", "d1", 2),
            ("b", "d1", 0),
            ("c", "d1", 0),
            ("b", "d2", 3),
            ("a", "d3", 0),
            ("a", "d4", 1),
            ("c", "d4", 1),
        ]

    def test_columns_from_unordered_counts_with_a_stored_zero(self):
        # inserted out of term order, with a zero stored at (1, 0)
        columns = [{2: 3, 1: 0, 0: 2}, {2: 4, 0: 1, 1: 5}]
        matrix = TermDocumentMatrix(("a", "b", "c"), ("d1", "d2"), columns)
        assert [list(zip(*column)) for column in matrix.columns] == [
            [(0, 2), (2, 3)],
            [(0, 1), (1, 5), (2, 4)],
        ]
        without_zero = [{i: c for i, c in column.items() if c > 0} for column in columns]
        assert matrix == TermDocumentMatrix(("a", "b", "c"), ("d1", "d2"), without_zero)

    def test_columns_are_copied_from_the_callers_mappings(self):
        columns = [{0: 1}]
        matrix = TermDocumentMatrix(("a",), ("d1",), columns)
        columns[0][0] = 7
        assert matrix.cell_stats(0, 0).n_ij == 1

    def test_no_term_or_no_document_is_an_empty_collection(self):
        with pytest.raises(EmptyCollectionError):
            TermDocumentMatrix([], [], [])
        with pytest.raises(EmptyCollectionError):
            TermDocumentMatrix(("a",), (), [])

    def test_equality_with_another_type_and_repr(self):
        matrix = TermDocumentMatrix(("a", "b"), ("d1",), [{0: 2, 1: 1}])
        assert (matrix == 1) is False
        assert matrix != "matrix"
        assert repr(matrix) == "TermDocumentMatrix(m=2, d=1, n=3)"

    def test_one_column_per_document(self):
        with pytest.raises(IndexOutOfRangeError):
            TermDocumentMatrix(("a",), ("d1", "d2"), [{0: 1}])
        with pytest.raises(IndexOutOfRangeError):
            TermDocumentMatrix(("a",), ("d1",), [{0: 1}, {0: 1}])

    def test_columns_from_a_one_shot_iterator(self):
        columns = [{2: 3, 1: 0, 0: 2}, {}, {1: 5}]
        built = TermDocumentMatrix(("a", "b", "c"), ("d1", "d2", "d3"), iter(columns))
        assert built == TermDocumentMatrix(("a", "b", "c"), ("d1", "d2", "d3"), columns)
        assert built.row_totals == (2, 5, 3)
        assert built.col_totals == (5, 0, 5)

    def test_a_column_in_the_shape_of_matrix_columns(self):
        matrix = TermDocumentMatrix(("a", "b"), ("d1",), [((0, 1), (2, 1))])
        assert matrix == TermDocumentMatrix(("a", "b"), ("d1",), [{0: 2, 1: 1}])
        assert matrix.columns[0] == ((0, 1), (2, 1))
        # plain copies of a matrix's columns, an empty one included, rebuild it
        source = ingest_text([("d1", "a b a"), ("d2", ""), ("d3", "b c")])
        assert TermDocumentMatrix(source.vocab, source.docs, [tuple(c) for c in source.columns]) == source
        # a pair of lists, and mappings mixed with pairs; a zero count is dropped
        mixed = TermDocumentMatrix(("a", "b", "c"), ("d1", "d2", "d3"), [([0, 1], [2, 1]), {}, ((1, 2), (0, 1))])
        assert mixed == TermDocumentMatrix(("a", "b", "c"), ("d1", "d2", "d3"), [{0: 2, 1: 1}, {}, {2: 1}])
        assert mixed.columns[2] == ((2,), (1,))
        # a pair's cells are validated as a mapping's are
        with pytest.raises(NegativeCountError, match=r"^negative count at cell \(1, 0\)$"):
            TermDocumentMatrix(("a", "b"), ("d1",), [((0, 1), (2, -1))])
        with pytest.raises(IndexOutOfRangeError, match=r"^cell \(2, 0\) outside 2x1 matrix$"):
            TermDocumentMatrix(("a", "b"), ("d1",), [((0, 2), (2, 1))])

    @pytest.mark.parametrize(
        "column, message",
        [
            (((0, 1), (2,)), "column 1: 2 indices for 1 counts"),
            (((0,), (2, 1)), "column 1: 1 indices for 2 counts"),
            (((1, 0), (1, 2)), "column 1: term indices do not strictly ascend"),
            (((0, 0), (1, 2)), "column 1: term indices do not strictly ascend"),
            (((0, 1), (2, 1), ()), "column 1 is neither a mapping nor an (indices, counts) pair"),
            (((0, 1),), "column 1 is neither a mapping nor an (indices, counts) pair"),
            (7, "column 1 is neither a mapping nor an (indices, counts) pair"),
        ],
        ids=["short-counts", "short-indices", "descending", "repeated", "triple", "single", "int"],
    )
    def test_a_pair_that_is_no_column_is_invalid(self, column, message):
        with pytest.raises(InvalidColumnError) as excinfo:
            TermDocumentMatrix(("a", "b"), ("d1", "d2"), [{0: 1}, column])
        assert str(excinfo.value) == message
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize(
        "column",
        [
            {0: 1.5, 1: 1}, {0: 2, 1: 1.0}, {0: float("nan"), 1: 1}, {0: 2, 1: 0.0}, {0: True, 1: 1},
            {0: 2, 1: False}, {0: "1"}, {0.0: 1, 1: 1}, {0: 1, "b": 1}, {False: 1, 1: 1},
            ((0, 1), (1.5, 1)), ((0, 0.5), (1, 1)), (("a", "b"), (1, 1)), ((0, 1), (1, None)),
        ],
        ids=[
            "float", "integral-float", "nan", "float-zero", "true", "false-zero", "str-count", "float-index",
            "str-index", "false-index", "pair-float", "pair-float-index", "pair-str-index", "pair-none",
        ],
    )
    def test_an_index_or_count_that_is_no_int_is_refused(self, column):
        with pytest.raises(NonIntegerCellError, match=r"^column 1: a term index or count is not an int$") as excinfo:
            TermDocumentMatrix(("a", "b"), ("d1", "d2"), [{0: 1}, column])
        assert isinstance(excinfo.value, TypeError)

    def test_ingest_counts_refuses_a_count_that_is_no_int(self):
        with pytest.raises(NonIntegerCellError, match=r"^count 2\.5 for \('a', 'd1'\) is not an int$"):
            ingest_counts([("a", "d1", 2.5), ("b", "d1", 1)])

    @pytest.mark.parametrize("count", ["2", None, 0.0, 1.5, -1.5, True])
    def test_ingest_counts_checks_a_counts_type_before_its_sign(self, count):
        # a str or None is not compared with 0, and a 0.0 is not dropped as a zero total
        with pytest.raises(NonIntegerCellError, match=r"^count .+ for \('b', 'd1'\) is not an int$"):
            ingest_counts([("a", "d1", 1), ("b", "d1", count)])

    @pytest.mark.parametrize("count", [1, 3, 4], ids=["too-few", "one-too-many", "two-too-many"])
    def test_a_one_shot_iterator_of_the_wrong_length(self, count):
        columns = [{0: 1}] * count
        with pytest.raises(IndexOutOfRangeError, match=f"^{count} columns for 2 documents$"):
            TermDocumentMatrix(("a",), ("d1", "d2"), iter(columns))

    def test_compact_columns_are_kept_without_a_copy(self):
        matrix = ingest_counts([("a", "d1", 2), ("b", "d1", 0), ("b", "d2", 1), ("a", "d2", 3)])
        rebuilt = TermDocumentMatrix(matrix.vocab, matrix.docs, matrix.columns)
        assert rebuilt == matrix
        assert all(new is old for new, old in zip(rebuilt.columns, matrix.columns))
        # d1's stored zero is dropped
        assert [(col.indices, col.counts) for col in matrix.columns] == [((0,), (2,)), ((0, 1), (3, 1))]

    def test_stored_columns_take_at_most_24_bytes_a_cell(self):
        # 200 documents of 100 distinct terms each, from a vocabulary of 1,000;
        # the rows, names and vocabulary exist before the count starts
        rng = random.Random(3)
        vocab = [f"t{i}" for i in range(1000)]
        rows = [(term, f"d{j}", rng.randint(1, 9)) for j in range(200) for term in rng.sample(vocab, 100)]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            columns = ingest_counts(rows).columns  # the matrix's other parts are freed
            stored = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert sum(len(column.indices) for column in columns) == 20_000
        assert stored / 20_000 <= 24

    def test_columns_are_read_only(self):
        matrix = ingest_text([("d1", "a b a"), ("d2", "b c")])
        with pytest.raises(TypeError):
            matrix.columns[0][0] = 7
        for field in ("indices", "counts"):
            with pytest.raises(AttributeError):
                setattr(matrix.columns[0], field, (99, 1))
        # a column is the pair of its two tuples, and nothing else
        for column in matrix.columns:
            assert tuple(column) == (column.indices, column.counts)
        assert matrix.columns[0] == ((0, 1), (2, 1))
        assert matrix.cell_stats(0, 0).n_ij == 2


def assert_matches_cell_by_cell(matrix, vocab, docs, cells):
    """matrix holds exactly cells {(i, j): count}, zeros included, over vocab x docs."""
    m, d = len(vocab), len(docs)
    row, col, freq = [0] * m, [0] * d, [0] * m
    for (i, j), c in cells.items():
        if c:
            row[i] += c
            col[j] += c
            freq[i] += 1
    assert (matrix.vocab, matrix.docs) == (tuple(vocab), tuple(docs))
    assert matrix.row_totals == tuple(row)
    assert matrix.col_totals == tuple(col)
    assert matrix.doc_freq == tuple(freq)
    assert matrix.grand_total == sum(row)
    assert [list(zip(*column)) for column in matrix.columns] == [
        sorted((i, c) for (i, jj), c in cells.items() if jj == j and c) for j in range(d)
    ]
    for i in range(m):
        for j in range(d):
            assert matrix.cell_stats(i, j).n_ij == cells.get((i, j), 0)
    rebuilt = ingest_counts(export_counts(matrix))
    assert rebuilt == matrix
    assert (rebuilt.vocab, rebuilt.docs) == (matrix.vocab, matrix.docs)


@st.composite
def column_inputs(draw):
    """(m, d, columns, fault): valid columns over m terms and d documents, with at
    most one cell made out of range ("index") or negative ("negative")."""
    m = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.integers(min_value=1, max_value=4))
    column = st.dictionaries(
        st.integers(min_value=0, max_value=m - 1), st.integers(min_value=0, max_value=4), max_size=m
    )
    columns = draw(st.lists(column, min_size=d, max_size=d))
    fault = draw(st.sampled_from([None, "index", "negative"]))
    if fault:
        target = columns[draw(st.integers(min_value=0, max_value=d - 1))]
        if fault == "index":
            i = draw(st.integers(min_value=-2, max_value=-1) | st.integers(min_value=m, max_value=m + 2))
            target[i] = draw(st.integers(min_value=1, max_value=4))
        else:
            target[draw(st.integers(min_value=0, max_value=m - 1))] = -draw(
                st.integers(min_value=1, max_value=3)
            )
    return m, d, columns, fault


class TestColumnConstructor:
    """TermDocumentMatrix(vocab, docs, columns) and ingest_counts against a cell-by-cell model."""

    @given(column_inputs())
    @settings(max_examples=200)
    def test_columns_match_cell_by_cell(self, case):
        m, d, columns, fault = case
        vocab = [f"t{i}" for i in range(m)]
        docs = [f"d{j}" for j in range(d)]
        if fault == "index":
            with pytest.raises(IndexOutOfRangeError):
                TermDocumentMatrix(vocab, docs, columns)
            return
        if fault == "negative":
            with pytest.raises(NegativeCountError):
                TermDocumentMatrix(vocab, docs, columns)
            return
        cells = {(i, j): c for j, column in enumerate(columns) for i, c in column.items()}
        if any(not any(cells.get((i, j), 0) for j in range(d)) for i in range(m)):
            with pytest.raises(EmptyCollectionError):
                TermDocumentMatrix(vocab, docs, columns)
            return
        matrix = TermDocumentMatrix(vocab, docs, columns)
        assert_matches_cell_by_cell(matrix, vocab, docs, cells)
        # every cell, zeros included, document-major: registers vocab and docs in order
        rows = [(vocab[i], docs[j], columns[j].get(i, 0)) for j in range(d) for i in range(m)]
        assert ingest_counts(rows) == matrix

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["x", "y", "z"]),
                st.integers(min_value=-1, max_value=4),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=200)
    def test_ingest_counts_matches_cell_by_cell(self, rows):
        seen: dict[tuple[str, str], int] = {}
        error = None
        for term, doc, count in rows:
            if count < 0:
                error = NegativeCountError
            elif (term, doc) in seen:
                error = DuplicateCellError
            if error:
                break
            seen[term, doc] = count
        totals: dict[str, int] = {}
        for (term, _), count in seen.items():
            totals[term] = totals.get(term, 0) + count
        vocab = [term for term, total in totals.items() if total > 0]  # first seen, zero totals dropped
        if error is None and not vocab:
            error = EmptyCollectionError
        if error:
            with pytest.raises(error):
                ingest_counts(rows)
            return
        docs = list(dict.fromkeys(doc for _, doc in seen))
        cells = {
            (vocab.index(term), docs.index(doc)): count
            for (term, doc), count in seen.items()
            if term in vocab
        }
        matrix = ingest_counts(rows)
        assert_matches_cell_by_cell(matrix, vocab, docs, cells)
        columns = [{} for _ in docs]
        for (i, j), c in cells.items():
            columns[j][i] = c
        assert matrix == TermDocumentMatrix(vocab, docs, columns)

    def test_zero_total_terms_are_dropped_and_renumbered(self):
        rows = [("z0", "d1", 0), ("a", "d1", 2), ("z1", "d2", 0), ("b", "d2", 1), ("a", "d2", 1)]
        matrix = ingest_counts(rows)
        assert matrix.vocab == ("a", "b")
        assert [dict(zip(*column)) for column in matrix.columns] == [{0: 2}, {0: 1, 1: 1}]


class TestFileFormats:
    def test_counts_csv_roundtrip(self, tmp_path):
        rows = [("alpha", "doc,with,commas", 3), ("beta", "d2", 1)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        raw = path.read_bytes()
        assert raw.startswith(b"term,doc,count\n")
        assert b"\r" not in raw
        assert list(read_counts_csv(path)) == rows

    def test_counts_csv_keeps_one_string_per_name(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "term,doc,count\nalpha,d1,1\nbeta,d1,2\nalpha,d2,3\nd2,alpha,4\n", encoding="utf-8"
        )
        rows = list(read_counts_csv(path))
        assert rows == [("alpha", "d1", 1), ("beta", "d1", 2), ("alpha", "d2", 3), ("d2", "alpha", 4)]
        assert rows[2][0] is rows[0][0]
        assert rows[1][1] is rows[0][1]
        # one table serves both columns
        assert rows[3][0] is rows[2][1]
        assert rows[3][1] is rows[0][0]

    def test_counts_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("term,document,count\na,b,1\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as excinfo:
            list(read_counts_csv(path))
        assert excinfo.value.line == 1

    def test_counts_csv_bad_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("term,doc,count\na,b,1\na,c,xyz\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as excinfo:
            list(read_counts_csv(path))
        assert excinfo.value.line == 3

    def test_a_repeat_thrown_back_is_raised_at_its_physical_line(self, tmp_path):
        # ingest_counts meets the repeat on line 5, after the blank line 3 and
        # before the bad count on line 6; the reader is paused at that row
        path = tmp_path / "dup.csv"
        path.write_text("term,doc,count\na,d1,1\n\nb,d1,2\na,d1,3\nb,d2,x\n", encoding="utf-8")
        rows = read_counts_csv(path)
        with pytest.raises(DuplicateCellError) as repeat:
            ingest_counts(rows)
        with pytest.raises(InputFormatError) as excinfo:
            rows.throw(repeat.value)
        assert excinfo.value.line == 5
        assert str(excinfo.value) == f"{path}:5: duplicate cell ('a', 'd1')"
        # d1 is compacted when d2's rows begin, and its repeat on line 4 is met
        # when d1 is reopened, before the bad count on line 5
        path.write_text("term,doc,count\na,d1,1\nb,d2,1\na,d1,2\nc,d2,x\n", encoding="utf-8")
        rows = read_counts_csv(path)
        with pytest.raises(DuplicateCellError) as repeat:
            ingest_counts(rows)
        with pytest.raises(InputFormatError) as excinfo:
            rows.throw(repeat.value)
        assert str(excinfo.value) == f"{path}:4: duplicate cell ('a', 'd1')"

    @pytest.mark.parametrize(
        "reader, name, files, first",
        [
            (read_counts_csv, "counts.csv", {"counts.csv": b"term,doc,count\na,d1,1\nb,d1,x\n"}, ("a", "d1", 1)),
            (read_corpus_jsonl, "corpus.jsonl", {"corpus.jsonl": b'{"id": "d1", "text": "a"}\n{bad\n'}, ("d1", "a")),
            (read_text_dir, ".", {"a.txt": b"alpha", "b.txt": b"\xff"}, ("a", "alpha")),
        ],
        ids=["counts", "jsonl", "textdir"],
    )
    def test_readers_yield_before_reading_on(self, tmp_path, reader, name, files, first):
        # the first row comes out although a later line is bad
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        assert next(reader(tmp_path / name)) == first

    def test_jsonl_reader(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "d1", "text": "a b"}\n\n{"id": "d2", "text": "c"}\n',
            encoding="utf-8",
        )
        assert list(read_corpus_jsonl(path)) == [("d1", "a b"), ("d2", "c")]

    def test_jsonl_reader_leaves_a_repeated_id_to_ingest(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "x", "text": "a"}\n{"id": "x", "text": "b"}\n', encoding="utf-8")
        assert list(read_corpus_jsonl(path)) == [("x", "a"), ("x", "b")]
        with pytest.raises(DuplicateDocIdError, match="duplicate document id 'x'"):
            ingest_text(read_corpus_jsonl(path))

    def test_jsonl_reader_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n{"id": 5, "text": "b"}\n', encoding="utf-8")
        with pytest.raises(InputFormatError) as excinfo:
            list(read_corpus_jsonl(path))
        assert excinfo.value.line == 2

    def test_text_dir_reader_sorted_by_name(self, tmp_path):
        (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
        (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
        (tmp_path / "ignored.md").write_text("nope", encoding="utf-8")
        assert list(read_text_dir(tmp_path)) == [("a", "alpha"), ("b", "beta")]

    def test_text_dir_reader_leaves_a_repeated_stem_to_ingest(self, tmp_path):
        # ".txt" and ".txt.txt" both have the stem ".txt"
        (tmp_path / ".txt").write_text("alpha", encoding="utf-8")
        (tmp_path / ".txt.txt").write_text("beta", encoding="utf-8")
        assert list(read_text_dir(tmp_path)) == [(".txt", "alpha"), (".txt", "beta")]
        with pytest.raises(DuplicateDocIdError, match="duplicate document id '.txt'"):
            ingest_text(read_text_dir(tmp_path))

    def test_stopword_reader(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\n\nand \n", encoding="utf-8")
        assert read_stopwords(path) == frozenset({"the", "and"})
