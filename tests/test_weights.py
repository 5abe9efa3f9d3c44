"""Tests for the term-weighting schemes and the batch evaluator."""

import contextlib
import io
import os
import tempfile
from math import copysign, inf, isclose, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import termfisher.numerics
import termfisher.weights
from exact_refs import (
    embed_cell_counts,
    log_fraction,
    neg_log_tail,
    quotient,
    tail_fraction,
    write_counts_csv,
)
from termfisher.cli import main
from termfisher.corpus import CellStats, TermDocumentMatrix, ingest_counts, ingest_text
from termfisher.errors import UndefinedPhiError, UndefinedQuotientError
from termfisher.numerics import HypergeomParams, log_hypergeom_tail
from termfisher.weights import (
    RANK_SCHEMES,
    SCHEMES,
    WeightRecord,
    fisher_weight,
    icf,
    idf,
    phi,
    psi,
    q_ij,
    rank_matrix,
    tfidf,
    tficf,
    weigh_matrix,
)


def make_stats(n_ij, n_i, n_j, n, b_i, d):
    return CellStats(n_ij=n_ij, n_i=n_i, n_j=n_j, n=n, b_i=b_i, d=d)


# reference cells reused below
GENERAL = make_stats(25, 150, 100, 1000, 4, 20)       # no idealized structure
UNIFORM = make_stats(10, 100, 25, 1000, 10, 40)        # equal-length / fixed-count
EXCLUSIVE = make_stats(20, 160, 20, 1000, 8, 50)       # term fills its documents


class TestIdfIcf:
    def test_idf_zero_when_term_everywhere(self):
        assert idf(make_stats(1, 10, 10, 100, 10, 10)) == 0.0

    def test_idf_reference_value(self):
        assert isclose(idf(GENERAL), log(5), rel_tol=1e-12)  # d=20, b_i=4

    def test_idf_derived_value(self):
        stats = make_stats(20, 160, 20, 1000, 8, 50)
        assert isclose(idf(stats), log(6.25), rel_tol=1e-12)

    def test_icf_zero_for_single_term_collection(self):
        assert icf(make_stats(5, 50, 10, 50, 2, 5)) == 0.0

    def test_icf_reference_values(self):
        assert isclose(icf(EXCLUSIVE), log(6.25), rel_tol=1e-12)  # n=1000, n_i=160
        assert isclose(icf(GENERAL), log(1000 / 150), rel_tol=1e-12)


class TestTfProducts:
    def test_tfidf_reference(self):
        assert abs(tfidf(GENERAL) - 40.2359) < 5e-5
        assert abs(tfidf(UNIFORM) - 13.8629) < 5e-5

    def test_tficf_reference(self):
        assert abs(tficf(EXCLUSIVE) - 36.6516) < 5e-5
        assert isclose(tficf(GENERAL), 25 * log(1000 / 150), rel_tol=1e-12)

    def test_zero_count_gives_zero(self):
        stats = make_stats(0, 150, 100, 1000, 4, 20)
        assert tfidf(stats) == 0.0
        assert tficf(stats) == 0.0


class TestFisherWeight:
    def test_reference_cells(self):
        assert abs(fisher_weight(GENERAL) - 5.5429) < 5e-5
        case2 = make_stats(2, 6, 80, 12500, 3, 200)
        assert abs(fisher_weight(case2) - 7.4240) < 5e-5

    def test_zero_count_is_exactly_zero(self):
        stats = make_stats(0, 150, 100, 1000, 4, 20)
        assert fisher_weight(stats) == 0.0

    def test_tail_near_one_is_not_negative(self):
        # summing the whole distribution once gave -9.7e-10 here
        assert fisher_weight(make_stats(5, 100_005, 100_005, 300_005, 2, 2)) >= 0.0

    def test_matches_exact_arithmetic(self):
        for stats in (GENERAL, UNIFORM, EXCLUSIVE):
            exact = neg_log_tail(stats.n_ij, stats.n_i, stats.n_j, stats.n)
            assert isclose(fisher_weight(stats), exact, rel_tol=1e-11)


class TestQuotient:
    def test_beyond_float_range_is_inf(self):
        # a tail near 1 over a binomial mass near exp(-25000)
        assert q_ij(make_stats(1, 50_001, 20_001, 70_001, 2, 2)) == inf

    def test_exclusive_cell_has_empty_tail(self):
        assert q_ij(EXCLUSIVE) == 0.0

    def test_reference_values_against_exact_arithmetic(self):
        q1 = q_ij(GENERAL)
        assert isclose(q1, quotient(25, 150, 100, 1000), rel_tol=1e-11)
        assert abs(q1 - 0.5595) < 5e-5
        q2 = q_ij(UNIFORM)
        assert isclose(q2, quotient(10, 100, 25, 1000), rel_tol=1e-11)
        assert abs(q2 - 0.1183) < 5e-5

    def test_undefined_for_saturating_term(self):
        stats = make_stats(5, 50, 10, 50, 2, 5)  # p_i = 1
        with pytest.raises(UndefinedQuotientError):
            q_ij(stats)


class TestPhi:
    def test_general_cell(self):
        value = phi(GENERAL, q_ij(GENERAL))
        expected = 25 * log(0.25) + 75 * (0.15 - 0.25) - quotient(25, 150, 100, 1000)
        assert isclose(value, expected, rel_tol=1e-11)
        # back-solved from two 4-decimal table values, so only ~1e-4 tight
        assert abs(value - (4.7111 - 47.4280)) < 1.5e-4

    def test_uniform_cell(self):
        assert abs(phi(UNIFORM, q_ij(UNIFORM)) - (9.2446 - 23.0259)) < 1.5e-4

    def test_full_document_reduces_to_minus_q(self):
        stats = make_stats(20, 160, 20, 1000, 8, 50)  # p_ij = 1
        assert phi(stats, q_ij(stats)) == -q_ij(stats)

    def test_undefined_at_zero_count(self):
        stats = make_stats(0, 150, 100, 1000, 4, 20)
        with pytest.raises(UndefinedPhiError):
            phi(stats, q_ij(stats))


class TestPsi:
    def test_uniform_cell(self):
        value = psi(UNIFORM, q_ij(UNIFORM))
        assert isclose(
            value, -10 * (1 - 10 / 40) * (1 - 0.4) - quotient(10, 100, 25, 1000),
            rel_tol=1e-11,
        )
        # back-solved from two 4-decimal table values
        assert abs(value - (9.2446 - 13.8629)) < 1.5e-4

    def test_term_everywhere_reduces_to_minus_q(self):
        stats = make_stats(2, 20, 10, 100, 10, 10)  # b_i = d
        assert psi(stats, q_ij(stats)) == -q_ij(stats)

    def test_full_document_reduces_to_minus_q(self):
        assert psi(EXCLUSIVE, q_ij(EXCLUSIVE)) == -q_ij(EXCLUSIVE)

    def test_zero_has_no_sign(self):
        # b_i = d and q = 0: both parts are zero, and the sum must not be -0.0
        value = psi(make_stats(2, 20, 10, 100, 10, 10), 0.0)
        assert value == 0.0 and copysign(1.0, value) == 1.0


class TestWeighMatrix:
    def test_single_cell_matrix(self):
        matrix = ingest_counts([("only", "doc", 4)])
        (record,) = weigh_matrix(matrix)
        assert record.idf == 0.0
        assert record.icf == 0.0
        assert record.neg_log_p == 0.0
        # p_i = 1: quotient-based fields are absent, with a note
        assert record.q is None
        assert record.phi is None
        assert record.psi is None
        assert record.notes

    def test_reference_cell_through_matrix(self):
        rows = embed_cell_counts(CellStats(n_ij=7, n_i=125, n_j=75, n=10000, b_i=12, d=175))
        matrix = ingest_counts(rows)
        records = {
            (r.term, r.doc): r for r in weigh_matrix(matrix)
        }
        focal = records[("focal", "doc00000")]
        assert abs(focal.neg_log_p - 10.1385) < 5e-5
        assert abs(focal.tfidf - 18.7592) < 5e-5

    def test_ordering_is_doc_major_then_term_index(self):
        matrix = ingest_text([("d1", "b a"), ("d2", "c b")])
        records = list(weigh_matrix(matrix))
        assert [(r.doc, r.term) for r in records] == [
            ("d1", "b"),
            ("d1", "a"),
            ("d2", "b"),
            ("d2", "c"),
        ]

    def test_scheme_selection_leaves_other_fields_absent(self):
        matrix = ingest_text([("d1", "a a b"), ("d2", "b c")])
        records = list(weigh_matrix(matrix, {"tfidf"}))
        assert all(r.tfidf is not None for r in records)
        assert all(r.neg_log_p is None and r.q is None for r in records)

    def test_unknown_scheme_rejected(self):
        matrix = ingest_text([("d1", "a")])
        with pytest.raises(ValueError):
            weigh_matrix(matrix, {"bm25"})

    def test_zero_cells_on_request(self):
        matrix = ingest_text([("d1", "a a b"), ("d2", "b c")])
        records = list(weigh_matrix(matrix, include_zeros=True))
        zero = next(r for r in records if r.term == "a" and r.doc == "d2")
        assert zero.tf == 0
        assert zero.tfidf == 0.0
        assert zero.tficf == 0.0
        assert zero.neg_log_p == 0.0
        assert zero.phi is None  # undefined at tf = 0
        assert any(note.startswith("phi") for note in zero.notes)

    def test_records_are_immutable(self):
        (record,) = weigh_matrix(ingest_counts([("only", "doc", 4)]))
        with pytest.raises(AttributeError):
            record.tf = 5
        with pytest.raises(AttributeError):
            record.notes = ()

    def test_determinism(self):
        matrix = ingest_text([("d1", "a a b"), ("d2", "b c")])
        assert list(weigh_matrix(matrix)) == list(weigh_matrix(matrix))

    def test_one_tail_evaluation_per_cell(self, monkeypatch):
        calls = []
        kernel = termfisher.weights.log_hypergeom_tail

        def counting(params, memo=None):
            calls.append(params)
            return kernel(params, memo)

        monkeypatch.setattr(termfisher.weights, "log_hypergeom_tail", counting)
        matrix = ingest_text(
            [("d1", "apple apple apple pear plum"), ("d2", "pear pear plum quince")]
        )
        records = list(weigh_matrix(matrix))
        assert len(calls) == len(records) == sum(matrix.doc_freq)


def reference_record(matrix, i, j):
    """The record for cell (i, j), built alone from the public per-cell schemes."""
    stats = matrix.cell_stats(i, j)
    values = {
        "idf": idf(stats),
        "icf": icf(stats),
        "tfidf": tfidf(stats),
        "tficf": tficf(stats),
        "neg_log_p": fisher_weight(stats),
    }
    notes = []
    try:
        q = q_ij(stats)
    except UndefinedQuotientError as exc:
        notes += [f"q: {exc}", "phi: requires q", "psi: requires q"]
    else:
        values["q"] = q
        try:
            values["phi"] = phi(stats, q)
            values["thm1_approx"] = values["tficf"] + values["phi"]
        except UndefinedPhiError as exc:
            notes.append(f"phi: {exc}")
        values["psi"] = psi(stats, q)
        values["cor1_approx"] = values["tfidf"] + values["psi"]
    return WeightRecord(
        matrix.vocab[i], matrix.docs[j], stats.n_ij, notes=tuple(notes), **values
    )


# the record fields each scheme fills; tf is always filled
SCHEME_FIELDS = {
    "tf": (), "idf": ("idf",), "icf": ("icf",), "tfidf": ("tfidf",), "tficf": ("tficf",),
    "fisher": ("neg_log_p",), "phi": ("q", "phi"), "psi": ("q", "psi"),
    "approximations": ("q", "phi", "psi", "thm1_approx", "cor1_approx"),
}


def restrict(record, schemes):
    """The record with only the fields, and the notes, of the selected schemes."""
    kept = {field for name in schemes for field in SCHEME_FIELDS[name]}
    return record._replace(
        **{field: None for field in WeightRecord._fields[3:-1] if field not in kept},
        notes=tuple(note for note in record.notes if note.split(":")[0] in kept),
    )


def assert_matches_cell_by_cell(matrix, include_zeros, schemes=None):
    if include_zeros:
        cells = [(i, j) for j in range(matrix.d) for i in range(matrix.m)]
    else:
        cells = [(i, j) for j, column in enumerate(matrix.columns) for i in column.indices]
    expected = [
        reference_record(matrix, i, j) for i, j in cells if matrix.col_totals[j] > 0
    ]
    if schemes is not None:
        expected = [restrict(record, schemes) for record in expected]
    records = list(weigh_matrix(matrix, schemes, include_zeros=include_zeros))
    assert records == expected
    assert [r.notes for r in records] == [r.notes for r in expected]


@st.composite
def repeating_count_rows(draw):
    """Counts rows whose matrix is one drawn block repeated down the diagonal.

    Every cell key (n_ij, n_i, n_j, b_i) then occurs once per copy, zero cells
    included; a document may be empty.
    """
    terms = draw(st.integers(min_value=1, max_value=4))
    docs = draw(st.integers(min_value=1, max_value=4))
    block = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=terms, max_size=terms),
            min_size=docs,
            max_size=docs,
        )
    )
    copies = draw(st.integers(min_value=2, max_value=3))
    rows = [
        (f"t{i}.{c}", f"d{j}.{c}", block[j][i])
        for c in range(copies)
        for j in range(docs)
        for i in range(terms)
    ]
    if all(count == 0 for _, _, count in rows):
        rows.append(("t0.0", "extra", 1))
    return rows


@st.composite
def count_rows(draw):
    """Counts rows of a drawn matrix of up to 5 terms by 5 documents.

    Counts are small, so cells often share (n_ij, n_i, b_i) while their
    documents differ in length; a document may be empty.
    """
    terms = draw(st.integers(min_value=1, max_value=5))
    docs = draw(st.integers(min_value=1, max_value=5))
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=terms * docs, max_size=terms * docs)
    )
    rows = [(f"t{k % terms}", f"d{k // terms}", c) for k, c in enumerate(counts)]
    if not any(counts):
        rows.append(("t0", "extra", 1))
    return rows


class TestWeighMatrixMemo:
    """weigh_matrix evaluates each distinct cell key once per call."""

    @given(repeating_count_rows(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_cell_by_cell_evaluation(self, rows, include_zeros):
        assert_matches_cell_by_cell(ingest_counts(rows), include_zeros)

    @given(
        st.one_of(count_rows(), repeating_count_rows()),
        st.sets(st.sampled_from(sorted(SCHEMES)), min_size=1),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_scheme_subsets_match_cell_by_cell_evaluation(self, rows, schemes, include_zeros):
        assert_matches_cell_by_cell(ingest_counts(rows), include_zeros, schemes)

    @pytest.mark.parametrize("scheme, field", [("psi", "psi"), ("fisher", "neg_log_p")])
    def test_cells_that_differ_only_in_document_length(self, scheme, field):
        # ("a", "d1") and ("a", "d2") share n_ij = 1, n_i = 2, b_i = 2; n_j is 1 and 4
        matrix = ingest_counts([("a", "d1", 1), ("a", "d2", 1), ("b", "d2", 3)])
        first, second = list(weigh_matrix(matrix, {scheme}))[:2]
        assert (first.doc, second.doc) == ("d1", "d2")
        assert getattr(first, field) != getattr(second, field)
        assert_matches_cell_by_cell(matrix, False, {scheme})
        assert_matches_cell_by_cell(matrix, True, {scheme})

    def test_classic_schemes_build_one_cell_per_distinct_value(self, monkeypatch):
        calls = []
        cell_stats = TermDocumentMatrix.cell_stats

        def counting(matrix, i, j):
            calls.append((i, j))
            return cell_stats(matrix, i, j)

        monkeypatch.setattr(TermDocumentMatrix, "cell_stats", counting)
        # documents of lengths 2, 3 and 2: tfidf and tficf do not read n_j
        matrix = ingest_text([("d1", "a b"), ("d2", "a b c"), ("d3", "c c")])
        records = list(weigh_matrix(matrix, {"tfidf", "tficf"}))
        stats = [cell_stats(matrix, i, j) for j, column in enumerate(matrix.columns) for i in column.indices]
        assert len(calls) == len({(s.n_ij, s.n_i, s.b_i) for s in stats}) == 3
        assert len({(s.n_ij, s.n_i, s.n_j, s.b_i) for s in stats}) == 4
        assert len(records) == 6

    def test_idf_and_icf_only_for_the_schemes_that_read_them(self, monkeypatch):
        calls = {"idf": [], "icf": []}
        for name in calls:
            weight = getattr(termfisher.weights, name)

            def counting(stats, weight=weight, seen=calls[name]):
                seen.append(stats)
                return weight(stats)

            monkeypatch.setattr(termfisher.weights, name, counting)
        matrix = ingest_text([("d1", "a b a"), ("d2", "a b c"), ("d3", "c c b")])
        list(weigh_matrix(matrix, {"fisher"}))
        assert calls == {"idf": [], "icf": []}
        records = list(weigh_matrix(matrix, {"tfidf"}))
        keys = {
            (s.n_ij, s.n_i, s.b_i)
            for s in (matrix.cell_stats(i, j) for j, column in enumerate(matrix.columns) for i in column.indices)
        }
        assert len(calls["idf"]) == len(keys) < len(records)
        assert calls["icf"] == []

    def test_one_log_pmf_per_kernel_call(self, monkeypatch):
        # the kernel's anchor and log_hypergeom_pmf both evaluate through _log_pmf
        pmf_calls = []
        pmf = termfisher.numerics._log_pmf

        def counting_pmf(x, K, s, N, memo):
            pmf_calls.append((x, K, s, N))
            return pmf(x, K, s, N, memo)

        per_kernel_call = []
        kernel = termfisher.weights.log_hypergeom_tail

        def counting_kernel(params, memo=None):
            before = len(pmf_calls)
            result = kernel(params, memo)
            per_kernel_call.append(len(pmf_calls) - before)
            return result

        monkeypatch.setattr(termfisher.numerics, "_log_pmf", counting_pmf)
        monkeypatch.setattr(termfisher.weights, "log_hypergeom_tail", counting_kernel)
        # with the zero cells: tails past and below the mode, at the upper
        # support edge (a term filling its document) and at the lower one
        matrix = ingest_text(
            [("d1", "apple apple apple pear plum"), ("d2", "pear pear plum quince"), ("d3", "fig")]
        )
        list(weigh_matrix(matrix, include_zeros=True))
        assert pmf_calls, "no anchor counted: the kernel no longer evaluates through _log_pmf"
        assert per_kernel_call and max(per_kernel_call) <= 1
        assert len(pmf_calls) <= len(per_kernel_call)

    def test_one_tail_evaluation_per_distinct_key(self, monkeypatch):
        calls = []
        kernel = termfisher.weights.log_hypergeom_tail

        def counting(params, memo=None):
            calls.append(params)
            return kernel(params, memo)

        monkeypatch.setattr(termfisher.weights, "log_hypergeom_tail", counting)
        # the six terms seen once, each in a two-word document, share one key
        matrix = ingest_text(
            [("d1", "a b"), ("d2", "c d"), ("d3", "e f"), ("d4", "g h"), ("d5", "a a c")]
        )
        records = list(weigh_matrix(matrix))
        keys = set()
        for j, column in enumerate(matrix.columns):
            for i in column.indices:
                stats = matrix.cell_stats(i, j)
                keys.add((stats.n_ij, stats.n_i, stats.n_j, stats.b_i))
        assert len(calls) == len(keys) < len(records)

    def test_each_call_weighs_its_own_collection(self):
        # cell ("a", "d1") has key (1, 1, 2, 1) in all three matrices;
        # the second differs in n, the third only in d (an empty document)
        base = [("a", "d1", 1), ("b", "d1", 1)]
        small = ingest_counts(base)
        larger_n = ingest_counts(base + [("c", "d2", 2)])
        larger_d = ingest_counts(base + [("a", "d2", 0)])
        first = [list(weigh_matrix(m))[0] for m in (small, larger_n, larger_d)]
        assert first[0].icf != first[1].icf
        assert first[0].idf != first[2].idf
        for matrix in (small, larger_n, larger_d, small):
            assert_matches_cell_by_cell(matrix, include_zeros=False)
            assert_matches_cell_by_cell(matrix, include_zeros=True)

    def test_one_log_choose_per_document_length_per_call(self, monkeypatch):
        calls = []
        log_choose = termfisher.numerics.log_choose

        def counting(a, b):
            calls.append((a, b))
            return log_choose(a, b)

        monkeypatch.setattr(termfisher.numerics, "log_choose", counting)
        # lengths 3, 3, 2 and 4 in one matrix, 2, 5 and 5 in the other, 12
        # tokens in each: a memo that outlived its call would leave out
        # ln C(12, 2) from the second. No term fills its collection, so only
        # ln C(N, n_j) has N as its top
        first = ingest_text([("d1", "a b c"), ("d2", "a a d"), ("d3", "b e"), ("d4", "c d e f")])
        second = ingest_text([("e1", "x y"), ("e2", "x y z w v"), ("e3", "y y z u t")])

        def per_document(matrix):
            """The ln C(N, n_j) evaluations of one weigh_matrix call, by n_j."""
            calls.clear()
            list(weigh_matrix(matrix, {"fisher"}))
            return sorted(b for a, b in calls if a == matrix.grand_total)

        assert per_document(first) == [2, 3, 4]
        assert per_document(second) == [2, 5]
        assert per_document(first) == [2, 3, 4]  # no value survives its call

    def test_one_log_choose_for_the_binomial_mass_per_pair_per_call(self, monkeypatch):
        calls = []
        in_mass = []
        log_choose = termfisher.numerics.log_choose
        log_binom_pmf = termfisher.weights.log_binom_pmf

        def counting(a, b):
            if in_mass:
                calls.append((a, b))
            return log_choose(a, b)

        def mass(*args):
            in_mass.append(True)
            try:
                return log_binom_pmf(*args)
            finally:
                in_mass.pop()

        monkeypatch.setattr(termfisher.numerics, "log_choose", counting)
        monkeypatch.setattr(termfisher.weights, "log_binom_pmf", mass)
        # documents of 2 or 3 tokens and terms of 5 or 6: no tail's ln C(n_i, .)
        # or ln C(n, n_j) has the key (n_j, n_ij) of a binomial mass
        matrix = ingest_text(
            [("d1", "a b c"), ("d2", "a a b"), ("d3", "b c"), ("d4", "c a"), ("d5", "a b c"), ("d6", "b c c")]
        )
        pairs, misses = set(), set()
        for j, column in enumerate(matrix.columns):
            for i in column.indices:
                stats = matrix.cell_stats(i, j)
                pairs.add((stats.n_j, stats.n_ij))
                misses.add((stats.n_ij, stats.n_i, stats.n_j, stats.b_i))
        assert len(pairs) < len(misses)  # one call per miss would be more

        for _ in range(2):  # no value survives its call
            calls.clear()
            list(weigh_matrix(matrix))
            assert sorted(calls) == sorted(pairs)


def _record_lines(records) -> str:
    """The TSV data lines made record by record: the formatter the CLI used
    before it kept one rendered suffix per key."""
    lines = []
    for record in records:
        values = ["NA" if v is None else f"{v:.6f}" for v in record[3:-1]]
        lines.append(f"{record.term}\t{record.doc}\t{record.tf}\t" + "\t".join(values) + "\n")
    return "".join(lines)


MATRICES_AND_SCHEMES = given(
    rows=st.one_of(count_rows(), repeating_count_rows()),
    schemes=st.sets(st.sampled_from(sorted(SCHEMES)), min_size=1),
    include_zeros=st.booleans(),
)


class TestOneWalkTwoConsumers:
    """weigh's TSV and weigh_matrix's records come from one walk: the records,
    formatted one by one, are the TSV, and render runs once per integer key."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @MATRICES_AND_SCHEMES
    def test_tsv_is_the_records_formatted_one_by_one(self, rows, schemes, include_zeros):
        argv = ["weigh", "--format", "counts", "--schemes", ",".join(sorted(schemes))]
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.csv")
            write_counts_csv(path, rows)
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--input", path] + ["--include-zeros"] * include_zeros) == 0
        records = weigh_matrix(ingest_counts(rows), schemes, include_zeros=include_zeros)
        header = "\t".join(WeightRecord._fields[:-1]) + "\n"
        assert out.getvalue() == header + _record_lines(records)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @MATRICES_AND_SCHEMES
    def test_render_runs_once_per_integer_key(self, rows, schemes, include_zeros):
        matrix = ingest_counts(rows)
        tails = []

        def render(tail):
            tails.append(tail)
            return len(tails)  # which call rendered the cell

        cells = list(weigh_matrix(matrix, schemes, include_zeros=include_zeros, render=render))
        records = list(weigh_matrix(matrix, schemes, include_zeros=include_zeros))
        assert [cell[:2] for cell in cells] == [record[:2] for record in records]
        # each cell is given what render made of its own record from tf on
        assert [tails[call - 1] for _, _, call in cells] == [record[2:] for record in records]
        # the key holds n_j and b_i only where a selected scheme reads them
        reads_n_j = not schemes.isdisjoint({"fisher", "phi", "psi", "approximations"})
        reads_b_i = not schemes.isdisjoint({"idf", "tfidf", "psi", "approximations"})
        term_at = {term: i for i, term in enumerate(matrix.vocab)}
        doc_at = {doc: j for j, doc in enumerate(matrix.docs)}
        calls_by_key = {}
        for record, (_, _, call) in zip(records, cells):
            i, j = term_at[record.term], doc_at[record.doc]
            key = (
                record.tf,
                matrix.row_totals[i],
                matrix.col_totals[j] if reads_n_j else 0,
                matrix.doc_freq[i] if reads_b_i else 0,
            )
            calls_by_key.setdefault(key, set()).add(call)
        assert all(len(calls) == 1 for calls in calls_by_key.values())
        assert len(tails) == len(calls_by_key)


@st.composite
def edge_count_rows(draw):
    """Counts rows of one document d0 beside documents that hold only its first
    term, so that cell sits at the lower support edge (n_ij = n_i + n_j - n)
    and scores exactly 0. Term names fall as their indices rise, so a tie
    among d0's cells is broken against the order in which they are stored."""
    counts = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=7))
    others = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    rows = [(f"t{9 - i}", "d0", c) for i, c in enumerate(counts)]
    return rows + [("t9", f"e{j}", c) for j, c in enumerate(others)]


class TestRankMatrix:
    """rank_matrix keeps what sorting every weighed cell keeps, and under
    fisher evaluates only the cells that fewer than top_k others dominate."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(count_rows(), repeating_count_rows(), edge_count_rows()), st.data())
    def test_equals_sorting_every_weighed_cell(self, rows, data):
        matrix = ingest_counts(rows)
        # from 1 to past the longest column: a cut inside a tie group, and none
        top_k = data.draw(st.integers(1, max(len(column.indices) for column in matrix.columns) + 2))
        n = matrix.grand_total
        every, undominated = set(), set()  # kernel keys (n_ij + 1, n_i, n_j, n)
        for j, (indices, counts) in enumerate(matrix.columns):
            n_j = matrix.col_totals[j]
            cells = [(n_ij, matrix.row_totals[i]) for i, n_ij in zip(indices, counts)]
            for a, b in cells:
                every.add((a + 1, b, n_j, n))
                dominators = sum(a2 >= a and b2 <= b and (a2, b2) != (a, b) for a2, b2 in cells)
                if dominators < top_k or a <= b + n_j - n:
                    undominated.add((a + 1, b, n_j, n))
        for scheme, (weighed, field) in RANK_SCHEMES.items():
            calls = []
            kernel = termfisher.weights.log_hypergeom_tail

            def counting(params, memo=None):
                calls.append(tuple(params))
                return kernel(params, memo)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(termfisher.weights, "log_hypergeom_tail", counting)
                ranking = rank_matrix(matrix, scheme, top_k)
            scored = {doc: [] for doc, n_j in zip(matrix.docs, matrix.col_totals) if n_j}
            for record in weigh_matrix(matrix, {weighed}):
                value = getattr(record, field)
                if value is not None:
                    scored[record.doc].append((-float(value), record.term))
            expected = [
                (doc, [(term, -neg) for neg, term in sorted(cells)[:top_k]]) for doc, cells in scored.items()
            ]
            assert ranking == expected, scheme
            if scheme == "fisher":  # counts of at most 4 in at most 25 cells: no tail underflows
                assert sorted(calls) == sorted(undominated)
            else:  # every cell is evaluated; a key with b_i may repeat a tail
                assert set(calls) == (every if weighed in ("phi", "psi", "approximations") else set()), scheme


class TestWeightInvariants:
    def _fixture_records(self):
        matrix = ingest_text(
            [
                ("d1", "apple apple apple pear plum"),
                ("d2", "pear pear plum quince"),
                ("d3", "plum quince quince apple fig"),
            ]
        )
        return list(weigh_matrix(matrix))

    def test_nonnegative_weights(self):
        for record in self._fixture_records():
            for name in ("idf", "icf", "tfidf", "tficf", "neg_log_p"):
                value = getattr(record, name)
                assert value is not None and value >= 0.0

    def test_approximations_consistent_with_components(self):
        for record in self._fixture_records():
            if record.phi is not None:
                assert isclose(record.thm1_approx, record.tficf + record.phi, rel_tol=1e-12)
            if record.psi is not None:
                assert isclose(record.cor1_approx, record.tfidf + record.psi, rel_tol=1e-12)

    def test_strict_positivity_when_containment_not_forced(self):
        # n_j + n_i <= n means the document could avoid the term entirely,
        # so any occurrence is informative and the weight is positive
        for record in self._fixture_records():
            if record.tf > 0:
                assert record.neg_log_p > 0.0

    def test_ranking_sanity_fixture(self):
        # terms with identical totals (n_i = 4, b_i = 2) but different n_ij in d1
        matrix = ingest_counts(
            [("a", "d1", 3), ("b", "d1", 1), ("a", "d2", 1), ("b", "d2", 3)]
        )
        records = {(r.term, r.doc): r for r in weigh_matrix(matrix)}
        top, low = records[("a", "d1")], records[("b", "d1")]
        for name in (
            "tf", "idf", "icf", "tfidf", "tficf", "neg_log_p",
            "phi", "psi", "thm1_approx", "cor1_approx",
        ):
            assert getattr(top, name) >= getattr(low, name)

    def test_concentrated_term_has_idf_above_icf(self):
        # 50 occurrences packed into 1 of 10 documents
        rows = [("dense", "d0", 50)]
        rows += [("filler", f"d{j}", 15) for j in range(10)]
        matrix = ingest_counts(rows)
        stats = matrix.cell_stats(matrix.vocab.index("dense"), matrix.docs.index("d0"))
        assert idf(stats) > icf(stats)

    def test_quotient_band_inside_regime(self):
        from termfisher.verify import default_quotient_grid

        for point in default_quotient_grid()[:10]:
            stats = CellStats(
                n_ij=point.n_ij, n_i=point.n_i, n_j=point.n_j, n=point.n,
                b_i=1, d=point.n // point.n_j,
            )
            assert 0.0 < q_ij(stats) < 1.0


@st.composite
def cells(draw, max_n=10**7, max_n_j=None):
    """A valid (n_ij, n_i, n_j, n) cell with n > 200."""
    n = draw(st.integers(min_value=201, max_value=max_n))
    n_j = draw(st.integers(min_value=1, max_value=min(n, max_n_j or n)))
    n_i = draw(st.integers(min_value=1, max_value=n))
    lo = max(0, n_j - (n - n_i))
    n_ij = draw(st.integers(min_value=lo, max_value=min(n_i, n_j)))
    return n_ij, n_i, n_j, n


# Worst error allowed against exact big-integer arithmetic on the drawn
# cells: absolute for -ln P, relative for q. The numerics module docstring
# and the README state the same budget.
ERROR_BUDGET = 1e-11


class TestLargePopulations:
    @given(cells())
    @settings(max_examples=300, deadline=None)
    def test_weights_are_nonnegative(self, cell):
        stats = make_stats(*cell, b_i=1, d=1)
        assert fisher_weight(stats) >= 0.0
        if stats.n_i < stats.n:
            assert q_ij(stats) >= 0.0

    @given(cells(max_n_j=300))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exact_oracle_up_to_ten_million(self, cell):
        # n_j is kept small so the big-integer sums stay fast
        stats = make_stats(*cell, b_i=1, d=1)
        exact = neg_log_tail(*cell)
        assert abs(fisher_weight(stats) - exact) <= ERROR_BUDGET
        # the kernel's pair at n_ij + 1: ln P(X >= n_ij + 1), ln P(X >= n_ij)
        n_ij, n_i, n_j, n = cell
        past, at = log_hypergeom_tail(HypergeomParams(n_ij + 1, n_i, n_j, n))
        assert abs(at + exact) <= ERROR_BUDGET
        exact_past = tail_fraction(n_ij + 1, n_i, n_j, n)
        if exact_past == 0:
            assert past == -inf
        else:
            assert abs(past - log_fraction(exact_past)) <= ERROR_BUDGET
        if stats.n_i < stats.n:
            try:
                exact = quotient(*cell)
            except OverflowError:
                assert q_ij(stats) == inf
                return
            value = q_ij(stats)
            assert abs(value - exact) <= ERROR_BUDGET * exact
