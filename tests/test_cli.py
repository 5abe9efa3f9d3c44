"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from math import inf, nan
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import termfisher.weights
from termfisher.cli import _render, main
from termfisher.corpus import (
    TermDocumentMatrix,
    ingest_counts,
    ingest_text,
    read_corpus_jsonl,
    read_counts_csv,
)
from termfisher.verify import VALIDATION_SETTINGS
from termfisher.weights import RANK_SCHEMES, WeightRecord, weigh_matrix

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = str(DATA / "corpus.jsonl")
GOLDEN = (DATA / "golden_weigh.tsv").read_text(encoding="utf-8")
GOLDEN_RANK = (DATA / "golden_rank.tsv").read_bytes()
CASE1_CSV = str(DATA / "table4_case1.csv")


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeigh:
    def test_matches_golden_output(self, capsys):
        code, out, err = run_cli("weigh", "--input", CORPUS, "--format", "jsonl", capsys=capsys)
        assert code == 0
        assert out == GOLDEN

    def test_output_file_matches_stdout_stream(self, tmp_path, capsys):
        target = tmp_path / "weigh.tsv"
        code, out, _ = run_cli(
            "weigh", "--input", CORPUS, "--format", "jsonl", "--output", str(target),
            capsys=capsys,
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == GOLDEN

    def test_each_line_is_written_before_the_next_miss_is_evaluated(self, monkeypatch):
        # each memo miss makes one cell_stats call, so the calls count the misses
        misses = []
        cell_stats = TermDocumentMatrix.cell_stats

        def counting(matrix, i, j):
            misses.append((i, j))
            return cell_stats(matrix, i, j)

        written = []  # (line, misses evaluated when it was written)

        class RecordingStdout:
            def write(self, text):
                written.append((text, len(misses)))
                return len(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        monkeypatch.setattr(TermDocumentMatrix, "cell_stats", counting)
        monkeypatch.setattr(sys, "stdout", RecordingStdout())
        assert main(["weigh", "--input", CORPUS, "--format", "jsonl"]) == 0
        assert "".join(line for line, _ in written) == GOLDEN
        # the header before any miss, then line k once the distinct keys
        # (n_ij, n_i, n_j, b_i) among lines 1..k are evaluated, and no more
        matrix = ingest_text(read_corpus_jsonl(CORPUS))
        term_at = {term: i for i, term in enumerate(matrix.vocab)}
        doc_at = {doc: j for j, doc in enumerate(matrix.docs)}
        keys, expected = set(), [0]
        for line in GOLDEN.splitlines()[1:]:
            term, doc, tf = line.split("\t")[:3]
            i, j = term_at[term], doc_at[doc]
            keys.add((int(tf), matrix.row_totals[i], matrix.col_totals[j], matrix.doc_freq[i]))
            expected.append(len(keys))
        assert [count for _, count in written] == expected
        assert len(keys) < len(written) - 1  # some cells share a key

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("--input", CASE1_CSV, "--format", "counts", "--schemes", "tfidf,tficf", "--include-zeros"),
             "golden_weigh_counts.tsv"),
            (("--input", CORPUS, "--format", "jsonl", "--include-zeros"), "golden_weigh_zeros.tsv"),
        ],
    )
    def test_include_zeros_matches_golden_bytes(self, argv, golden, capsys):
        code, out, err = run_cli("weigh", *argv, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / golden).read_bytes()

    def test_mixed_schemes_match_golden_bytes(self, capsys):
        # unselected slots print NA beside selected ones: a partial plan and the per-field render
        code, out, err = run_cli(
            "weigh", "--input", CORPUS, "--format", "jsonl", "--schemes", "fisher,phi,idf", capsys=capsys
        )
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / "golden_weigh_mixed.tsv").read_bytes()

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli("weigh", "--input", CORPUS, "--format", "jsonl", capsys=capsys)
        _, second, _ = run_cli("weigh", "--input", CORPUS, "--format", "jsonl", capsys=capsys)
        assert first == second

    def test_counts_input_reproduces_reference_cell(self, capsys):
        code, out, _ = run_cli("weigh", "--input", CASE1_CSV, "--format", "counts", capsys=capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out), delimiter="\t"))
        focal = next(r for r in rows if r["term"] == "focal" and r["doc"] == "doc00000")
        assert abs(float(focal["neg_log_p"]) - 10.1385) < 5e-5
        assert abs(float(focal["tfidf"]) - 18.7592) < 5e-5

    def test_zero_psi_prints_without_sign(self, tmp_path, capsys):
        # "a" is in every document and fills d2, so psi there is exactly 0
        path = tmp_path / "counts.csv"
        path.write_text("term,doc,count\na,d1,1\na,d2,5\nb,d1,3\n", encoding="utf-8")
        code, out, _ = run_cli("weigh", "--input", str(path), "--format", "counts", capsys=capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out), delimiter="\t"))
        row = next(r for r in rows if r["term"] == "a" and r["doc"] == "d2")
        assert row["psi"] == "0.000000"

    def test_header_is_exact(self, capsys):
        _, out, _ = run_cli("weigh", "--input", CORPUS, "--format", "jsonl", capsys=capsys)
        expected = (
            "term\tdoc\ttf\tidf\ticf\ttfidf\ttficf\tneg_log_p\tq\tphi\tpsi\t"
            "thm1_approx\tcor1_approx"
        )
        assert out.splitlines()[0] == expected

    def test_scheme_subset_marks_others_na(self, capsys):
        _, out, _ = run_cli(
            "weigh", "--input", CORPUS, "--format", "jsonl", "--schemes", "tfidf,fisher",
            capsys=capsys,
        )
        row = out.splitlines()[1].split("\t")
        header = out.splitlines()[0].split("\t")
        record = dict(zip(header, row))
        assert record["tfidf"] != "NA" and record["neg_log_p"] != "NA"
        assert record["icf"] == "NA" and record["phi"] == "NA"

    def test_unknown_scheme_exits_2(self, capsys):
        code, _, err = run_cli(
            "weigh", "--input", CORPUS, "--format", "jsonl", "--schemes", "bm25",
            capsys=capsys,
        )
        assert code == 2
        assert "bm25" in err

    def test_stopwords_are_dropped(self, tmp_path, capsys):
        code, out, _ = run_cli(
            "weigh", "--input", CORPUS, "--format", "jsonl",
            "--stopwords", str(DATA / "stopwords.txt"),
            capsys=capsys,
        )
        assert code == 0
        terms = {line.split("\t")[0] for line in out.splitlines()[1:]}
        assert "and" not in terms
        assert "apple" in terms

    def test_stopwords_with_counts_input_rejected(self, capsys):
        code, _, err = run_cli(
            "weigh", "--input", CASE1_CSV, "--format", "counts",
            "--stopwords", str(DATA / "stopwords.txt"),
            capsys=capsys,
        )
        assert code == 2
        assert "stopwords" in err

    def test_stopwords_with_counts_input_rejected_before_the_file_is_read(self, tmp_path, capsys):
        code, out, err = run_cli(
            "weigh", "--input", CASE1_CSV, "--format", "counts",
            "--stopwords", str(tmp_path / "missing.txt"),
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: --stopwords applies to tokenized input only (jsonl or textdir)\n"

    def test_empty_collection_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"id": "d1", "text": "..."}\n', encoding="utf-8")
        code, _, err = run_cli("weigh", "--input", str(empty), "--format", "jsonl", capsys=capsys)
        assert code == 2
        assert "EmptyCollection" in err

    def test_malformed_counts_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("term,doc,count\na,b,1\na,c,NOPE\n", encoding="utf-8")
        code, _, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert code == 2
        assert f"{bad}:3" in err

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            "weigh", "--input", str(tmp_path / "nope.jsonl"), "--format", "jsonl",
            capsys=capsys,
        )
        assert code == 1

    def test_missing_textdir_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            "weigh", "--input", str(tmp_path / "nope"), "--format", "textdir",
            capsys=capsys,
        )
        assert code == 1
        assert "nope" in err

    def test_textdir_that_is_a_file_exits_1(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("alpha", encoding="utf-8")
        code, _, err = run_cli("weigh", "--input", str(plain), "--format", "textdir", capsys=capsys)
        assert code == 1
        assert "plain.txt" in err

    def test_empty_textdir_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli("weigh", "--input", str(tmp_path), "--format", "textdir", capsys=capsys)
        assert code == 2
        assert "EmptyCollection" in err

    def test_textdir_input(self, tmp_path, capsys):
        (tmp_path / "one.txt").write_text("alpha beta alpha", encoding="utf-8")
        (tmp_path / "two.txt").write_text("beta gamma", encoding="utf-8")
        code, out, _ = run_cli("weigh", "--input", str(tmp_path), "--format", "textdir", capsys=capsys)
        assert code == 0
        docs = {line.split("\t")[1] for line in out.splitlines()[1:]}
        assert docs == {"one", "two"}


def _render_by_field(tail: tuple) -> str:
    """A record tail as TSV made field by field: the formatter the CLI used
    for every tail before a tail with no NA took one template."""
    values = ["NA" if v is None else f"{v:.6f}" for v in tail[1:-1]]
    return f"{tail[0]}\t" + "\t".join(values) + "\n"


class TestRender:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        tf=st.one_of(st.integers(0, 10), st.integers(0, 10**153 - 1)),
        values=st.lists(
            st.one_of(st.floats(), st.sampled_from([0.0, -0.0, inf, -inf, nan])), min_size=10, max_size=10
        ),
        na=st.sets(st.integers(0, 9)),
    )
    @example(tf=10**153 - 1, values=[-0.0, inf, -inf, nan, 0.0, 1e300, -1e-300, 0.5, 2.5, -7.0], na=set())
    @example(tf=0, values=[0.0] * 10, na=set(range(10)))
    def test_equals_the_per_field_formatter(self, tf, values, na):
        tail = (tf, *(None if at in na else v for at, v in enumerate(values)), ())
        assert _render(tail) == _render_by_field(tail)


class TestInvalidUtf8:
    """Bytes that are not UTF-8 exit 2 with path:line, whichever file holds them."""

    BAD = b"\xff\xfe"

    def assert_reported(self, code, err, path, line):
        assert code == 2
        assert f"{path}:{line}: invalid UTF-8" in err

    def test_textdir(self, tmp_path, capsys):
        (tmp_path / "one.txt").write_text("alpha beta", encoding="utf-8")
        bad = tmp_path / "two.txt"
        bad.write_bytes(b"beta\ngamma\ndelta " + self.BAD + b"\n")
        code, _, err = run_cli("weigh", "--input", str(tmp_path), "--format", "textdir", capsys=capsys)
        self.assert_reported(code, err, bad, 3)

    def test_jsonl(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "a", "text": "ok"}\n{"id": "b", "text": "' + self.BAD + b'"}\n')
        code, _, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        self.assert_reported(code, err, bad, 2)

    def test_counts_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"term,doc,count\na,d1,1\n" + self.BAD + b",d1,2\n")
        code, _, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        self.assert_reported(code, err, bad, 3)

    def test_stopwords(self, tmp_path, capsys):
        bad = tmp_path / "stop.txt"
        bad.write_bytes(b"the\n" + self.BAD + b"\n")
        code, _, err = run_cli(
            "weigh", "--input", CORPUS, "--format", "jsonl", "--stopwords", str(bad),
            capsys=capsys,
        )
        self.assert_reported(code, err, bad, 2)

    def test_grid_file(self, tmp_path, capsys):
        bad = tmp_path / "grid.csv"
        bad.write_bytes(b"n,n_i,n_j,n_ij\n1000000,500,200,20\n" + self.BAD + b"\n")
        code, _, err = run_cli("sweep", "--grid-file", str(bad), capsys=capsys)
        self.assert_reported(code, err, bad, 3)

    def test_jsonl_fault_before_the_bytes_on_a_later_line_comes_first(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{bad\n{"id":"x","text":"' + self.BAD + b'"}\n')
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}:1: invalid JSON")

    def test_counts_csv_fault_before_the_bytes_on_a_later_line_comes_first(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"term,doc,count\na,d1,x\n" + self.BAD + b",d1,2\n")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:2: count 'x' is not an integer\n"

    def test_the_reason_is_that_of_the_lines_bytes(self, tmp_path, capsys):
        # a three-byte sequence cut short by the line's end
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "a", "text": "ok"}\n\xe2\x82\n')
        code, _, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        assert code == 2
        assert err == f"error: {bad}:2: invalid UTF-8: invalid continuation byte\n"


class TestRepeatedKeys:
    """A repeated (term, doc) row or document id exits 2 at the line that repeats it."""

    def test_counts_csv(self, tmp_path, capsys):
        bad = tmp_path / "dup.csv"
        # a row that reads like the header is data; the blank line still counts
        bad.write_text("term,doc,count\nterm,doc,1\na,d1,1\n\nb,d1,2\na,d1,3\n", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:6: duplicate cell ('a', 'd1')\n"

    def test_counts_csv_repeat_comes_before_a_later_fault(self, tmp_path, capsys):
        # ingest meets the repeat on line 3 before the reader parses the bad count on line 4
        bad = tmp_path / "dup.csv"
        bad.write_text("term,doc,count\na,d1,1\na,d1,2\nb,d1,x\n", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:3: duplicate cell ('a', 'd1')\n"

    def test_jsonl(self, tmp_path, capsys):
        bad = tmp_path / "dup.jsonl"
        bad.write_text(
            '{"id": "x", "text": "a b"}\n\n{"id": "y", "text": "b"}\n{"id": "x", "text": "c"}\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(
            "rank", "--input", str(bad), "--format", "jsonl", "--top-k", "1", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:4: duplicate document id 'x'\n"

    def test_jsonl_repeat_comes_before_a_later_fault(self, tmp_path, capsys):
        # the reader meets the repeat on line 2 before the bad JSON on line 3
        bad = tmp_path / "dup.jsonl"
        bad.write_text('{"id": "x", "text": "a"}\n{"id": "x", "text": "b"}\n{bad\n', encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:2: duplicate document id 'x'\n"

    def test_textdir_files_of_one_stem(self, tmp_path, capsys):
        # ".txt" and ".txt.txt" both have the stem ".txt"
        (tmp_path / ".txt").write_text("alpha", encoding="utf-8")
        (tmp_path / ".txt.txt").write_text("beta", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(tmp_path), "--format", "textdir", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path}: duplicate document id '.txt'\n"


class TestUnreadableRecords:
    """A record the reader cannot take apart exits 2 at the line it starts on."""

    BIG = "1" * 200_000  # past the csv module's 131,072-character field limit

    def test_counts_field_past_the_csv_limit(self, tmp_path, capsys):
        bad = tmp_path / "counts.csv"
        bad.write_text(f"term,doc,count\na,d1,{self.BIG}\nb,d1,1\n", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {bad}:2: unreadable CSV record: field larger than field limit (131072)\n"
        )

    def test_grid_field_past_the_csv_limit(self, tmp_path, capsys):
        bad = tmp_path / "grid.csv"
        bad.write_text(f"n,n_i,n_j,n_ij\n1000000,{self.BIG},200,20\n", encoding="utf-8")
        code, out, err = run_cli("sweep", "--grid-file", str(bad), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {bad}:2: unreadable CSV record: field larger than field limit (131072)\n"
        )

    def test_a_header_past_the_csv_limit_is_line_1(self, tmp_path, capsys):
        bad = tmp_path / "counts.csv"
        bad.write_text(f"{self.BIG}\na,d1,1\n", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}:1: unreadable CSV record: ")

    def test_counts_row_with_the_wrong_number_of_fields(self, tmp_path, capsys):
        bad = tmp_path / "counts.csv"
        bad.write_text("term,doc,count\na,d1,1\nb,d1\n", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:3: expected 3 fields, got 2\n"

    def test_counts_file_with_only_its_header(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("term,doc,count\n\n", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(path), "--format", "counts", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: EmptyCollectionError: no count rows provided\n"

    def test_jsonl_line_that_is_not_json(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text('{"id": "a", "text": "x"}\n\n{"id": "b", "text": \n', encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:3: invalid JSON: Expecting value\n"

    def test_jsonl_nested_past_the_recursion_limit(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        bad.write_text(f'{{"id": "a", "text": "x"}}\n{{"id": "b", "text": "y", "z": {deep}}}\n', encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}:2: invalid JSON: maximum recursion depth exceeded")

    def test_jsonl_number_past_the_int_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer of more than 4,300 digits
        bad = tmp_path / "corpus.jsonl"
        bad.write_text(f'{{"id": "a", "text": "x", "z": {"1" * 5000}}}\n', encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "jsonl", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}:1: invalid JSON: ")
        assert "Traceback" not in err


class TestCountsAreAsciiDigits:
    """A count or grid value is read only when it is ASCII digits (after an
    optional '-'); anything else exits 2 at the physical line its record
    starts on."""

    NOT_DIGITS = {
        "underscore": "1_0", "leading-space": " 2", "trailing-space": "2 ", "plus": "+2",
        "newline": "1\n", "arabic-indic": "\u0663", "fullwidth": "\uff12", "superscript": "\u00b2",
        "two-signs": "--2",
        # digits, but past the 4,300 that int() converts by default
        "too-long": "1" * 5000,
    }

    def weigh_counts(self, path, capsys):
        return run_cli(
            "weigh", "--input", str(path), "--format", "counts", "--schemes", "tfidf", capsys=capsys
        )

    @pytest.mark.parametrize("raw", NOT_DIGITS.values(), ids=NOT_DIGITS.keys())
    def test_counts_csv(self, raw, tmp_path, capsys):
        bad = tmp_path / "counts.csv"
        bad.write_text(f'term,doc,count\na,d1,1\nb,d1,"{raw}"\nc,d1,x\n', encoding="utf-8")
        code, out, err = self.weigh_counts(bad, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:3: count {raw!r} is not an integer\n"

    def test_negative_count_keeps_its_message(self, tmp_path, capsys):
        bad = tmp_path / "counts.csv"
        bad.write_text("term,doc,count\na,d1,1\nb,d1,-03\n", encoding="utf-8")
        code, out, err = self.weigh_counts(bad, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:3: count -3 is negative\n"

    def test_leading_zeros_are_digits(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("term,doc,count\na,d1,007\nb,d1,0\n", encoding="utf-8")
        code, out, _ = self.weigh_counts(path, capsys)
        assert code == 0
        assert [line.split("\t")[2] for line in out.splitlines()[1:]] == ["7"]

    def test_a_record_holding_a_newline_is_reported_where_it_starts(self, tmp_path, capsys):
        # the record on lines 2-3 holds a newline in its count, so it is the
        # first bad record, reported at its first line; the row on line 4 is not
        bad = tmp_path / "counts.csv"
        bad.write_text('term,doc,count\na,d1,"1\n"\nb,d1,x\n', encoding="utf-8")
        code, out, err = self.weigh_counts(bad, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:2: count '1\\n' is not an integer\n"

    @pytest.mark.parametrize("raw", NOT_DIGITS.values(), ids=NOT_DIGITS.keys())
    def test_grid_file(self, raw, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text(
            f'n,n_i,n_j,n_ij\n1000000,500,200,20\n1000000,"{raw}",200,20\n', encoding="utf-8"
        )
        code, out, err = run_cli("sweep", "--grid-file", str(grid), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {grid}:3: grid rows must be four integers\n"


class TestNamesThatBreakTheTsv:
    """A term or doc name holding a tab, CR, LF or lone surrogate exits 2 at its line."""

    NAMES = {"tab": "a\tb", "lf": "a\nb", "cr": "a\rb"}
    NAMES_AND_SURROGATES = NAMES | {"high-surrogate": "a\ud800", "low-surrogate": "\udfff"}

    def assert_rejected(self, code, out, err, where):
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {where}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", NAMES.values(), ids=NAMES.keys())
    @pytest.mark.parametrize("field", ["term", "doc"])
    def test_counts_csv(self, field, name, tmp_path, capsys):
        bad = tmp_path / "counts.csv"
        row = f'"{name}",d2,2' if field == "term" else f'b,"{name}",2'
        bad.write_bytes(f"term,doc,count\na,d1,1\n{row}\nc,d1,1\n".encode("utf-8"))
        code, out, err = run_cli("weigh", "--input", str(bad), "--format", "counts", capsys=capsys)
        self.assert_rejected(code, out, err, f"{bad}:3")

    @pytest.mark.parametrize("name", NAMES_AND_SURROGATES.values(), ids=NAMES_AND_SURROGATES.keys())
    @pytest.mark.parametrize("command", ["weigh", "rank"])
    def test_jsonl_id(self, command, name, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        lines = [{"id": "ok", "text": "x y"}, {"id": name, "text": "y z"}]
        bad.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        argv = [command, "--input", str(bad), "--format", "jsonl"]
        if command == "rank":
            argv += ["--top-k", "2"]
        code, out, err = run_cli(*argv, capsys=capsys)
        self.assert_rejected(code, out, err, f"{bad}:2")

    def test_jsonl_id_with_a_surrogate_pair_is_one_valid_character(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a\\ud83d\\ude00", "text": "x"}\n', encoding="utf-8")
        code, out, _ = run_cli("weigh", "--input", str(path), "--format", "jsonl", capsys=capsys)
        assert code == 0
        assert out.splitlines()[1].split("\t")[:2] == ["x", "a\U0001f600"]

    def test_other_unprintable_characters_are_kept(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        ids = ["no\u00a0break", "zero\u200bwidth"]
        path.write_text("".join(json.dumps({"id": i, "text": "x"}) + "\n" for i in ids), encoding="utf-8")
        code, out, _ = run_cli("weigh", "--input", str(path), "--format", "jsonl", capsys=capsys)
        assert code == 0
        assert [line.split("\t")[1] for line in out.splitlines()[1:]] == ids

    def test_textdir_name_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "one.txt").write_text("alpha", encoding="utf-8")
        with open(os.path.join(os.fsencode(tmp_path), b"two\xff.txt"), "wb") as handle:
            handle.write(b"beta")
        code, out, err = run_cli("weigh", "--input", str(tmp_path), "--format", "textdir", capsys=capsys)
        self.assert_rejected(code, out, err, tmp_path)
        assert "'two\\udcff.txt'" in err

    def test_textdir_name_with_a_tab(self, tmp_path, capsys):
        (tmp_path / "one.txt").write_text("alpha", encoding="utf-8")
        (tmp_path / "t\two.txt").write_text("beta", encoding="utf-8")
        code, out, err = run_cli("weigh", "--input", str(tmp_path), "--format", "textdir", capsys=capsys)
        self.assert_rejected(code, out, err, tmp_path)
        assert "'t\\two.txt'" in err

    def test_output_file_is_left_untouched(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text('{"id": "a\\ud800", "text": "x"}\n', encoding="utf-8")
        target = tmp_path / "out.tsv"
        target.write_bytes(b"earlier\n")
        code, _, err = run_cli(
            "weigh", "--input", str(bad), "--format", "jsonl", "--output", str(target),
            capsys=capsys,
        )
        assert code == 2
        assert f"{bad}:1" in err
        assert target.read_bytes() == b"earlier\n"


class TestRank:
    def test_exclusive_terms_rank_first(self, capsys):
        code, out, _ = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl",
            "--scheme", "fisher", "--top-k", "3",
            capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "doc\trank\tterm\tscore"
        top = {line.split("\t")[0]: line.split("\t")[2] for line in lines[1:] if line.split("\t")[1] == "1"}
        assert top["essay-bananas"] == "banana"
        assert top["essay-cherries"] == "elderberry"

    def test_full_ranking_matches_sorted_golden_weights(self, capsys):
        # oracle: sort the golden TSV per document by the fisher column
        golden_rows = [line.split("\t") for line in GOLDEN.splitlines()[1:]]
        header = GOLDEN.splitlines()[0].split("\t")
        col = {name: idx for idx, name in enumerate(header)}
        expected: dict[str, list[str]] = {}
        for row in golden_rows:
            expected.setdefault(row[col["doc"]], []).append(row)
        for doc_rows in expected.values():
            doc_rows.sort(key=lambda r: (-float(r[col["neg_log_p"]]), r[col["term"]]))
        _, out, _ = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl",
            "--scheme", "fisher", "--top-k", "99",
            capsys=capsys,
        )
        for line in out.splitlines()[1:]:
            doc, rank, term, score = line.split("\t")
            oracle_row = expected[doc][int(rank) - 1]
            assert oracle_row[col["term"]] == term
            assert oracle_row[col["neg_log_p"]] == score

    def test_top_k_beyond_vocabulary_emits_all_without_padding(self, capsys):
        _, out, _ = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl",
            "--scheme", "tf", "--top-k", "999",
            capsys=capsys,
        )
        apples_rows = [line for line in out.splitlines()[1:] if line.startswith("essay-apples\t")]
        assert len(apples_rows) == 8  # distinct terms in that document

    def test_ties_break_lexicographically(self, tmp_path, capsys):
        corpus = tmp_path / "tie.jsonl"
        corpus.write_text(
            '{"id": "d1", "text": "zebra yak"}\n{"id": "d2", "text": "zebra yak"}\n',
            encoding="utf-8",
        )
        _, out, _ = run_cli(
            "rank", "--input", str(corpus), "--format", "jsonl",
            "--scheme", "fisher", "--top-k", "2",
            capsys=capsys,
        )
        d1 = [line.split("\t") for line in out.splitlines()[1:] if line.startswith("d1\t")]
        assert [row[2] for row in d1] == ["yak", "zebra"]
        # a cut inside the tie group keeps the lexicographically first terms
        corpus.write_text(
            '{"id": "d1", "text": "zebra yak wolf vole vole"}\n'
            '{"id": "d2", "text": "zebra yak wolf"}\n',
            encoding="utf-8",
        )
        _, out, _ = run_cli(
            "rank", "--input", str(corpus), "--format", "jsonl",
            "--scheme", "tf", "--top-k", "3",
            capsys=capsys,
        )
        assert out.splitlines()[1:] == [
            "d1\t1\tvole\t2.000000",
            "d1\t2\twolf\t1.000000",
            "d1\t3\tyak\t1.000000",
            "d2\t1\twolf\t1.000000",
            "d2\t2\tyak\t1.000000",
            "d2\t3\tzebra\t1.000000",
        ]

    def test_invalid_top_k(self, capsys):
        code, _, err = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl", "--top-k", "0",
            capsys=capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("top_k", ["\u0663", "1_0", " 3"])
    def test_top_k_in_digits_other_than_ascii_is_a_usage_error(self, top_k, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rank", "--input", CORPUS, "--format", "jsonl", "--top-k", top_k])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: termfisher rank ")
        assert "error: argument --top-k: invalid" in captured.err


class TestRankPruning:
    """rank --scheme fisher evaluates only the cells that can reach the top k."""

    @staticmethod
    def counting_kernel(monkeypatch):
        calls = []
        kernel = termfisher.weights.log_hypergeom_tail

        def counting(params, memo=None):
            calls.append(tuple(params))
            return kernel(params, memo)

        monkeypatch.setattr(termfisher.weights, "log_hypergeom_tail", counting)
        return calls

    def test_matches_golden_bytes(self, capsys):
        code, out, err = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl", "--top-k", "3", capsys=capsys
        )
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == GOLDEN_RANK

    def test_counts_input_under_tficf_matches_golden_bytes(self, capsys):
        # a scheme other than fisher walks each column in stored order
        code, out, err = run_cli(
            "rank", "--input", CASE1_CSV, "--format", "counts", "--scheme", "tficf", "--top-k", "3",
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / "golden_rank_counts.tsv").read_bytes()

    def test_cor1_approx_matches_golden_bytes(self, capsys):
        # stored order, one sort and a slice per document, and scores below 0
        code, out, err = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl", "--scheme", "cor1_approx", "--top-k", "5",
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / "golden_rank_cor1.tsv").read_bytes()

    def test_kernel_calls_fall_to_the_undominated_keys(self, monkeypatch, capsys):
        calls = self.counting_kernel(monkeypatch)
        code, _, _ = run_cli(
            "rank", "--input", CORPUS, "--format", "jsonl", "--top-k", "3", capsys=capsys
        )
        assert code == 0
        # the oracle: count each cell's dominators over every other cell of its document
        matrix = ingest_text(read_corpus_jsonl(CORPUS))
        n = matrix.grand_total
        every, undominated = set(), set()
        for j, column in enumerate(matrix.columns):
            n_j = matrix.col_totals[j]
            cells = [(n_ij, matrix.row_totals[i]) for i, n_ij in zip(*column)]
            for a, b in cells:
                key = (a + 1, b, n_j, n)
                every.add(key)
                dominators = sum(a2 >= a and b2 <= b and (a2, b2) != (a, b) for a2, b2 in cells)
                if dominators < 3 or a <= b + n_j - n:
                    undominated.add(key)
        assert (len(every), len(undominated)) == (14, 8)
        assert sorted(calls) == sorted(undominated)

    def test_cells_of_equal_key_tie_and_do_not_dominate_each_other(self, tmp_path, capsys):
        corpus = tmp_path / "tie.jsonl"
        corpus.write_text(
            '{"id": "d1", "text": "zebra yak"}\n{"id": "d2", "text": "zebra yak"}\n',
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            "rank", "--input", str(corpus), "--format", "jsonl", "--top-k", "1", capsys=capsys
        )
        assert code == 0
        assert out == "doc\trank\tterm\tscore\nd1\t1\tyak\t0.182322\nd2\t1\tyak\t0.182322\n"

    def test_a_dominator_whose_score_computes_to_0_does_not_count(self, tmp_path, capsys):
        # in d1, a and z each fall about 25,000 below their expected count, so
        # both tails underflow and both score 0.0; z and c dominate a, and the
        # tie at 0.0 still goes by term
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "term,doc,count\nc,d1,100000\na,d1,1\nz,d1,2\na,d2,100000\nz,d2,99999\n", encoding="utf-8"
        )
        code, out, _ = run_cli(
            "rank", "--input", str(counts), "--format", "counts", "--top-k", "2", capsys=capsys
        )
        assert code == 0
        assert out.splitlines()[1:3] == ["d1\t1\tc\t190915.841667", "d1\t2\ta\t0.000000"]

    def test_a_cell_at_the_lower_support_edge_is_evaluated(self, tmp_path, monkeypatch, capsys):
        # (a, d1) has n_ij = n_i + n_j - n = 1, so it scores exactly 0; (z, d1)
        # dominates it, and it is evaluated all the same
        calls = self.counting_kernel(monkeypatch)
        corpus = tmp_path / "edge.jsonl"
        corpus.write_text('{"id": "d1", "text": "a z"}\n{"id": "d2", "text": "a"}\n', encoding="utf-8")
        code, out, _ = run_cli(
            "rank", "--input", str(corpus), "--format", "jsonl", "--top-k", "1", capsys=capsys
        )
        assert code == 0
        assert out == "doc\trank\tterm\tscore\nd1\t1\tz\t0.405465\nd2\t1\ta\t0.405465\n"
        assert sorted(calls) == [(2, 1, 2, 3), (2, 2, 1, 3), (2, 2, 2, 3)]

    @pytest.mark.parametrize(
        "count, code, out",
        [
            (2**512, 2, ""),
            (65 * 10**152, 0, "doc\trank\tterm\tscore\nd1\t1\tb\t353.474174\nd2\t1\ta\t353.474174\n"),
        ],
        ids=["past", "below"],
    )
    def test_a_dominated_huge_cell_leaves_the_float_range_verdict(self, count, code, out, tmp_path, capsys):
        # (a, d1) has n_i = count + 1, and (b, d1) dominates it, so it is not
        # evaluated; (b, d1) computes ln C(n, n_j) with the same n
        big = tmp_path / "big.csv"
        big.write_text(f"term,doc,count\na,d1,1\nb,d1,1\na,d2,{count}\n", encoding="utf-8")
        target = tmp_path / "out.tsv"
        target.write_bytes(b"earlier\toutput\n")
        argv = ["rank", "--input", str(big), "--format", "counts", "--top-k", "1"]
        assert run_cli(*argv, capsys=capsys)[:2] == (code, out)
        assert run_cli(*argv, "--output", str(target), capsys=capsys)[:2] == (code, "")
        assert target.read_text(encoding="utf-8") == (out or "earlier\toutput\n")

    def test_a_score_past_the_float_range_is_invalid_input(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text(f"term,doc,count\na,d1,{10**400}\nb,d1,1\n", encoding="utf-8")
        code, out, err = run_cli(
            "rank", "--scheme", "tf", "--input", str(big), "--format", "counts", "--top-k", "1",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {big}: counts too large for float arithmetic\n"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from(["d1", "d2", "d3", "d4"]),
                st.one_of(st.integers(1, 4), st.integers(1, 400_000)),
            ),
            min_size=1, max_size=24, unique_by=lambda cell: cell[:2],
        ),
        top_k=st.integers(1, 8),
        scheme=st.sampled_from(sorted(RANK_SCHEMES)),
    )
    def test_prints_the_bytes_of_sorting_every_weighed_cell(self, cells, top_k, scheme):
        # at most 24 cells of at most 400,000 each: N <= 10**7
        weighed, field = RANK_SCHEMES[scheme]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.csv")
            Path(path).write_text(
                "term,doc,count\n" + "".join(f"{t},{d},{c}\n" for t, d, c in cells), encoding="utf-8"
            )
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["rank", "--scheme", scheme, "--input", path, "--format", "counts",
                             "--top-k", str(top_k)])
            records = weigh_matrix(ingest_counts(read_counts_csv(path)), {weighed})
        expected = ["doc\trank\tterm\tscore\n"]
        by_doc: dict[str, list] = {}
        for record in records:
            value = getattr(record, field)
            if value is not None:
                by_doc.setdefault(record.doc, []).append((-float(value), record.term))
        for doc, scored in by_doc.items():
            for rank, (neg, term) in enumerate(sorted(scored)[:top_k], start=1):
                expected.append(f"{doc}\t{rank}\t{term}\t{-neg:.6f}\n")
        assert code == 0
        assert out.getvalue() == "".join(expected)


class TestTable:
    def test_default_run_passes(self, capsys):
        code, out, err = run_cli("table", capsys=capsys)
        assert code == 0
        for value in ("5.5429", "171.9977", "86.2241", "10.1385", "7.4240", "24.0226"):
            assert value in out

    def test_csv_mirror(self, capsys):
        code, out, _ = run_cli("table", "--format", "csv", capsys=capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 32
        values = {(r["block"], r["setting"], r["formula"]): r["value"] for r in rows}
        assert values[("large", "exclusive", "neg_log_p")] == "171.9977"

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli("table", capsys=capsys)
        _, second, _ = run_cli("table", capsys=capsys)
        assert first == second

    def test_injected_error_exits_3_and_names_cell(self, monkeypatch, capsys):
        expected = VALIDATION_SETTINGS[0].values  # small/general
        monkeypatch.setitem(expected, "tfidf", expected["tfidf"] + 1.0)
        code, _, err = run_cli("table", capsys=capsys)
        assert code == 3
        assert "small/general tfidf" in err
        assert err == "mismatch: small/general tfidf: computed 40.2359, expected 41.2359\n"


class TestSweep:
    def test_default_sweep_passes(self, capsys):
        code, out, _ = run_cli("sweep", capsys=capsys)
        assert code == 0
        assert "3/3 checks passed" in out

    def test_flag_overrides(self, capsys):
        code, out, _ = run_cli(
            "sweep", "--cor2-R", "20", "--cor2-beta", "0.2", "--cor2-d", "50,100,200",
            capsys=capsys,
        )
        assert code == 0
        assert "d=200" in out

    def test_out_of_regime_grid_file_fails(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        # the second point is a term absent from the collection, a cell CellStats rejects
        grid.write_text("n,n_i,n_j,n_ij\n1000,500,100,50\n1000,0,100,0\n", encoding="utf-8")
        code, out, err = run_cli("sweep", "--grid-file", str(grid), capsys=capsys)
        assert code == 3
        assert "n_i=500" in err
        assert err == (
            "sweep failure: quotient at n=1000 n_i=500 n_j=100 n_ij=50: "
            "q=5.7552248141953015 q outside (0, 1)\n"
            "sweep failure: quotient at n=1000 n_i=0 n_j=100 n_ij=0: "
            "q=None b_i cannot exceed n_i\n"
        )
        assert "sweep summary: 2/3 checks passed" in out

    @pytest.mark.parametrize(
        "argv, failure",
        [
            (("--cor2-R", "2", "--cor2-beta", "0.01", "--cor2-d", "100,200"),
             "convergence errors not halving as required"),
            (("--decay-k", "2", "--decay-N", "10,20"), "pmf gap not halving as required"),
        ],
    )
    def test_a_ratio_outside_its_band_fails(self, argv, failure, capsys):
        code, out, err = run_cli("sweep", *argv, capsys=capsys)
        assert code == 3
        assert err == f"sweep failure: {failure}\n"
        assert "sweep summary: 2/3 checks passed" in out

    def test_bad_grid_file_header(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("a,b,c,d\n1,2,3,4\n", encoding="utf-8")
        code, _, err = run_cli("sweep", "--grid-file", str(grid), capsys=capsys)
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli("sweep", "--format", "csv", capsys=capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"quotient", "convergence", "decay"} <= {r["check"] for r in rows}

    @pytest.mark.parametrize(
        "argv, failure",
        [
            (("--decay-N", ","), "pmf decay"),
            (("--decay-N", "0"), "pmf decay"),
            (("--decay-N", "200,800"), "pmf decay"),
            (("--cor2-d", "400"), "convergence"),
            (("--cor2-d", ","), "convergence"),
            (("--cor2-d", "50,100"), "convergence"),
        ],
    )
    def test_a_check_that_checked_no_ratio_fails(self, argv, failure, capsys):
        code, out, err = run_cli("sweep", *argv, capsys=capsys)
        assert code == 3
        assert f"sweep failure: {failure} checked no doubling pair" in err
        assert "sweep summary: 2/3 checks passed" in out

    def test_grid_file_with_only_a_header_fails(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("n,n_i,n_j,n_ij\n", encoding="utf-8")
        code, out, err = run_cli("sweep", "--grid-file", str(grid), capsys=capsys)
        assert code == 3
        assert "sweep failure: quotient sweep checked no point" in err
        assert "sweep summary: 2/3 checks passed" in out

    @pytest.mark.parametrize("flag", ["--decay-k", "--decay-s"])
    def test_negative_decay_count_is_invalid_input(self, flag, capsys):
        code, _, err = run_cli("sweep", flag, "-1", capsys=capsys)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_blank_lines_in_a_grid_file_are_skipped(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("n,n_i,n_j,n_ij\n\n1000000,500,200,20\n\n", encoding="utf-8")
        code, out, err = run_cli("sweep", "--grid-file", str(grid), "--format", "csv", capsys=capsys)
        assert (code, err) == (0, "")
        assert [r["check"] for r in csv.DictReader(io.StringIO(out))].count("quotient") == 1

    def test_a_point_too_large_for_a_float_is_a_failed_point(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"n,n_i,n_j,n_ij\n{10**400},{10**399},300,30\n", encoding="utf-8")
        code, out, err = run_cli("sweep", "--grid-file", str(grid), capsys=capsys)
        assert code == 3
        assert err.startswith("sweep failure: quotient at n=1")
        assert "Traceback" not in err
        assert "sweep summary: 2/3 checks passed" in out

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "0", "-0.5", "1.5"])
    def test_cor2_beta_outside_the_unit_interval_is_invalid_input(self, beta, capsys):
        code, out, err = run_cli("sweep", f"--cor2-beta={beta}", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: InvalidSyntheticSpecError: beta = {float(beta)} is not in (0, 1]\n"
        )

    @pytest.mark.parametrize("flag", ["--cor2-R", "--decay-N", "--decay-s"])
    def test_a_count_too_large_for_a_float_is_invalid_input(self, flag, capsys):
        code, out, err = run_cli("sweep", flag, str(10**160), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidSyntheticSpecError: ")
        assert err.endswith(": too large for float arithmetic\n")

    def test_a_document_count_too_large_for_a_float_is_invalid_input(self, capsys):
        # beta * d overflows only past the float range; a smaller d is one cell
        code, out, err = run_cli("sweep", "--cor2-d", str(10**400), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidSyntheticSpecError: R = 20, d = 1")
        assert err.endswith(": too large for float arithmetic\n")

    def test_a_billion_documents_is_one_cell_not_a_collection(self, capsys):
        code, out, err = run_cli("sweep", "--cor2-d", "1000000000,2000000000", capsys=capsys)
        assert (code, err) == (0, "")
        assert "d=1000000000 b_i=200000000 error=" in out

    @pytest.mark.parametrize("R", ["0", "-3"])
    def test_a_document_length_below_one_is_invalid_input(self, R, capsys):
        code, out, err = run_cli("sweep", "--cor2-R", R, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidSyntheticSpecError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--cor2-d", "--decay-N"])
    def test_a_list_flag_that_is_not_integers_is_invalid_input(self, flag, capsys):
        code, out, err = run_cli("sweep", flag, "100,2x0", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} expects a comma-separated integer list\n"

    @pytest.mark.parametrize(
        "flag, raw",
        [("--cor2-d", "1_00,\u0662\u0660\u0660"), ("--decay-N", "\u0662\u0660\u0660,400"),
         ("--decay-N", "200,+400")],
    )
    def test_a_list_flag_takes_only_ascii_digits(self, flag, raw, capsys):
        code, out, err = run_cli("sweep", flag, raw, "--format", "csv", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} expects a comma-separated integer list\n"

    def test_spaces_around_list_commas_are_accepted(self, capsys):
        code, out, err = run_cli("sweep", "--cor2-d", "100, 200,400 ,800", capsys=capsys)
        assert (code, err) == (0, "")
        assert "d=800 " in out

    @pytest.mark.parametrize("flag", ["--cor2-R", "--decay-k", "--decay-s"])
    def test_a_count_flag_in_digits_other_than_ascii_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", flag, "\u0662\u0660"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: termfisher sweep ")
        assert f"error: argument {flag}: invalid" in captured.err

    @pytest.mark.parametrize("flag", ["--cor2-beta", "--decay-p"])
    @pytest.mark.parametrize("raw", ["\u0660.\u0662", "1_0e-1", " 0.2", "0.2 ", "+0.2", "0.\uff12"])
    def test_a_float_flag_outside_ascii_is_a_usage_error(self, flag, raw, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", f"{flag}={raw}"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: termfisher sweep ")
        assert f"error: argument {flag}: invalid" in captured.err

    def test_float_flags_take_exponents(self, capsys):
        # the defaults, 0.2 and 0.1, written another way print the default report
        code, out, err = run_cli("sweep", "--cor2-beta", "2e-1", "--decay-p", "1.0E-1", capsys=capsys)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / "golden_sweep.txt").read_bytes()


class TestGoldenReports:
    """table, as text and as CSV, and the default sweep as text print these bytes.

    The sweep CSV is left out: it prints full repr floats, whose last digit
    can differ from one libm to another.
    """

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("table",), "golden_table.txt"),
            (("table", "--format", "csv"), "golden_table.csv"),
            (("sweep",), "golden_sweep.txt"),
        ],
    )
    def test_output_matches_golden_bytes(self, argv, golden, capsys):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / golden).read_bytes()


class TestOutputFile:
    """--output receives exactly the bytes stdout would, and only on success."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("rank", "--input", CORPUS, "--format", "jsonl", "--top-k", "3"),
            ("table",),
            ("table", "--format", "csv"),
            ("sweep",),
            ("sweep", "--format", "csv"),
        ],
    )
    def test_output_file_matches_stdout(self, argv, tmp_path, capsys):
        code, out, _ = run_cli(*argv, capsys=capsys)
        assert code == 0
        target = tmp_path / "out"
        code, rest, _ = run_cli(*argv, "--output", str(target), capsys=capsys)
        assert code == 0
        assert rest == ""
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("command", ["weigh", "rank"])
    def test_malformed_input_leaves_output_untouched(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("term,doc,count\na,b,1\na,c,NOPE\n", encoding="utf-8")
        target = tmp_path / "out.tsv"
        target.write_bytes(b"earlier\toutput\n")
        argv = [command, "--input", str(bad), "--format", "counts", "--output", str(target)]
        if command == "rank":
            argv += ["--top-k", "2"]
        code, _, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert f"{bad}:3" in err
        assert target.read_bytes() == b"earlier\toutput\n"

    @pytest.mark.parametrize(
        "argv", [("weigh", "--schemes", "fisher"), ("rank", "--top-k", "2")], ids=["weigh", "rank"]
    )
    def test_counts_past_the_float_range_are_invalid_input(self, argv, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text(f"term,doc,count\na,d1,{2**512}\nb,d1,1\na,d2,1\n", encoding="utf-8")
        argv = [*argv, "--input", str(big), "--format", "counts"]
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {big}: counts too large for float arithmetic\n"
        target = tmp_path / "out.tsv"
        target.write_bytes(b"earlier\toutput\n")
        code, out, _ = run_cli(*argv, "--output", str(target), capsys=capsys)
        assert (code, out) == (2, "")
        assert target.read_bytes() == b"earlier\toutput\n"

    @pytest.mark.parametrize(
        "scheme, rows",
        [("fisher", "a,d1,{n_1}\nb,d1,1\nc,d2,{n}\n"), ("phi", "a,d1,{n}\nb,d1,{n}\nc,d2,1\n")],
        ids=["tail", "binomial"],
    )
    def test_counts_just_below_2_to_the_512_are_invalid_input(self, scheme, rows, tmp_path, capsys):
        # ln C(a, b) with 2 pi b (a - b) past the float range: the tail of cell
        # (b, d1), or the binomial mass of (a, d1), printed nan at exit 0
        big = tmp_path / "big.csv"
        n = 65 * 10**152
        big.write_text("term,doc,count\n" + rows.format(n=n, n_1=n - 1), encoding="utf-8")
        code, out, err = run_cli(
            "weigh", "--schemes", scheme, "--input", str(big), "--format", "counts", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: {big}: counts too large for float arithmetic\n"

    # n = 10**154 - 1 or 10**154, with d1 holding about n / 2, so ln C(n, n_j)
    # is as near the float range as a collection below the bound takes it
    @staticmethod
    def boundary_counts(tmp_path, n):
        half = (n - 1) // 2
        path = tmp_path / "boundary.csv"
        path.write_text(f"term,doc,count\na,d1,{half}\nb,d1,1\nc,d2,{n - half - 1}\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "argv",
        [("weigh",), *(("rank", "--scheme", scheme, "--top-k", "2") for scheme in sorted(RANK_SCHEMES))],
        ids=lambda argv: "-".join(argv[:3:2]),
    )
    def test_counts_just_below_the_bound_are_weighed(self, argv, tmp_path, capsys):
        path = self.boundary_counts(tmp_path, 10**154 - 1)
        code, out, err = run_cli(*argv, "--input", str(path), "--format", "counts", capsys=capsys)
        assert (code, err) == (0, "")
        assert "nan" not in out
        assert len(out.splitlines()) == 4  # the header and a line per cell

    @pytest.mark.parametrize(
        "argv", [("weigh",), ("weigh", "--schemes", "tf,tfidf"), ("rank", "--top-k", "2")],
        ids=["weigh", "weigh-tf-tfidf", "rank"],
    )
    def test_counts_at_the_bound_are_invalid_input(self, argv, tmp_path, capsys):
        path = self.boundary_counts(tmp_path, 10**154)
        argv = [*argv, "--input", str(path), "--format", "counts"]
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: counts too large for float arithmetic\n"
        target = tmp_path / "out.tsv"
        target.write_bytes(b"earlier\toutput\n")
        assert run_cli(*argv, "--output", str(target), capsys=capsys)[:2] == (2, "")
        assert target.read_bytes() == b"earlier\toutput\n"


class TestStartUp:
    """weigh and rank start without loading what only table and sweep run."""

    # every name cli takes from verify; the benchmark's tracer wraps the last four
    VERIFY_NAMES = (
        "QuotientPoint", "render_sweep_csv", "render_sweep_text", "render_tables_csv",
        "render_tables_text", "check_reference_tables", "lemma1_sweep", "cor2_convergence",
        "binomial_decay_check",
    )

    @staticmethod
    def loaded_by_import(names):
        """The (exit code, stdout, stderr) of printing which of names a fresh
        `python -S` has in sys.modules after `import termfisher.cli`."""
        code = f"import sys, termfisher.cli; print(sorted({set(names)!r} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        )
        return result.returncode, result.stdout, result.stderr

    def test_import_leaves_out_dataclasses_inspect_and_verify(self):
        assert self.loaded_by_import({"dataclasses", "inspect", "termfisher.verify"}) == (0, "[]\n", "")

    def test_import_loads_no_heapq(self):
        # rank takes each document's top k with one sort and a slice
        assert self.loaded_by_import({"heapq"}) == (0, "[]\n", "")

    def test_verify_names_are_attributes_of_cli(self):
        import termfisher.cli
        import termfisher.verify

        for name in self.VERIFY_NAMES:
            assert getattr(termfisher.cli, name) is getattr(termfisher.verify, name)

    @pytest.mark.parametrize(
        "name, command",
        [
            ("check_reference_tables", "table"), ("lemma1_sweep", "sweep"),
            ("cor2_convergence", "sweep"), ("binomial_decay_check", "sweep"),
        ],
    )
    def test_a_name_bound_on_cli_before_main_is_what_runs(self, name, command, monkeypatch, capsys):
        import termfisher.cli
        import termfisher.verify

        original = getattr(termfisher.verify, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # as in a fresh process: nothing of verify bound yet, then the wrapper
        for other in self.VERIFY_NAMES:
            monkeypatch.delitem(vars(termfisher.cli), other, raising=False)
        monkeypatch.setitem(vars(termfisher.cli), name, wrapper)
        code, _, _ = run_cli(command, capsys=capsys)
        assert code == 0
        assert len(calls) == 1
        assert getattr(termfisher.cli, name) is wrapper


class TestModuleInvocation:
    def test_weigh_via_subprocess_matches_golden_bytes(self):
        result = subprocess.run(
            [sys.executable, "-m", "termfisher", "weigh", "--input", CORPUS, "--format", "jsonl"],
            capture_output=True,
        )
        assert result.returncode == 0
        assert result.stdout.decode("utf-8") == GOLDEN

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "termfisher", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "termfisher" in result.stdout


# -- the CLI contract over generated input files ------------------------------


def mostly(good, bad):
    """good seven times in eight, so that many examples get past every fault."""
    return st.sampled_from([good] * 7 + [bad]).flatmap(lambda strategy: strategy)


# names, some of which a CSV writer must quote, and names that are faults: a
# tab, CR or LF breaks the TSV, and on Python 3.10 the csv module rejects NUL
NAMES = mostly(
    st.sampled_from(["a", "b", "c", "", "x y", "d,1", 'q"t', "é", "٣", "\x85"]),
    st.sampled_from(["t\tb", "l\nf", "c\rr", "n\x00l"]),
)
# counts and grid values stay at or below 10**6 in size: the tail kernel's
# work grows with the square root of the variance
VALUES = mostly(
    st.one_of(st.integers(0, 9), st.integers(-2, 10**6)).map(str),
    st.sampled_from(["", "x", " 1", "1_0", "+2", "２", "1e3", "007", "-1"]),
)
BAD_BYTE = mostly(st.none(), st.integers(0, 10**4))  # where to splice in a non-UTF-8 byte
NEWLINES = st.sampled_from(["\n", "\r\n"])
FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


def _encode(text: str, bad_at: int | None) -> bytes:
    data = text.encode("utf-8")
    if bad_at is not None:
        at = bad_at % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def _csv_text(header: list[str], rows: list[list[str]], newline: str) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow(header)
    writer.writerows(rows)  # an empty row is a blank line
    return buffer.getvalue()


def _corpus_argv(command: str, path: str, fmt: str) -> list[str]:
    argv = [command, "--input", path, "--format", fmt]
    return argv + ["--top-k", "2"] if command == "rank" else argv


def assert_contract(argv: list[str], files: dict[str, bytes], directory: str | None = None) -> None:
    """main(argv) exits 0-3 without raising; an exit 2 names a file at one of
    its lines, the directory, or a collection-level error; exit 0 writes UTF-8
    rows of the command's width."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 2:
        located = err.startswith("error: EmptyCollectionError: ") or (
            directory is not None and err.startswith(f"error: {directory}: ")
        )
        for path, data in files.items():
            prefix = f"error: {path}:"
            if err.startswith(prefix):
                line, sep, _ = err[len(prefix):].partition(": ")
                last = data.count(b"\n") + data.count(b"\r") + 1
                located |= bool(sep) and line.isdigit() and 1 <= int(line) <= last
        assert located, err
    if code == 0:
        out.encode("utf-8")  # no lone surrogate reached stdout
        width = {"weigh": 13, "rank": 4}.get(argv[0])
        if width:
            assert out.endswith("\n")
            assert all(row.count("\t") == width - 1 for row in out.split("\n")[:-1]), out


class TestFuzzedContract:
    """Every reader, over generated files: nothing escapes main, each fault is located."""

    @FUZZ
    @given(
        command=st.sampled_from(["weigh", "rank"]),
        header=mostly(st.just(["term", "doc", "count"]), st.lists(NAMES, max_size=4)),
        rows=st.lists(
            mostly(st.tuples(NAMES, NAMES, VALUES).map(list), st.lists(st.one_of(NAMES, VALUES), max_size=5)),
            max_size=8,
        ),
        newline=NEWLINES,
        bad_at=BAD_BYTE,
    )
    def test_counts_csv(self, command, header, rows, newline, bad_at):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.csv")
            data = _encode(_csv_text(header, rows, newline), bad_at)
            Path(path).write_bytes(data)
            assert_contract(_corpus_argv(command, path, "counts"), {path: data})

    @FUZZ
    @given(
        command=st.sampled_from(["weigh", "rank"]),
        lines=st.lists(
            mostly(
                st.builds(
                    lambda doc_id, text: json.dumps({"id": doc_id, "text": text}),
                    mostly(st.text(alphabet="abcé\x85", min_size=1, max_size=3), st.sampled_from(["t\tb", "l\nf", "\ud800"])),
                    st.text(alphabet="ab cé\n\t._5", max_size=12),
                ),
                st.sampled_from([
                    "", "  ", "null", "[1]", "{bad", '{"id": 5, "text": "x"}', '{"id": "a"}',
                    '{"id": "z", "text": "q", "n": ' + "1" * 5000 + "}",
                    '{"id": "z", "text": "q", "n": ' + "[" * 100_000 + "]" * 100_000 + "}",
                ]),
            ),
            max_size=6,
        ),
        newline=NEWLINES,
        bad_at=BAD_BYTE,
    )
    def test_jsonl(self, command, lines, newline, bad_at):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.jsonl")
            data = _encode(newline.join(lines), bad_at)
            Path(path).write_bytes(data)
            assert_contract(_corpus_argv(command, path, "jsonl"), {path: data})

    @FUZZ
    @given(
        command=st.sampled_from(["weigh", "rank"]),
        entries=st.lists(
            st.tuples(
                mostly(
                    st.sampled_from([b"a.txt", b"b.txt", b".txt", b".txt.txt", b"c.md"]),
                    st.sampled_from([b"t\tb.txt", b"l\nf.txt", b"\xff.txt", b"dir.txt"]),
                ),
                st.text(alphabet="ab cé\n.", max_size=12),
                BAD_BYTE,
            ),
            max_size=4,
        ),
    )
    def test_textdir(self, command, entries):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "docs")
            os.mkdir(root)
            files = {}
            for name, text, bad_at in entries:
                target = os.path.join(os.fsencode(root), name)
                if name == b"dir.txt":  # a directory the reader cannot open (exit 1)
                    os.makedirs(target, exist_ok=True)
                    continue
                data = _encode(text, bad_at)
                Path(os.fsdecode(target)).write_bytes(data)
                files[os.fsdecode(target)] = data
            assert_contract(_corpus_argv(command, root, "textdir"), files, directory=root)

    @FUZZ
    @given(
        command=st.sampled_from(["weigh", "rank"]),
        words=st.lists(st.text(alphabet="ab \tANDé\r", max_size=6), max_size=6),
        bad_at=BAD_BYTE,
    )
    def test_stopwords(self, command, words, bad_at):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stop.txt")
            data = _encode("\n".join(words), bad_at)
            Path(path).write_bytes(data)
            argv = _corpus_argv(command, CORPUS, "jsonl") + ["--stopwords", path]
            assert_contract(argv, {path: data})

    @FUZZ
    @given(
        header=mostly(st.just(["n", "n_i", "n_j", "n_ij"]), st.lists(NAMES, max_size=4)),
        rows=st.lists(
            mostly(st.lists(st.integers(-3, 10**6).map(str), min_size=4, max_size=4), st.lists(VALUES, max_size=6)),
            max_size=6,
        ),
        newline=NEWLINES,
        bad_at=BAD_BYTE,
    )
    def test_grid_file(self, header, rows, newline, bad_at):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            data = _encode(_csv_text(header, rows, newline), bad_at)
            Path(path).write_bytes(data)
            assert_contract(["sweep", "--grid-file", path], {path: data})
