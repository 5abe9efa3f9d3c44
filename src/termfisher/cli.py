"""Command-line frontend: weigh, rank, table, and sweep subcommands.

Data streams go to stdout (or --output) and are byte-identical across runs
for identical inputs and flags; diagnostics go to stderr. Exit codes:
0 success, 1 I/O failure, 2 invalid input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Iterable, Iterator

from . import __version__
from .corpus import (
    TermDocumentMatrix,
    ascii_float,
    ascii_int,
    csv_rows,
    ingest_counts,
    ingest_text,
    read_corpus_jsonl,
    read_counts_csv,
    read_stopwords,
    read_text_dir,
)
from .errors import DuplicateCellError, DuplicateDocIdError, InputFormatError, TermfisherError
from .numerics import COUNT_LIMIT
from .weights import RANK_SCHEMES, SCHEMES, WeightRecord, rank_matrix, weigh_matrix

TSV_COLUMNS = WeightRecord._fields[:-1]  # every field but notes


# What cli takes from verify, which only table and sweep use: it is imported and
# its names are bound here on first use, so weigh and rank never load it.
_VERIFY_NAMES = (
    "QuotientPoint", "binomial_decay_check", "check_reference_tables", "cor2_convergence",
    "lemma1_sweep", "render_sweep_csv", "render_sweep_text", "render_tables_csv",
    "render_tables_text",
)


def _load_verify() -> None:
    """Bind verify's names into this module, keeping any name already bound
    (a wrapper set with setattr); the commands call whatever is bound."""
    from . import verify

    for name in _VERIFY_NAMES:
        globals().setdefault(name, getattr(verify, name))


def __getattr__(name: str):  # PEP 562: verify's names resolve as attributes of cli
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_verify()
    return globals()[name]


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Write lines (each with its own newline) to --output or stdout."""
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _load_matrix(args: argparse.Namespace) -> TermDocumentMatrix:
    if args.format == "counts":
        if args.stopwords:
            raise InputFormatError("--stopwords applies to tokenized input only (jsonl or textdir)")
        rows, ingest = read_counts_csv(args.input), ingest_counts
    else:
        stopwords = read_stopwords(args.stopwords) if args.stopwords else frozenset()
        rows = (read_corpus_jsonl if args.format == "jsonl" else read_text_dir)(args.input)
        ingest = partial(ingest_text, stopwords=stopwords)
    try:
        matrix = ingest(rows)
    except (DuplicateCellError, DuplicateDocIdError) as exc:
        # the reader is paused at the repeat; it raises the error at that row's line
        rows.throw(exc)
    # below COUNT_LIMIT no cell's arithmetic leaves the float range, so the
    # verdict is taken from n before any cell is evaluated and output can stream
    if matrix.grand_total >= COUNT_LIMIT:
        raise InputFormatError("counts too large for float arithmetic", path=args.input)
    return matrix


def _parse_schemes(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    names = frozenset(name.strip() for name in raw.split(",") if name.strip())
    unknown = names - SCHEMES
    if unknown:
        raise InputFormatError(f"unknown schemes {sorted(unknown)}; valid: {sorted(SCHEMES)}")
    return names


def cmd_weigh(args: argparse.Namespace) -> int:
    matrix, schemes = _load_matrix(args), _parse_schemes(args.schemes)
    cells = weigh_matrix(matrix, schemes, include_zeros=args.include_zeros, render=_render)
    _emit(_weigh_lines(cells), args.output)
    return 0


_TSV_TAIL = "%d\t" + "%.6f\t" * 9 + "%.6f\n"


def _render(tail: tuple) -> str:
    """A record tail from tf on as TSV: tf as an integer, each value with six
    decimals or NA; a tail with no NA takes one format of _TSV_TAIL."""
    if None not in tail:
        return _TSV_TAIL % tail[:-1]
    values = ["NA" if v is None else f"{v:.6f}" for v in tail[1:-1]]
    return f"{tail[0]}\t" + "\t".join(values) + "\n"


def _weigh_lines(cells: Iterable[tuple[str, str, str]]) -> Iterator[str]:
    """The TSV lines: the header, then term, doc and suffix of each cell weigh_matrix yields."""
    yield "\t".join(TSV_COLUMNS) + "\n"
    for term, doc, suffix in cells:
        yield f"{term}\t{doc}\t{suffix}"


def cmd_rank(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise InputFormatError("--top-k must be >= 1")
    matrix = _load_matrix(args)
    ranking = rank_matrix(matrix, args.scheme, args.top_k)
    lines = ["doc\trank\tterm\tscore\n"]
    for doc, top in ranking:
        for rank, (term, score) in enumerate(top, start=1):
            lines.append(f"{doc}\t{rank}\t{term}\t{score:.6f}\n")
    _emit(lines, args.output)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    _load_verify()
    rows, mismatches = check_reference_tables()
    render = render_tables_csv if args.table_format == "csv" else render_tables_text
    _emit([render(rows)], args.output)
    for mismatch in mismatches:
        print(f"mismatch: {mismatch}", file=sys.stderr)
    return 3 if mismatches else 0


def _read_grid_file(path: str) -> list[QuotientPoint]:
    points = []
    for lineno, row in csv_rows(path, ("n", "n_i", "n_j", "n_ij")):
        try:
            n, n_i, n_j, n_ij = (ascii_int(cell) for cell in row)
        except ValueError:
            raise InputFormatError("grid rows must be four integers", path=path, line=lineno) from None
        points.append(QuotientPoint(n=n, n_i=n_i, n_j=n_j, n_ij=n_ij))
    return points


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [ascii_int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputFormatError(f"{flag} expects a comma-separated integer list") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    _load_verify()
    grid = _read_grid_file(args.grid_file) if args.grid_file else None
    quotient = lemma1_sweep(grid)
    convergence = cor2_convergence(
        args.cor2_R, args.cor2_beta, _parse_int_list(args.cor2_d, "--cor2-d")
    )
    decay = binomial_decay_check(
        args.decay_p, args.decay_k, args.decay_s, _parse_int_list(args.decay_N, "--decay-N")
    )
    render = render_sweep_csv if args.sweep_format == "csv" else render_sweep_text
    _emit([render(quotient, convergence, decay)], args.output)
    reasons = quotient.reasons + convergence.reasons + decay.reasons
    for reason in reasons:
        print(f"sweep failure: {reason}", file=sys.stderr)
    return 3 if reasons else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termfisher",
        description="Term weighting (TF-IDF family and the Fisher's exact test "
        "enrichment weight) with built-in numerical validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="input file or directory")
        p.add_argument(
            "--format",
            required=True,
            choices=("jsonl", "counts", "textdir"),
            help="jsonl: corpus lines with id/text; counts: term,doc,count CSV; "
            "textdir: directory of .txt files",
        )
        p.add_argument("--stopwords", help="stopword list, one token per line")
        p.add_argument("--output", help="write the data stream here instead of stdout")

    weigh = sub.add_parser("weigh", help="emit every weight for every nonzero cell as TSV")
    add_input_flags(weigh)
    weigh.add_argument(
        "--schemes",
        help=f"comma-separated subset of {sorted(SCHEMES)}; default: all",
    )
    weigh.add_argument(
        "--include-zeros", action="store_true", help="also emit zero-count cells"
    )
    weigh.set_defaults(func=cmd_weigh)

    rank = sub.add_parser("rank", help="top-k terms per document under one scheme")
    add_input_flags(rank)
    rank.add_argument("--scheme", default="fisher", choices=RANK_SCHEMES)
    rank.add_argument("--top-k", type=ascii_int, required=True, dest="top_k")
    rank.set_defaults(func=cmd_rank)

    table = sub.add_parser(
        "table", help="recompute the built-in reference tables and check every value"
    )
    table.add_argument(
        "--format", dest="table_format", default="text", choices=("text", "csv")
    )
    table.add_argument("--output", help="write the tables here instead of stdout")
    table.set_defaults(func=cmd_table)

    sweep = sub.add_parser(
        "sweep", help="run the quotient, convergence, and pmf-decay property sweeps"
    )
    sweep.add_argument(
        "--grid-file", help="CSV (n,n_i,n_j,n_ij) of quotient grid points to evaluate"
    )
    sweep.add_argument("--cor2-R", type=ascii_int, default=20, dest="cor2_R")
    sweep.add_argument("--cor2-beta", type=ascii_float, default=0.2, dest="cor2_beta")
    sweep.add_argument("--cor2-d", default="100,200,400,800", dest="cor2_d")
    sweep.add_argument("--decay-p", type=ascii_float, default=0.1, dest="decay_p")
    sweep.add_argument("--decay-k", type=ascii_int, default=5, dest="decay_k")
    sweep.add_argument("--decay-s", type=ascii_int, default=20, dest="decay_s")
    sweep.add_argument("--decay-N", default="200,400,800,1600", dest="decay_N")
    sweep.add_argument(
        "--format", dest="sweep_format", default="text", choices=("text", "csv")
    )
    sweep.add_argument("--output", help="write the report here instead of stdout")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TermfisherError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
