"""Term weighting over bag-of-words collections.

Classical TF-IDF-family weights alongside the enrichment weight -log H (the
negative log p-value of a one-tailed Fisher's exact test), plus a validation
harness for the numerical relationships connecting them.
"""

__version__ = "0.1.0"

from .corpus import (
    CellStats,
    TermDocumentMatrix,
    ingest_counts,
    ingest_text,
    tokenize,
)
from .numerics import (
    NEG_INFINITY,
    HypergeomParams,
    log_binom_pmf,
    log_choose,
    log_factorial,
    log_hypergeom_pmf,
    log_hypergeom_tail,
)
from .weights import (
    RANK_SCHEMES,
    SCHEMES,
    WeightRecord,
    fisher_weight,
    icf,
    idf,
    phi,
    psi,
    q_ij,
    tfidf,
    rank_matrix,
    tficf,
    weigh_matrix,
)

__all__ = [
    "__version__",
    "CellStats",
    "TermDocumentMatrix",
    "ingest_counts",
    "ingest_text",
    "tokenize",
    "NEG_INFINITY",
    "HypergeomParams",
    "log_binom_pmf",
    "log_choose",
    "log_factorial",
    "log_hypergeom_pmf",
    "log_hypergeom_tail",
    "RANK_SCHEMES",
    "SCHEMES",
    "WeightRecord",
    "fisher_weight",
    "icf",
    "idf",
    "phi",
    "psi",
    "q_ij",
    "rank_matrix",
    "tfidf",
    "tficf",
    "weigh_matrix",
]
