"""Exception hierarchy for the termfisher package."""


class TermfisherError(Exception):
    """Base class for all termfisher errors."""


class EmptyCollectionError(TermfisherError):
    """No tokens or positive counts survived ingestion."""


class DuplicateDocIdError(TermfisherError):
    """Two input documents share the same identifier."""


class DuplicateCellError(TermfisherError):
    """A (term, doc) pair appears more than once in count input."""


class NegativeCountError(TermfisherError):
    """A count value is negative."""


class IndexOutOfRangeError(TermfisherError, IndexError):
    """A term or document index is outside the matrix."""


class InvalidColumnError(TermfisherError, ValueError):
    """A column given as a pair is not (indices, counts) of one length with
    strictly ascending term indices."""


class NonIntegerCellError(TermfisherError, TypeError):
    """A term index or count given to the matrix is not an int; a bool is
    rejected too, though Python counts it as one."""


class InvalidChooseError(TermfisherError, ValueError):
    """log_choose called with b > a or a negative argument."""


class InvalidProbabilityError(TermfisherError, ValueError):
    """A probability parameter lies outside [0, 1]."""


class UndefinedQuotientError(TermfisherError, ValueError):
    """The tail/binomial quotient is undefined (p_i is 0 or 1)."""


class UndefinedPhiError(TermfisherError, ValueError):
    """The TF-ICF correction is undefined (requires tf >= 1)."""


class InvalidSyntheticSpecError(TermfisherError, ValueError):
    """Parameters do not describe a constructible synthetic collection."""


class InputFormatError(TermfisherError):
    """Malformed input file or invalid command-line flag; carries the offending
    path and line number (no path for a flag, line 0 when the fault is in no
    one line, such as a file name in a text directory)."""

    def __init__(self, message: str, *, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        prefix = f"{path}:{line}: " if path and line else f"{path}: " if path else ""
        super().__init__(prefix + message)
