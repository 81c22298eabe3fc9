"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can print a
single machine-parseable line (``CODE: detail``) and scripts can branch
on it without scraping prose.
"""


class PlugnerError(Exception):
    """Base class for all package errors."""

    code = "RUNTIME"


class ShapeError(PlugnerError, ValueError):
    """Operands have incompatible shapes; the message names both."""

    code = "SHAPE_MISMATCH"


class GatherIndexError(PlugnerError, IndexError):
    """A gather index fell outside the table."""

    code = "INDEX_RANGE"


class TapeError(PlugnerError, RuntimeError):
    """Tape misuse, e.g. backward() twice on one tape."""

    code = "TAPE_STATE"


class FormatError(PlugnerError, ValueError):
    """An input file does not parse; the message carries file and line."""

    code = "FORMAT_ERROR"


class ChecksumError(PlugnerError, ValueError):
    """A binary artifact is truncated or corrupted."""

    code = "CHECKSUM_MISMATCH"


class VersionError(PlugnerError, ValueError):
    """A binary artifact was written by an unsupported format version."""

    code = "VERSION_MISMATCH"


class FieldMismatchError(PlugnerError, ValueError):
    """Two configurations disagree; the message lists the differing fields."""

    code = "CONFIG_MISMATCH"


class EvalLengthError(PlugnerError, ValueError):
    """Gold and prediction files cover different numbers of sentences."""

    code = "EVAL_LENGTH_MISMATCH"


class DivergedError(PlugnerError, RuntimeError):
    """Training produced a non-finite loss; state of the last finite step is reported."""

    code = "DIVERGED"


class VocabError(PlugnerError, LookupError):
    """A required word is missing from a fixed vocabulary."""

    code = "VOCAB_MISSING"


class UsageError(PlugnerError, ValueError):
    """Bad command-line invocation."""

    code = "USAGE"
