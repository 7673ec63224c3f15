"""Exception types shared across the package: one per non-usage exit code of
the command line.  Each raise site says in its message which case it hit."""


class DataError(Exception):
    """Input data that cannot be used (exit code 2): a malformed or truncated
    IDX file, a missing class, a single-class label vector, or an array of
    the wrong dimension."""


class NumericalFailure(Exception):
    """A computation that cannot give a reliable answer (exit code 3): a
    numerically singular kernel system, or score statistics too degenerate to
    define a threshold."""
