"""Exception types shared across the toolkit.

Two failure families matter operationally: bad inputs (files, schemas,
impossible parameter values) and estimation breakdowns (rank deficiency,
degenerate samples). The CLI maps them to distinct exit codes.
"""


class DataError(ValueError):
    """Invalid input data or configuration (CLI exit code 2)."""


class EstimationError(RuntimeError):
    """Estimation cannot proceed or produced no valid result (CLI exit code 3)."""
