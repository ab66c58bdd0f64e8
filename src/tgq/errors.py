"""Error type shared across the engine.

Every failure carries a stable machine-readable code so the CLI can map it
to an exit class and tests can assert on it without string matching.
"""

from __future__ import annotations

# Data / ingest
SCHEMA_ERROR = "SCHEMA_ERROR"
CONSISTENCY_ERROR = "CONSISTENCY_ERROR"

# Evaluation
ABSENT_ELEMENT = "ABSENT_ELEMENT"
MISSING_VALUE = "MISSING_VALUE"
TYPE_ERROR = "TYPE_ERROR"
EMPTY_SCOPE = "EMPTY_SCOPE"

# Patterns / relations
KIND_MISMATCH = "KIND_MISMATCH"
FAMILY_MISMATCH = "FAMILY_MISMATCH"
MISSING_TIME_CONTEXT = "MISSING_TIME_CONTEXT"

# Search / tasks
SEARCH_SPACE_EXCEEDED = "SEARCH_SPACE_EXCEEDED"
UNRESOLVED_SIDE = "UNRESOLVED_SIDE"

# Correlation
INSUFFICIENT_SAMPLES = "INSUFFICIENT_SAMPLES"
UNKNOWN_SERIES = "UNKNOWN_SERIES"
VARIANCE_ZERO = "VARIANCE_ZERO"
LENGTH_MISMATCH = "LENGTH_MISMATCH"

# Query language
PARSE_ERROR = "PARSE_ERROR"
VALIDATION_ERROR = "VALIDATION_ERROR"
PLAN_ERROR = "PLAN_ERROR"

DATA_CODES = frozenset({SCHEMA_ERROR, CONSISTENCY_ERROR})


class TgqError(Exception):
    """Engine error with a stable code and optional structured details."""

    def __init__(self, code: str, message: str, **details):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details


class ParseError(TgqError):
    """Syntax error with position and the token set the parser expected."""

    def __init__(self, message: str, line: int, col: int, expected=(), found: str = ""):
        super().__init__(
            PARSE_ERROR,
            f"{message} at line {line}, col {col}"
            + (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""),
            line=line,
            col=col,
            expected=sorted(expected),
            found=found,
        )
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        self.found = found


def read_utf8(path: str, code: str, what: str = "line") -> str:
    """The text of the UTF-8 file at ``path``. Bytes that do not decode are
    a TgqError ``code``, '<what> N: invalid UTF-8 (...)', N their line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        # read() decodes the file in one piece, so err.start is a file offset;
        # lines are counted as str.splitlines counts them
        line = len((err.object[:err.start].decode("utf-8") + "x").splitlines())
        raise TgqError(code, f"{what} {line}: invalid UTF-8 ({err.reason})", line=line) from None
