"""The reference tokenizer for ``tests/test_tokenize.py``.

This is ``dsl.parser.tokenize`` and its ``Token`` as they were before the
tokenizer took each token, with the whitespace before it, in one regex
match: a run of whitespace is a match of its own, the matched group is
found through ``groupdict()``, line and column advance over every match,
and a token is a frozen dataclass. They are kept as written, so that the
one-match tokenizer can be compared with them token for token and error
for error.
"""

import math
import re
from dataclasses import dataclass

from tgq.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
  | (?P<ref>[A-Za-z_][A-Za-z0-9_]*:[A-Za-z0-9_.\-]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|=|<|>|\(|\)|\[|\]|\{|\}|,|:)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUMBER | STRING | REF | OP | EOF
    value: object
    line: int
    col: int

    @property
    def upper(self) -> str:
        return self.value.upper() if isinstance(self.value, str) else ""


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col,
                             found=text[pos])
        groups = m.groupdict()
        raw = m.group(0)
        if groups["ws"] is None:
            if groups["string"] is not None:
                value = re.sub(r"\\(.)", r"\1", raw[1:-1])
                tokens.append(Token("STRING", value, line, col))
            elif groups["number"] is not None:
                if not math.isfinite(float(raw)):
                    raise ParseError(f"number {raw} is not finite", line, col, found=raw)
                num = float(raw) if ("." in raw or "e" in raw or "E" in raw) else int(raw)
                tokens.append(Token("NUMBER", num, line, col))
            elif groups["ref"] is not None:
                tokens.append(Token("REF", raw, line, col))
            elif groups["ident"] is not None:
                tokens.append(Token("IDENT", raw, line, col))
            else:
                tokens.append(Token("OP", raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("EOF", None, line, col))
    return tokens
