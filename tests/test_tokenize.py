"""The tokenizer checked against the reference tokenizer.

``reference_tokenize.py`` holds ``tokenize`` as it was before each token,
with the whitespace before it, took one regex match. On every query of the
golden corpus and the pins, and on seeded variants of them, the two must
give the same tokens (kind, value and its type, line and column) or the
same ParseError (message, line, column, expected and found). The variants
put newlines, ``\\r\\n``, tabs and runs of whitespace between the tokens and
around the query, and splice in strings holding ``\\"``, ``\\\\`` and a
newline, unterminated strings, characters no token starts with (after a
newline too) and numbers too large to be finite.
"""

import random

import pytest

from tgq.dsl.parser import tokenize
from tgq.errors import ParseError

from reference_tokenize import tokenize as reference_tokenize
from test_dsl import corpus_queries
from test_pins import QUERIES as PINS

CORPUS = corpus_queries()

SPACES = [" ", "  ", "\n", "\r\n", "\t", " \n\t ", "\n\n", "\r\n  \r\n", "\x0b", "　"]
FRAGMENTS = [
    '"a\\"b"', '"a\\\\b"', '"line one\nline two"', '"\\\\"', '"é \\n"', '"\t"', '""',
    '"unterminated', '"ends in a backslash\\', '"\\\n"',
    "#", "\n@", "\r\n$", "\t?", "é", "\\",
    "1e999", "-1E+999", "1" + "0" * 400, "2.5e-3", "-0", "7", "1e", "٣", "1.", ".5",
    "t=", "node:", "node:a-b.c", "_x:y", "<=", "!", "!=", "{", "]",
]
EDGE_CASES = [
    "", " ", "\n", "\r\n", "\t \n ", "\"", "\"\n", "#", "\n#", "a\n\n  #",
    'LOOKUP w OF node:a AT t="x\ny"\nFROM', '"a"\n"b\n\nc" d', "1e999", "\n 1e999",
    "  LOOKUP w OF node:a AT t=2  ", "\r\nLOOKUP\r\n w", "x\ty\n\tz",
]


def variant(rng: random.Random, query: str) -> str:
    words = query.split(" ")
    out = words[0]
    for word in words[1:]:
        out += (rng.choice(SPACES) if rng.random() < 0.3 else " ") + word
    if rng.random() < 0.4:
        cut = rng.randrange(len(out) + 1)
        fragment = rng.choice(FRAGMENTS)
        out = out[:cut] + rng.choice(SPACES) + fragment + rng.choice(["", " ", "\n"]) + out[cut:]
    if rng.random() < 0.1:
        out = out[:rng.randrange(len(out) + 1)]
    if rng.random() < 0.3:
        out = rng.choice(SPACES) + out
    if rng.random() < 0.3:
        out += rng.choice(SPACES)
    return out


def outcome(tokenizer, text: str):
    try:
        return [(t.kind, type(t.value), t.value, t.line, t.col) for t in tokenizer(text)]
    except ParseError as err:
        return ("error", err.message, err.line, err.col, err.expected, err.found)


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), repr(text)


@pytest.mark.parametrize("name, texts", [("corpus", CORPUS), ("pins", PINS),
                                          ("edge cases", EDGE_CASES)])
def test_same_tokens_as_reference(name, texts):
    for text in texts:
        assert_same(text)


@pytest.mark.parametrize("seed", range(4))
def test_same_tokens_as_reference_on_variants(seed):
    rng = random.Random(seed)
    base = CORPUS + PINS
    for _ in range(1000):
        assert_same(variant(rng, rng.choice(base)))


def test_variants_reach_every_outcome():
    """The generator makes multi-line queries, strings spanning lines, and
    each of the tokenizer's errors."""
    rng = random.Random(0)
    base = CORPUS + PINS
    seen = set()
    for _ in range(1000):
        text = variant(rng, rng.choice(base))
        got = outcome(tokenize, text)
        if got[0] == "error":
            seen.add("not finite" if "is not finite" in got[1] else "unexpected character")
        else:
            seen.update("multi-line" for t in got if t[3] > 1)
            seen.update("string over lines" for t in got if t[0] == "STRING" and "\n" in t[2])
    assert seen == {"unexpected character", "not finite", "multi-line", "string over lines"}


def test_token_fields():
    first, eof = tokenize("lookup")
    assert (first.kind, first.value, first.line, first.col, first.upper) == (
        "IDENT", "lookup", 1, 1, "LOOKUP")
    assert (eof.kind, eof.value, eof.line, eof.col, eof.upper) == ("EOF", None, 1, 7, "")
