"""Relations between the answers of related queries, checked at query level
over the batches of ``answer_batches``: the golden corpus, the pins and a
fixed batch of random queries.

- The canonical text answers alike: ``run_query(q)`` and
  ``run_query(pp(parse(q)))`` give the same envelope, ``elapsed_ms``
  dropped. A text that does not parse has no canonical text.

That hash seeds do not change answers is checked in ``test_cli.py``, which
runs the same batches in two processes.
"""

import pytest

from tgq.dsl import parse
from tgq.errors import TgqError

from answer_batches import answer, batches

BATCHES = batches()


def canonical(text: str):
    try:
        return parse(text).pp()
    except TgqError:
        return None


def test_batches_are_full():
    assert {name: len(texts) for name, (_, _, texts) in BATCHES.items()} == {
        "corpus": 176, "pins": 239, "random": 1000}


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_canonical_text_answers_alike(name):
    graph, cfg, texts = BATCHES[name]
    parsed = 0
    for text in texts:
        pp = canonical(text)
        if pp is None:
            continue
        parsed += 1
        given, again = answer(text, graph, cfg), answer(pp, graph, cfg)
        if "error" in given:  # an error envelope quotes the text it was given
            given["query"] = again["query"]
        assert given == again, text
    assert parsed > len(texts) // 2
