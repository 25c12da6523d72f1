"""The benchmark's own checks: seeded inputs replay byte for byte, and the
answer digests and self-time arithmetic are right.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    digest_json_results,
    digest_result,
    percentile,
    use_repo_sources,
)

use_repo_sources()

import gen  # noqa: E402
from repro.rdf.terms import Literal, URI  # noqa: E402
from repro.sparql.results import SelectResult  # noqa: E402
from tracing import layer_times  # noqa: E402


def test_same_seed_replays_byte_identical_inputs():
    assert gen.lubm_warm() == gen.lubm_warm()
    assert gen.shuffled_passes(["a", "b", "c"], 3, 4) == gen.shuffled_passes(
        ["a", "b", "c"], 3, 4
    )
    text, entities = gen.dbpedia_cold()
    assert (text, entities) == gen.dbpedia_cold()
    assert gen.dbpedia_requests(3, entities, 500) == gen.dbpedia_requests(
        3, entities, 500
    )
    assert gen.serve_mixed() == gen.serve_mixed()
    assert gen.serve_ops(3, 400) == gen.serve_ops(3, 400)


def test_other_seed_gives_other_inputs():
    assert gen.shuffled_passes(list("abcdef"), 3, 2) != gen.shuffled_passes(
        list("abcdef"), 4, 2
    )
    assert gen.serve_ops(3, 400) != gen.serve_ops(4, 400)
    _, entities = gen.dbpedia_cold()
    assert gen.dbpedia_requests(3, entities, 50) != gen.dbpedia_requests(
        4, entities, 50
    )


def test_dbpedia_requests_mostly_distinct():
    _, entities = gen.dbpedia_cold()
    texts = [text for _, text in gen.dbpedia_requests(1, entities, 1000)]
    assert len(set(texts)) > 900


def test_serve_mix_and_level_store():
    ops = gen.serve_ops(1, 3 * gen.WRITE_EVERY)
    writes = [text for kind, text in ops if kind == "write"]
    assert len(writes) == 3
    assert "DELETE DATA" not in writes[0]
    assert all("DELETE DATA" in text for text in writes[1:])


def test_digests_agree_between_terms_and_json():
    typed = "http://www.w3.org/2001/XMLSchema#integer"
    result = SelectResult(
        ["s", "o"],
        [(URI("http://x/a"), Literal("1", datatype=typed)),
         (URI("http://x/b"), Literal("chat", lang="fr")),
         (URI("http://x/c"), None)],
    )
    document = {
        "head": {"vars": ["s", "o"]},
        "results": {"bindings": [
            {"s": {"type": "uri", "value": "http://x/c"}},
            {"s": {"type": "uri", "value": "http://x/b"},
             "o": {"type": "literal", "value": "chat", "xml:lang": "fr"}},
            {"s": {"type": "uri", "value": "http://x/a"},
             "o": {"type": "literal", "value": "1", "datatype": typed}},
        ]},
    }
    assert digest_result(result) == digest_json_results(document)
    document["results"]["bindings"].pop()
    assert digest_result(result) != digest_json_results(document)


def test_self_time_subtracts_children():
    spans = [
        # id, name, start, end, parent, request, count
        [2, "backends.execute", 1.0, 1.5, 1, 1, 7],
        [1, "sparql.engine.query", 0.0, 2.0, 0, 1, None],
        [3, "core.loader.bulk_load", 5.0, 6.0, 0, 2, None],
    ]
    table = layer_times(spans)
    assert table["read:sparql.engine.query"]["self"] == 1.5
    assert table["read:backends.execute"]["total"] == 0.5
    assert table["read:backends.execute"]["count"] == 7
    assert table["setup:core.loader.bulk_load"]["calls"] == 1


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([4.0], 99) == 4.0
