"""Predicate-oriented baseline: per-predicate tables and translation."""

import pytest

from repro import Graph, Triple, URI
from repro.baselines import VerticalStore
from repro.sparql import query_graph

from ..conftest import FIGURE6_QUERY


@pytest.fixture
def store(fig1_graph):
    return VerticalStore.from_graph(fig1_graph)


class TestLayout:
    def test_one_table_per_predicate(self, store, fig1_graph):
        predicates = {t.predicate.value for t in fig1_graph}
        assert set(store.tables) == predicates

    def test_new_predicate_creates_table(self, store):
        before = len(store.tables)
        store.add(Triple(URI("IBM"), URI("stock"), URI("NYSE")))
        assert len(store.tables) == before + 1
        result = store.query("SELECT ?s WHERE { ?s <stock> ?o }")
        assert result.key_rows() == [("IBM",)]


class TestTranslation:
    def test_star_joins_per_predicate_table(self, store):
        sql = store.explain(
            "SELECT ?s WHERE { ?s <industry> <Software> . ?s <HQ> <Armonk> }"
        )
        # Quoted, so "VP1" does not also count "VP10".
        assert sql.count(f'"{store.tables["industry"]}"') == 1
        assert sql.count(f'"{store.tables["HQ"]}"') == 1

    def test_figure6_matches_reference(self, store, fig1_graph):
        reference = query_graph(fig1_graph, FIGURE6_QUERY)
        assert store.query(FIGURE6_QUERY).matches(reference)

    def test_variable_predicate_unions_all_tables(self, store):
        sql = store.explain("SELECT ?p ?o WHERE { <IBM> ?p ?o }")
        assert sql.count("UNION ALL") == len(store.tables) - 1

    def test_unknown_predicate_is_empty(self, store):
        result = store.query("SELECT ?s WHERE { ?s <no-such-predicate> ?o }")
        assert len(result) == 0

    def test_unknown_predicate_inside_optional(self, store):
        result = store.query(
            "SELECT ?hq ?x WHERE { <IBM> <HQ> ?hq OPTIONAL { <IBM> <nope> ?x } }"
        )
        assert result.key_rows() == [("Armonk", None)]


class TestRepeatedVariable:
    """A variable repeated inside one triple pattern must equate the two
    source columns directly. Before the fix, each occurrence only checked
    compatibility with the incoming context binding — vacuous when that
    binding is NULL (e.g. on the other side of a UNION) — so `?a <p2> ?a`
    silently degraded to an unconstrained scan."""

    GRAPH = [
        ("n3", "p2", "n2"),
        ("n5", "p2", "n3"),
        ("n7", "p2", "n1"),
        ("n4", "p2", "n4"),  # the only genuine self-loop
    ]
    QUERY = (
        "SELECT * WHERE { ?a <p2> ?a . "
        "{ <n5> <p2> ?c } UNION { ?a <p2> <n1> } }"
    )

    def _graph(self):
        return Graph(Triple(URI(s), URI(p), URI(o)) for s, p, o in self.GRAPH)

    def test_self_loop_pattern_after_union(self):
        graph = self._graph()
        store = VerticalStore.from_graph(graph)
        reference = query_graph(graph, self.QUERY)
        assert len(reference) == 1  # only n4 satisfies ?a <p2> ?a
        assert store.query(self.QUERY).matches(reference)

    def test_self_loop_pattern_alone(self):
        graph = self._graph()
        store = VerticalStore.from_graph(graph)
        result = store.query("SELECT ?a WHERE { ?a <p2> ?a }")
        assert result.key_rows() == [("n4",)]
