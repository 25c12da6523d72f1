"""Differential write testing: random update sequences, three engines.

Hypothesis generates interleaved insert/delete/pattern-update sequences
over a small closed vocabulary, applies each sequence to the DB2RDF store
on both backends and to the hexastore baseline, and asserts the engines
agree on a battery of probe queries after every step. Duplicate inserts,
deletes of absent triples, multi-valued upgrade/demote cycles, and spills
all fall out of the vocabulary being tiny relative to the sequence length.
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

from repro import MiniRelBackend, RdfStore, SqliteBackend
from repro.baselines.native_memory import NativeMemoryStore
from repro.core.resilience import (
    ChaosBackend,
    CircuitBreaker,
    FaultPlan,
    ResilientBackend,
    RetryPolicy,
)

from ..conftest import figure1_graph

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

SUBJECTS = ["Google", "IBM", "Android", "Larry_Page", "Newco"]
PREDICATES = ["industry", "founder", "employees", "fresh_pred"]
OBJECTS = ["Software", "Hardware", "Google", "42", "Newval"]

PROBES = [
    "SELECT ?x ?y WHERE { ?x <industry> ?y }",
    "SELECT ?x ?y WHERE { ?x <fresh_pred> ?y }",
    "SELECT ?x WHERE { ?x <founder> ?y . ?y <industry> ?z }",
    "SELECT ?p ?o WHERE { <Google> ?p ?o }",
    "SELECT ?s WHERE { ?s ?p <Software> }",
]

_term = st.sampled_from(SUBJECTS + OBJECTS)
_pred = st.sampled_from(PREDICATES)


@st.composite
def ground_triple(draw) -> str:
    return f"<{draw(_term)}> <{draw(_pred)}> <{draw(_term)}>"


@st.composite
def statement(draw) -> str:
    kind = draw(st.integers(0, 3))
    if kind == 0:
        triples = draw(st.lists(ground_triple(), min_size=1, max_size=3))
        return "INSERT DATA { " + " . ".join(triples) + " }"
    if kind == 1:
        triples = draw(st.lists(ground_triple(), min_size=1, max_size=3))
        return "DELETE DATA { " + " . ".join(triples) + " }"
    if kind == 2:
        return (
            f"DELETE WHERE {{ ?s <{draw(_pred)}> <{draw(_term)}> }}"
        )
    source, target = draw(_pred), draw(_pred)
    return (
        f"DELETE {{ ?s <{source}> ?o }} INSERT {{ ?s <{target}> ?o }} "
        f"WHERE {{ ?s <{source}> ?o }}"
    )


@settings(max_examples=25, deadline=None)
@given(statements=st.lists(statement(), min_size=1, max_size=6))
def test_random_update_sequences_agree_across_engines(statements):
    stores = {
        "minirel": RdfStore.from_graph(figure1_graph()),
        "sqlite": RdfStore.from_graph(figure1_graph(), backend=SqliteBackend()),
        "native": NativeMemoryStore.from_graph(figure1_graph()),
    }
    for step, text in enumerate(statements):
        counts = {
            name: (result.inserted, result.deleted)
            for name, result in (
                (name, store.update(text)) for name, store in stores.items()
            )
        }
        assert counts["minirel"] == counts["sqlite"] == counts["native"], (
            step,
            text,
            counts,
        )
        for probe in PROBES:
            answers = {
                name: tuple(store.query(probe).canonical())
                for name, store in stores.items()
            }
            assert (
                answers["minirel"] == answers["sqlite"] == answers["native"]
            ), (step, text, probe, answers)


def _chaotic_store(backend, fault_seed: int) -> tuple[RdfStore, ChaosBackend]:
    """A store whose backend randomly throws transient faults that the
    retry layer must absorb. ``max_consecutive`` stays below the retry
    attempts so every operation eventually succeeds — the invariant under
    test is that retried faults never corrupt state or lose writes."""
    chaos = ChaosBackend(
        backend, FaultPlan.random(fault_seed, horizon=600, max_consecutive=2)
    )
    resilient = ResilientBackend(
        chaos,
        retry=RetryPolicy(
            attempts=4, base_delay=0, seed=fault_seed, sleep=lambda s: None
        ),
        breaker=CircuitBreaker(failure_threshold=10_000),
    )
    return RdfStore.from_graph(figure1_graph(), backend=resilient), chaos


@settings(max_examples=15, deadline=None)
@given(
    statements=st.lists(statement(), min_size=1, max_size=6),
    fault_salt=st.integers(0, 2**16),
)
def test_faulted_update_sequences_agree_with_clean_reference(
    statements, fault_salt
):
    """The three-engine invariant holds under fault injection: both
    chaos-wrapped engines (transient faults + retries on every backend
    call) stay byte-identical to the fault-free native reference."""
    minirel, chaos_a = _chaotic_store(MiniRelBackend(), SEED ^ fault_salt)
    sqlite, chaos_b = _chaotic_store(
        SqliteBackend(), SEED ^ fault_salt ^ 0x5EED
    )
    stores = {
        "minirel": minirel,
        "sqlite": sqlite,
        "native": NativeMemoryStore.from_graph(figure1_graph()),
    }
    chaos_a.arm()
    chaos_b.arm()
    for step, text in enumerate(statements):
        counts = {
            name: (result.inserted, result.deleted)
            for name, result in (
                (name, store.update(text)) for name, store in stores.items()
            )
        }
        assert counts["minirel"] == counts["sqlite"] == counts["native"], (
            step,
            text,
            counts,
        )
        for probe in PROBES:
            answers = {
                name: tuple(store.query(probe).canonical())
                for name, store in stores.items()
            }
            assert (
                answers["minirel"] == answers["sqlite"] == answers["native"]
            ), (step, text, probe, answers)


def test_wide_sqlite_store_writes_agree_with_hexastore():
    """Writes to a store wider than sqlite's parser stack is deep.

    The loader pins a row by a conjunction over every column of the
    entity's row; with 110 columns a nested rendering of that chain
    overflowed sqlite's parser stack. Adding a subject for an
    already-stored object rewrites that object's reverse row, and the
    delete clears the cell again."""
    wide = RdfStore(
        backend=SqliteBackend(), direct_columns=110, reverse_columns=110
    )
    wide.load_graph(figure1_graph())
    native = NativeMemoryStore.from_graph(figure1_graph())
    for text in (
        "INSERT DATA { <Newco> <industry> <Software> }",
        "DELETE DATA { <Newco> <industry> <Software> }",
        "DELETE DATA { <Google> <industry> <Software> }",
    ):
        wrote, expected = wide.update(text), native.update(text)
        assert (wrote.inserted, wrote.deleted) == (
            expected.inserted,
            expected.deleted,
        ), text
        for probe in PROBES:
            assert tuple(wide.query(probe).canonical()) == tuple(
                native.query(probe).canonical()
            ), (text, probe)
