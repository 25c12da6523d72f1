"""Seeded inputs for the benchmark: N-Triples text and SPARQL text only.

The datasets are fixed and the request streams are a pure function of the
workload's seed, so one seed always yields byte-identical inputs
(``test_perfbench.py`` checks this). The datasets come from the repo's own
paper-workload generators (``repro.workloads.lubm`` / ``dbpedia``); the
request templates and their constants are drawn here.
"""

from __future__ import annotations

import random

from repro.rdf import ntriples
from repro.workloads import dbpedia, lubm

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
PREFIX = (
    f"PREFIX ub: <{UB}> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)
DB_PREFIX = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "PREFIX dbo: <http://dbpedia.org/ontology/> "
    "PREFIX dbr: <http://dbpedia.org/resource/> "
)

LUBM_WARM_UNIVERSITIES = 10
SERVE_UNIVERSITIES = 4
DBPEDIA_TRIPLES = 30_000
DBPEDIA_TAIL_PREDICATES = 400

#: the serve-mixed mix: one write per WRITE_EVERY operations
WRITE_EVERY = 50

#: Every run measures the same stores: the datasets are fixed, and
#: ``--seed`` draws the request streams (order, constants, write tags).
#: Data drawn per seed changed the store's column layout, and with it the
#: cost of each write by up to 40%, which swamped the run-to-run spread.
DATA_SEED = 42


# ------------------------------------------------------------------ lubm-warm


def lubm_warm() -> tuple[str, dict[str, str]]:
    """LUBM(10) as N-Triples plus the 12 expanded LUBM queries."""
    data = lubm.generate(LUBM_WARM_UNIVERSITIES, seed=DATA_SEED)
    return ntriples.serialize(data.graph), lubm.queries(LUBM_WARM_UNIVERSITIES)


def shuffled_passes(names: list[str], seed: int, passes: int) -> list[str]:
    """``passes`` back-to-back passes over ``names``, each in a seeded
    shuffled order (every template runs equally often)."""
    rng = random.Random(seed)
    order: list[str] = []
    for _ in range(passes):
        batch = list(names)
        rng.shuffle(batch)
        order.extend(batch)
    return order


# --------------------------------------------------------------- dbpedia-cold

#: selective, log-style DBpedia templates (DQ1, DQ3, DQ4, DQ8, DQ15, DQ16)
DBPEDIA_TEMPLATES = {
    "DQ1": "SELECT ?p ?o WHERE {{ dbr:Entity_{e} ?p ?o }}",
    "DQ3": 'SELECT ?s WHERE {{ ?s rdfs:label "Entity {e}" }}',
    "DQ4": "SELECT ?label WHERE {{ dbr:Entity_{e} rdfs:label ?label }}",
    "DQ8": "SELECT ?bp ?bd WHERE {{ dbr:Entity_{e} dbo:birthPlace ?bp . "
           "dbr:Entity_{e} dbo:birthDate ?bd }}",
    "DQ15": "SELECT ?s WHERE {{ ?s dbo:birthPlace dbr:Value_{v} }}",
    "DQ16": "SELECT DISTINCT ?type WHERE {{ ?s dbo:country dbr:Value_{v} . "
            "?s rdf:type ?type }}",
}
#: hub values the DQ15/DQ16 constants are drawn from (the most linked ones)
DBPEDIA_HUBS = 400


def dbpedia_cold() -> tuple[str, int]:
    """Synthetic DBpedia (~30k triples, 420 predicates) as N-Triples, and
    the number of entities it holds."""
    data = dbpedia.generate(
        DBPEDIA_TRIPLES, DBPEDIA_TAIL_PREDICATES, seed=DATA_SEED
    )
    entities = sum(
        1 for triple in data.graph if triple.predicate == dbpedia.RDFS_LABEL
    )
    return ntriples.serialize(data.graph), entities


def dbpedia_requests(
    seed: int, entities: int, count: int
) -> list[tuple[str, str]]:
    """``count`` (template, query text) pairs, each with fresh uniform
    constants, cycling the templates in seeded shuffled passes. There are
    ~17k distinct texts, far more than the 128-entry plan cache."""
    rng = random.Random(seed * 31 + 7)
    names = shuffled_passes(
        list(DBPEDIA_TEMPLATES), seed, count // len(DBPEDIA_TEMPLATES) + 1
    )[:count]
    requests = []
    for name in names:
        body = DBPEDIA_TEMPLATES[name].format(
            e=rng.randrange(entities), v=rng.randrange(DBPEDIA_HUBS)
        )
        requests.append((name, DB_PREFIX + body))
    return requests


# ---------------------------------------------------------------- serve-mixed

SERVE_TEMPLATES = {
    # LQ1: graduate students taking one graduate course
    "R1": "SELECT ?x WHERE {{ ?x rdf:type ub:GraduateStudent . "
          "?x ub:takesCourse <{dept}/gradcourse{g}> }}",
    # LQ3: publications of one faculty member
    "R3": "SELECT ?x WHERE {{ ?x rdf:type ub:Publication . "
          "?x ub:publicationAuthor <{dept}/faculty{f}> }}",
    # LQ4: professors of one department with their profile data
    "R4": "SELECT ?x ?y1 ?y2 ?y3 WHERE {{ "
          "{{ ?x rdf:type ub:FullProfessor }} UNION "
          "{{ ?x rdf:type ub:AssociateProfessor }} UNION "
          "{{ ?x rdf:type ub:AssistantProfessor }} . "
          "?x ub:worksFor <{dept}> . ?x ub:name ?y1 . "
          "?x ub:emailAddress ?y2 . ?x ub:telephone ?y3 }}",
    # LQ5: members of one department
    "R5": "SELECT ?x WHERE {{ {{ ?x ub:memberOf <{dept}> }} UNION "
          "{{ ?x ub:worksFor <{dept}> }} }}",
    # LQ13: alumni of one university
    "R13": "SELECT ?x WHERE {{ {{ ?x ub:undergraduateDegreeFrom <{univ}> }} "
           "UNION {{ ?x ub:doctoralDegreeFrom <{univ}> }} }}",
}

#: written students live under their own university, department and
#: course, so no read template's answer ever depends on the writes
BENCH_NS = "http://www.univ-bench.edu"


def serve_mixed() -> str:
    """LUBM(4) as N-Triples (the file ``repro serve`` loads)."""
    data = lubm.generate(SERVE_UNIVERSITIES, seed=DATA_SEED)
    return ntriples.serialize(data.graph)


def student_triples(k: int, tag: str) -> str:
    s = f"<{BENCH_NS}/student{k}>"
    return (
        f"{s} rdf:type ub:GraduateStudent . "
        f'{s} ub:name "BenchStudent{k}-{tag}" . '
        f"{s} ub:memberOf <{BENCH_NS}/dept> . "
        f"{s} ub:takesCourse <{BENCH_NS}/course> . "
        f'{s} ub:emailAddress "student{k}@univ-bench.edu" . '
        f"{s} ub:undergraduateDegreeFrom <{BENCH_NS}> ."
    )


def write_request(k: int, tag: str) -> str:
    """Insert student ``k`` and delete student ``k-1`` in one request, so
    the store size stays level (the first write only inserts)."""
    text = PREFIX + "INSERT DATA { " + student_triples(k, tag) + " }"
    if k > 0:
        text += " ; DELETE DATA { " + student_triples(k - 1, tag) + " }"
    return text


def serve_ops(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` operations as (kind, text); kind is a read template name
    or ``"write"``. Each block of WRITE_EVERY operations holds one write at
    a seeded position; read constants are seeded LUBM(4) entities."""
    rng = random.Random(seed * 131 + 3)
    tag = f"s{seed}"
    ops: list[tuple[str, str]] = []
    writes = 0
    names = shuffled_passes(
        list(SERVE_TEMPLATES), seed, count // len(SERVE_TEMPLATES) + WRITE_EVERY
    )
    while len(ops) < count:
        write_at = rng.randrange(WRITE_EVERY)
        for slot in range(WRITE_EVERY):
            if slot == write_at:
                ops.append(("write", write_request(writes, tag)))
                writes += 1
                continue
            name = names.pop()
            univ = f"http://www.univ{rng.randrange(SERVE_UNIVERSITIES)}.edu"
            dept = f"{univ}/dept{rng.randrange(3)}"
            body = SERVE_TEMPLATES[name].format(
                univ=univ, dept=dept, g=rng.randrange(5), f=rng.randrange(15)
            )
            ops.append((name, PREFIX + body))
    return ops[:count]
