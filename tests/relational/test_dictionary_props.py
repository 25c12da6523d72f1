"""Property tests for the term dictionary.

Two invariants the whole batched executor leans on:

* **Round-trip** — every stored string (term keys for IRIs, typed and
  language-tagged literals, blank nodes, and the loader's reserved lid
  cells) survives encode → decode unchanged, and ids are stable: the same
  text always interns to the same id.
* **Late materialization** — results leaving ``Database.execute`` are
  plain strings again; callers never observe ids regardless of how values
  flowed through filters, joins, or projections.
"""

from hypothesis import given, settings, strategies as st

from repro.core.schema import DIRECT_LID_PREFIX, REVERSE_LID_PREFIX
from repro.rdf.terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Literal,
    URI,
    term_from_key,
    term_key,
)
from repro.relational.catalog import Database
from repro.relational.dictionary import StringDictionary
from repro.relational.types import ColumnType

# ------------------------------------------------------------- strategies

_names = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\x00", exclude_categories=("Cs",)
    ),
    min_size=1,
    max_size=30,
)

iris = st.builds(lambda n: URI("http://example.org/" + n), _names)
bnodes = st.builds(BNode, _names)
plain_literals = st.builds(Literal, _names)
typed_literals = st.builds(
    Literal,
    _names,
    datatype=st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN]),
)
lang_literals = st.builds(Literal, _names, lang=st.sampled_from(["en", "fr", "de-CH"]))
terms = st.one_of(iris, bnodes, plain_literals, typed_literals, lang_literals)

#: the loader's multi-value indirection cells, stored as plain TEXT values
lid_cells = st.builds(
    lambda prefix, n: f"{prefix}{n}",
    st.sampled_from([DIRECT_LID_PREFIX, REVERSE_LID_PREFIX]),
    st.integers(min_value=0, max_value=10_000),
)

stored_strings = st.one_of(terms.map(term_key), lid_cells)


# ------------------------------------------------------------- round-trip


@settings(max_examples=80, deadline=None)
@given(st.lists(stored_strings, min_size=1, max_size=40))
def test_encode_decode_round_trips(values):
    dictionary = StringDictionary()
    ids = [dictionary.encode(value) for value in values]
    for value, encoded in zip(values, ids):
        assert dictionary.decode(encoded) == value
        assert str(encoded) == value  # text semantics of EncodedString
        assert encoded.decode() == value
        # Stable ids: re-encoding and query-side lookup agree.
        assert dictionary.encode(value) == encoded
        assert dictionary.lookup(value) == encoded


@settings(max_examples=60, deadline=None)
@given(terms)
def test_term_key_round_trips_through_dictionary(term):
    dictionary = StringDictionary()
    key = term_key(term)
    decoded = dictionary.decode(dictionary.encode(key))
    assert term_from_key(decoded) == term_from_key(key)


@settings(max_examples=60, deadline=None)
@given(st.lists(stored_strings, min_size=1, max_size=30, unique=True))
def test_database_results_are_decoded_strings(values):
    """Whatever goes into a TEXT column comes back as the same plain str."""
    db = Database(batch_size=64)
    db.create_table("t", [("k", ColumnType.TEXT), ("n", ColumnType.INTEGER)])
    db.insert("t", [(value, i) for i, value in enumerate(values)])
    result = db.execute("SELECT k, n FROM t ORDER BY n")
    assert [row[0] for row in result.rows] == values
    for row in result.rows:
        assert type(row[0]) is str  # ids never leak past execute()
    # Point lookup through a filter kernel still late-materializes.
    probe = db.execute("SELECT k FROM t WHERE k = 'no-such-key-present'")
    assert probe.rows == []
