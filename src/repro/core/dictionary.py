"""RDF-term view of the relational string dictionary.

On :class:`~repro.backends.minirel.MiniRelBackend`, every TEXT value
the store writes — term keys in DPH/DS/RPH/RS cells, entry columns, lid
markers — is interned to a dense integer id by the relational layer's
:class:`~repro.relational.dictionary.StringDictionary`. Query execution
then compares, hashes, and joins ids; lexical forms reappear only when a
result set crosses the ``execute`` boundary (late materialization).

This module is the store-level facade over that mechanism: it translates
between :class:`~repro.rdf.terms.Term` objects and dictionary ids, and
reports sizing stats for benchmarks and debugging. Lookups never allocate
ids — only writes (loads, updates) intern new strings, which is what makes
id assignment deterministic per load order while keeping query results
load-order independent.
"""

from __future__ import annotations

from typing import Any

from ..rdf.terms import Term, term_from_key, term_key


class TermDictionary:
    """Read-only term-level access to a backend's string dictionary."""

    __slots__ = ("_strings",)

    def __init__(self, strings: Any) -> None:
        #: the relational StringDictionary (duck-typed: encode/lookup/decode)
        self._strings = strings

    def __len__(self) -> int:
        return len(self._strings)

    def id_for(self, term: Term) -> int | None:
        """The id interned for ``term``, or None if it never appeared.

        Never allocates: an unseen term provably matches nothing stored,
        which query planning exploits (an un-interned constant folds to an
        empty result without scanning).
        """
        return self._strings.lookup(term_key(term))

    def id_for_key(self, key: str) -> int | None:
        """The id for a raw term key string (see :func:`term_key`)."""
        return self._strings.lookup(key)

    def key_for(self, term_id: int) -> str:
        """The stored lexical key for an id (raises IndexError if unknown)."""
        return self._strings.decode(term_id)

    def term_for(self, term_id: int) -> Term:
        """Decode an id back to a :class:`Term` (late materialization)."""
        return term_from_key(self._strings.decode(term_id))

    def stats(self) -> dict[str, int]:
        """Sizing counters for benchmarks: entry count and lexicon bytes."""
        lexicon = getattr(self._strings, "_lexicon", None)
        total_bytes = (
            sum(len(text) for text in lexicon) if lexicon is not None else 0
        )
        return {"entries": len(self._strings), "lexicon_bytes": total_bytes}


def term_dictionary_of(backend: Any) -> TermDictionary | None:
    """The backend's term dictionary, or None when the backend has none
    (sqlite)."""
    db = getattr(backend, "db", None)
    strings = getattr(db, "dictionary", None)
    if strings is None:
        return None
    return TermDictionary(strings)
