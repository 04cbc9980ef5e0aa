"""The mutant registry still points at the code: ``python tests/mutants.py`` runs it."""

from mutants import MUTANTS, PACKAGE, source_counts


def test_each_mutant_source_occurs_once():
    """Each mutant's source text occurs exactly once in ``src/``, so that a refactor
    that moves the mutated code must update the entry."""
    counts = {m.name: list(source_counts(PACKAGE, m.source).values()) for m in MUTANTS}
    assert {name: c for name, c in counts.items() if c != [1]} == {}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert all(m.kills and m.source != m.replacement for m in MUTANTS)
