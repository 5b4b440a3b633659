"""The checked-in output corpus (``corpus.py``): every pinned request still
prints the same bytes and exits with the same code."""

import corpus


def test_corpus_outputs_unchanged():
    moved = corpus.check()
    assert not moved, f"{len(moved)} requests changed, first: {moved[:5]}"
