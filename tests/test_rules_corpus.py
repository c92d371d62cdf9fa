"""Parsing, checking and expanding a seeded corpus of rule documents gives what
it gave when `record_rules_corpus.py` recorded it: the same error class,
message and position, or the same module, printed text, validation report,
META lookups, depth and cardinality expansions, document by document.  The
corpus was recorded before the rule front end came to scan with one regular
expression, keep token offsets and look META elements up in one table; its
one later re-recording changed only documents with a `$`, `mm k` or `@` in a
`from` or `to` block, which are now refused."""

import json

from record_rules_corpus import CORPUS, documents, outcome

with open(CORPUS, encoding="utf-8") as fh:
    RECORDED = json.load(fh)


def test_corpus_replays_byte_equal():
    texts = documents()
    assert len(texts) == len(RECORDED) >= 400
    for i, (text, recorded) in enumerate(zip(texts, RECORDED)):
        assert outcome(text) == recorded, f"document {i}"


def test_corpus_reaches_every_outcome():
    assert sum(1 for r in RECORDED if "rules" in r) >= 100
    raised = [" ".join(map(str, r["raised"][:2])) for r in RECORDED if "raised" in r]
    for needle in ("unexpected character", "too many digits", "min exceeds max", "trailing input",
                   "DuplicateDeclaration", "UnresolvedReference"):
        assert any(needle in r for r in raised), needle
    reports = [rule["validate"] for r in RECORDED for rule in r.get("rules", ())]
    assert any(isinstance(report, list) and report for report in reports)
