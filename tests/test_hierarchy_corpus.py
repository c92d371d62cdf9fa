"""Loading and validating a seeded corpus of hierarchy documents gives what it
gave when `record_hierarchy_corpus.py` recorded it: the same error class and
message, or the same saved hierarchy and validation issues, document by
document.  The corpus was recorded before `parse_hierarchy` and
`validate_hierarchy` came to work once per distinct type; its one later
re-recording changed only the document with `supertypes` on an arrow
record, which is now refused."""

import json

from record_hierarchy_corpus import CORPUS, documents, outcome

with open(CORPUS, encoding="utf-8") as fh:
    RECORDED = json.load(fh)


def test_corpus_replays_byte_equal():
    texts = documents()
    assert len(texts) == len(RECORDED)
    for i, (text, recorded) in enumerate(zip(texts, RECORDED)):
        assert outcome(text) == recorded, f"document {i}"


def test_corpus_reaches_every_outcome():
    raised = {r["raised"][0] for r in RECORDED if "raised" in r}
    assert raised == {"DanglingArrow", "InputError", "ParseError", "SchemaError"}
    rules = {i.split("[")[1].split("]")[0] for r in RECORDED for i in r.get("issues", ())}
    assert {"DanglingTyping", "PotencyViolation", "TypeOffBranch", "UnknownSupertype"} <= rules
    assert sum(1 for r in RECORDED if r.get("issues") == []) >= 100
