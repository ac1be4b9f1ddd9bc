"""The change gate against the compact-XML reference detector.

:class:`~repro.server.monitoring.ChangeDetector` fingerprints records as
structural values and, for a record that is the same frozen object as in
its last observation, reuses the key text and fingerprint it computed
then.  ``tests/server/change_oracle.py`` keeps the detector it replaced,
which serialises every record on every call.  Over random sequences of
record sets both must report the same added and changed records (the same
objects, in the same order) and the same removed keys.

The sequences keep records as the same frozen objects, rebuild them equal,
and edit them: text, an attribute value, attribute order, a child added or
removed, the key.  Unfrozen records kept as the same object are also
edited in place, as a direct caller of ``observe`` may do.  Keys repeat
and may be empty, records nest, one record or one subtree can hang under
two parents, and whole record sets are dropped and rebuilt so that new
records reuse the ids of freed ones.  ``CHAOS_SEED`` (the environment
variable) picks the sequences, as in ``tests/server/test_early_cutoff.py``.
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest

import repro.server.monitoring as monitoring
from repro.server.monitoring import ChangeDetector, ChangeReport
from repro.xmlgen.document import XmlElement

from .change_oracle import CompactXmlChangeDetector

SEED = int(os.environ.get("CHAOS_SEED", "20261020"))

STEPS = 40
#: Key texts: shared keys, an empty one, and one that normalises to another.
KEYS = ("alpha", "beta", "gamma", "", "  alpha ", "delta")
NOTES = ("", "<sale>", "a & b", "x")


def _record(rng: random.Random, nested: bool = True) -> XmlElement:
    record = XmlElement("offer")
    attributes = [("cur", rng.choice(("EUR", "USD"))), ("id", str(rng.randrange(4)))]
    rng.shuffle(attributes)
    record.attributes.update(attributes[: rng.randrange(3)])
    record.add("product", rng.choice(KEYS))
    record.add("price", f"{rng.randrange(1, 6)}.00")
    if nested and rng.random() < 0.2:
        record.append(_record(rng, nested=False))
    if rng.random() < 0.3:
        record.add("note", rng.choice(NOTES))
    return record


def _set_child_text(record: XmlElement, name: str, text: str) -> None:
    """Set the text of ``record``'s first ``name`` child, in place when
    that child is editable, else by replacing it."""
    for index, child in enumerate(record.children):
        if child.name == name:
            if child.frozen:
                record.children[index] = XmlElement(name, child.attributes, text)
            else:
                child.text = text
            return
    record.add(name, text)


def _edit(rng: random.Random, record: XmlElement) -> None:
    """One random edit of an editable ``record``, in place."""
    kind = rng.choice(("text", "attribute", "order", "add", "remove", "key"))
    if kind == "text":
        _set_child_text(record, "price", f"{rng.randrange(6, 12)}.00")
    elif kind == "attribute":
        record.attributes["cur"] = rng.choice(("EUR", "USD", "GBP"))
    elif kind == "order":
        items = list(record.attributes.items())
        if len(items) < 2:
            items.append(("id", "9"))
        record.attributes = dict(reversed(items))
    elif kind == "add":
        if rng.random() < 0.5:
            record.add("note", rng.choice(NOTES))
        else:
            record.append(_record(rng, nested=False))
    elif kind == "remove" and record.children:
        del record.children[rng.randrange(len(record.children))]
    else:
        _set_child_text(record, "product", rng.choice(KEYS))


def _next_records(rng: random.Random, records: List[XmlElement], fresh: List[XmlElement]):
    """The next step's records; every record built here goes to ``fresh``."""
    if rng.random() < 0.1:
        # Drop the whole set: the new records may reuse the freed ids.
        records.clear()
        rebuilt = [_record(rng) for _ in range(rng.randrange(4, 10))]
        fresh.extend(rebuilt)
        return rebuilt
    following: List[XmlElement] = []
    for record in records:
        roll = rng.random()
        if roll < 0.08:
            continue  # removed
        if roll < 0.55:
            # Kept as the same object; an unfrozen one may be edited in place.
            if not record.frozen and rng.random() < 0.4:
                _edit(rng, record)
        elif roll < 0.7:
            record = record.copy()  # rebuilt equal
            fresh.append(record)
        else:
            record = record.copy()
            _edit(rng, record)
            fresh.append(record)
        following.append(record)
    for _ in range(rng.randrange(3)):
        following.append(_record(rng))
        fresh.append(following[-1])
    if following and rng.random() < 0.15:
        following.append(rng.choice(following))  # one record under two parents
    if len(following) > 1 and rng.random() < 0.15:
        # One subtree under two records: the donor's price joins an
        # editable copy of the receiver.
        donor, receiver = rng.sample(range(len(following)), 2)
        shared = following[donor].find("price")
        if shared is not None:
            receiver_copy = following[receiver].copy()
            receiver_copy.append(shared)
            following[receiver] = receiver_copy
            fresh.append(receiver_copy)
    return following


def _document(rng: random.Random, records: List[XmlElement]) -> XmlElement:
    market = XmlElement("market")
    shops = [market.add("shop", attributes={"n": str(n)}) for n in range(3)]
    for record in records:
        rng.choice(shops).append(record)
    return market


def _same(reported: List[XmlElement], expected: List[XmlElement]) -> bool:
    return len(reported) == len(expected) and all(
        mine is theirs for mine, theirs in zip(reported, expected)
    )


def _assert_same_report(report: ChangeReport, expected: ChangeReport, step: int) -> None:
    assert _same(report.added, expected.added), f"step {step}: added differs"
    assert _same(report.changed, expected.changed), f"step {step}: changed differs"
    assert report.removed == expected.removed, f"step {step}: removed differs"


@pytest.mark.parametrize("freeze_share", [1.0, 0.5, 0.0], ids=["pipe", "mixed", "direct"])
@pytest.mark.parametrize("run", range(6))
def test_reports_equal_the_compact_xml_detector(freeze_share, run):
    rng = random.Random(f"{SEED}/{freeze_share}/{run}")
    detector = ChangeDetector("offer", key="product")
    oracle = CompactXmlChangeDetector("offer", key="product")
    records = [_record(rng) for _ in range(6)]
    observed_ids = set()
    recycled = 0
    for step in range(STEPS):
        fresh: List[XmlElement] = []
        if step:
            # Hold nothing of the last step but ``records``, so that records
            # it drops are freed before the new ones are built.
            document = expected = None
            records = _next_records(rng, records, fresh)
        recycled += sum(1 for record in fresh if id(record) in observed_ids)
        document = _document(rng, records)
        if rng.random() < freeze_share:
            document.freeze()
        expected = oracle.observe(document)
        _assert_same_report(detector.observe(document), expected, step)
        observed_ids.update(id(record) for record in document.iter("offer"))
    # The rebuilt sets must really have reused freed ids, or the sequences
    # never tested the memo against a recycled id.
    assert recycled > 0


def _offers(*prices: str) -> XmlElement:
    market = XmlElement("market")
    for number, price in enumerate(prices):
        offer = market.add("offer", attributes={"cur": "EUR"})
        offer.add("product", f"p{number}")
        offer.add("price", price)
    return market


def test_an_in_place_edit_of_an_unfrozen_record_is_reported_changed():
    detector = ChangeDetector("offer", key="product")
    document = _offers("1.00", "2.00", "3.00")
    detector.observe(document)
    first, second, third = document.find_all("offer")
    first.find("price").text = "1.50"       # a descendant's text
    second.attributes["cur"] = "USD"        # the record's own attribute
    report = detector.observe(document)
    assert _same(report.changed, [first, second])
    assert not report.added and not report.removed
    third.append(XmlElement("note", text="sale"))  # a child added
    assert _same(detector.observe(document).changed, [third])
    assert not detector.observe(document).has_changes


def test_a_frozen_record_seen_again_is_not_fingerprinted_again(monkeypatch):
    detector = ChangeDetector("offer", key="product")
    document = _offers("1.00", "2.00").freeze()
    detector.observe(document)
    calls = []
    fingerprint = monitoring._fingerprint
    monkeypatch.setattr(monitoring, "_fingerprint", lambda e: calls.append(e) or fingerprint(e))
    # A new frozen root over the same frozen records, as an integrate stage
    # builds one every run.
    again = XmlElement("market")
    again.children = list(document.children)
    assert not detector.observe(again.freeze()).has_changes
    assert calls == []


def test_a_recycled_id_never_reuses_another_records_fingerprint(monkeypatch):
    """A freed record's id can be reused by a new one.  Every record is
    made to share one id here, so the memo entry a new record finds under
    its id always holds another record, which must not be trusted."""
    monkeypatch.setattr(monitoring, "id", lambda obj: 0, raising=False)
    detector = ChangeDetector("offer", key="product")
    oracle = CompactXmlChangeDetector("offer", key="product")
    for prices in (("1.00",), ("2.00",), ("2.00",), ("3.00", "3.00")):
        document = _offers(*prices).freeze()
        _assert_same_report(detector.observe(document), oracle.observe(document), 0)
