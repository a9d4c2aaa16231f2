"""Schema tests for :mod:`repro.obs.records`."""

from __future__ import annotations

import json
import pickle
import re

import pytest

from repro.errors import TraceSchemaError
from repro.obs import records
from repro.obs.records import KINDS, SCHEMA_VERSION, TraceEvent, validate_event


class TestTraceEvent:
    def test_make_sorts_payload_fields(self):
        event = TraceEvent.make(0, records.CACHE_HIT, zebra=1, alpha=2)
        assert event.fields == (("alpha", 2), ("zebra", 1))

    def test_to_json_is_flat_with_envelope(self):
        event = TraceEvent.make(3, records.RETRY, t=1.5, job="Auth-G",
                                attempt=1)
        record = event.to_json()
        assert record == {"schema": SCHEMA_VERSION, "seq": 3,
                          "kind": "retry.backoff", "t": 1.5,
                          "job": "Auth-G", "attempt": 1}

    def test_to_jsonl_is_canonical(self):
        event = TraceEvent.make(0, records.SWEEP_BEGIN, jobs=4,
                                retries=0)
        line = event.to_jsonl()
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        assert "\n" not in line

    def test_from_json_round_trip(self):
        original = TraceEvent.make(7, records.DISPATCH, t=2.0,
                                   job="x", index=3, attempt=0)
        assert TraceEvent.from_json(json.loads(original.to_jsonl())) == \
            original

    def test_events_pickle(self):
        event = TraceEvent.make(1, records.HARVEST, job="x", ok=True)
        assert pickle.loads(pickle.dumps(event)) == event

    def test_events_are_frozen_and_hashable(self):
        event = TraceEvent.make(0, records.CACHE_MISS, key="abc")
        with pytest.raises(Exception):
            event.seq = 5
        assert event in {event}

    def test_t_defaults_to_none(self):
        assert TraceEvent.make(0, records.SWEEP_END).t is None


class TestValidateEvent:
    def good(self, **overrides):
        record = {"schema": SCHEMA_VERSION, "seq": 0,
                  "kind": records.CACHE_HIT, "t": None, "key": "ab12"}
        record.update(overrides)
        return record

    def test_good_record_passes(self):
        validate_event(self.good())

    def test_rejects_non_mapping(self):
        with pytest.raises(TraceSchemaError, match="JSON object"):
            validate_event(["schema", 1])

    @pytest.mark.parametrize("missing", ["schema", "seq", "kind"])
    def test_rejects_missing_envelope_key(self, missing):
        record = self.good()
        del record[missing]
        with pytest.raises(TraceSchemaError, match=missing):
            validate_event(record)

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(TraceSchemaError, match="schema"):
            validate_event(self.good(schema=99))

    @pytest.mark.parametrize("seq", [-1, 1.5, "3", True])
    def test_rejects_bad_seq(self, seq):
        with pytest.raises(TraceSchemaError, match="seq"):
            validate_event(self.good(seq=seq))

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceSchemaError, match="unknown trace event"):
            validate_event(self.good(kind="cache.warmed"))

    def test_rejects_non_numeric_t(self):
        with pytest.raises(TraceSchemaError, match="t must be"):
            validate_event(self.good(t="noon"))

    def test_rejects_non_scalar_payload(self):
        with pytest.raises(TraceSchemaError, match="JSON scalar"):
            validate_event(self.good(extra=[1, 2]))

    def test_make_rejects_non_scalar_payload_at_emission(self):
        with pytest.raises(TraceSchemaError):
            TraceEvent.make(0, records.CACHE_HIT, payload={"nested": 1})

    def test_make_rejects_unknown_kind_at_emission(self):
        with pytest.raises(TraceSchemaError):
            TraceEvent.make(0, "bogus.kind")


@pytest.mark.parametrize("kind", [
    "fleet.region.begin", "fleet.region.end", "fleet.shard",
    "coldstart.sweep.begin", "coldstart.sweep.end", "coldstart.point",
])
def test_retired_result_echo_kinds_are_unknown(kind):
    # Result values are printed by the reports, not traced; a record of
    # a retired kind fails validation instead of being silently counted.
    assert kind not in KINDS
    record = {"schema": SCHEMA_VERSION, "seq": 0, "kind": kind, "t": None}
    with pytest.raises(TraceSchemaError,
                       match=re.escape(
                           f"unknown trace event kind {kind!r}")):
        validate_event(record)


def test_vocabulary_is_closed_and_dotted():
    assert len(KINDS) == 21
    for kind in KINDS:
        assert "." in kind
        assert kind == kind.lower()
