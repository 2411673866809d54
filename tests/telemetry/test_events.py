"""Event schema: constants and the validator."""

from repro.telemetry import (BASE_FIELDS, EVENT_FIELDS, EVENT_TYPES,
                             validate_event)


def _event(**overrides):
    record = {"record": "event", "type": "alarm_fired", "t": 12.5,
              "shard": 0, "user": 3, "alarm": 7}
    record.update(overrides)
    return record


class TestSchemaTables:
    def test_every_type_has_a_field_set(self):
        assert set(EVENT_TYPES) == set(EVENT_FIELDS)

    def test_types_are_sorted(self):
        assert list(EVENT_TYPES) == sorted(EVENT_TYPES)

    def test_base_fields_never_collide_with_payloads(self):
        for fields in EVENT_FIELDS.values():
            assert not (fields & BASE_FIELDS)


class TestValidateEvent:
    def test_valid_record_has_no_problems(self):
        assert validate_event(_event()) == []

    def test_wrong_record_kind(self):
        problems = validate_event(_event(record="summary"))
        assert len(problems) == 1
        assert "summary" in problems[0]

    def test_unknown_type(self):
        problems = validate_event(_event(type="teleported"))
        assert any("unknown event type" in p for p in problems)

    def test_missing_field(self):
        record = _event()
        del record["alarm"]
        problems = validate_event(record)
        assert any("missing field 'alarm'" in p for p in problems)

    def test_unexpected_field(self):
        problems = validate_event(_event(extra=1))
        assert any("unexpected field 'extra'" in p for p in problems)

    def test_bool_timestamp_rejected(self):
        problems = validate_event(_event(t=True))
        assert any("'t' must be a number" in p for p in problems)

    def test_negative_shard_rejected(self):
        problems = validate_event(_event(shard=-1))
        assert any("'shard'" in p for p in problems)
