"""Options serialization: to_dict/from_dict round trip + request_hash.

The serialized Options shape is the wire contract of the job server
(``options`` in a POST /v1/jobs body) *and* the cache identity of a
run (via :func:`repro.core.options.request_hash`), so these tests pin
both directions: every serializable field round-trips exactly, every
malformed document is rejected with a pointed error, and the hash is
insensitive to exactly the fields documented as cache-irrelevant.
"""

import dataclasses
import json

import pytest

from repro import OPTIONS_SCHEMA_VERSION, Options, request_hash


def _non_default(options: Options) -> Options:
    """An Options with every serializable field off its default."""
    return dataclasses.replace(
        options,
        max_nodes=123_456,
        time_limit=98.5,
        max_iterations=77,
        want_trace=False,
        gc_min_nodes=None,
        cluster_limit=999,
        back_image_mode="relational",
        grow_threshold=1.25,
        evaluator="matching",
        use_bounded_and=True,
        simplifier="constrain",
        simplify_only_by_smaller=False,
        var_choice="most-common-top",
        pairwise_step3="direct",
        exploit_monotonicity=True,
        auto_decompose=True,
        heartbeat=2.0,
        heartbeat_stall=11.0,
    )


class TestRoundTrip:
    def test_defaults_round_trip_exactly(self):
        assert Options.from_dict(Options().to_dict()) == Options()

    def test_every_field_round_trips(self):
        original = _non_default(Options())
        restored = Options.from_dict(original.to_dict())
        assert restored == original

    def test_to_dict_is_json_safe(self):
        document = json.loads(json.dumps(_non_default(Options()).to_dict()))
        assert Options.from_dict(document) == _non_default(Options())

    def test_to_dict_covers_every_non_sink_field(self):
        data = _non_default(Options()).to_dict()
        field_names = {f.name for f in dataclasses.fields(Options)}
        assert set(data) == (field_names - set(Options.SINK_FIELDS)) \
            | {"schema_version"}

    def test_schema_version_stamped(self):
        assert Options().to_dict()["schema_version"] \
            == OPTIONS_SCHEMA_VERSION

    def test_empty_document_means_defaults(self):
        assert Options.from_dict({}) == Options()

    def test_sinks_start_null_after_round_trip(self):
        restored = Options.from_dict(Options().to_dict())
        for name in Options.SINK_FIELDS:
            assert getattr(restored, name) is None


class TestRejection:
    def test_not_a_mapping(self):
        with pytest.raises(ValueError, match="JSON object"):
            Options.from_dict(["kernel", "dict"])

    # Clients of options schema 1 may still send ``kernel``/``apply``,
    # and clients of schemas 1-3 ``use_pair_cache``/``pair_cache_capacity``.
    @pytest.mark.parametrize("key", ["kernle", "kernel", "apply",
                                     "use_pair_cache",
                                     "pair_cache_capacity"])
    def test_unknown_key_rejected_with_field_list(self, key):
        with pytest.raises(ValueError,
                           match=rf"unknown options field\(s\) \['{key}'\]"
                                 r"; valid fields: \["):
            Options.from_dict({key: "dict"})

    @pytest.mark.parametrize("sink", Options.SINK_FIELDS)
    def test_sink_fields_rejected(self, sink):
        with pytest.raises(ValueError, match="sink"):
            Options.from_dict({sink: None})

    def test_wrong_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            Options.from_dict({"schema_version": 99})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            Options.from_dict({"max_iterations": "many"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError, match="got bool"):
            Options.from_dict({"max_iterations": True})

    @pytest.mark.parametrize("field,value", [
        ("evaluator", "fastest"),
        ("simplifier", "magic"),
        ("var_choice", "random"),
        ("pairwise_step3", "maybe"),
        ("back_image_mode", "psychic"),
    ])
    def test_out_of_registry_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="invalid options"):
            Options.from_dict({field: value})

    def test_semantic_validation_applied(self):
        with pytest.raises(ValueError, match="invalid options"):
            Options.from_dict({"grow_threshold": -1.0})


class TestRequestHash:
    def test_deterministic(self):
        a = request_hash("fifo", "xici", params={"depth": 4})
        b = request_hash("fifo", "xici", params={"depth": 4})
        assert a == b
        assert len(a) == 64
        int(a, 16)  # hex

    def test_param_order_is_canonical(self):
        a = request_hash("fifo", "xici",
                         params={"depth": 4, "width": 8})
        b = request_hash("fifo", "xici",
                         params={"width": 8, "depth": 4})
        assert a == b

    def test_engine_knobs_change_the_hash(self):
        base = request_hash("fifo", "xici")
        assert request_hash("fifo", "xici",
                            options=Options(evaluator="matching")) != base
        assert request_hash("fifo", "fwd") != base
        assert request_hash("fifo", "xici", bug="overflow") != base
        assert request_hash("fifo", "xici", assisted=True) != base

    def test_heartbeat_cadence_does_not_change_the_hash(self):
        assert request_hash("fifo", "xici",
                            options=Options(heartbeat=0.5)) \
            == request_hash("fifo", "xici",
                            options=Options(heartbeat=9.0,
                                            heartbeat_stall=60.0))

    def test_options_accepted_as_wire_dict(self):
        options = Options(evaluator="matching")
        assert request_hash("fifo", "xici",
                            options=options.to_dict()) \
            == request_hash("fifo", "xici", options=options)

    def test_sinks_do_not_change_the_hash(self):
        from repro.trace import RecordingTracer
        with_sink = dataclasses.replace(Options(),
                                        tracer=RecordingTracer())
        assert request_hash("fifo", "xici", options=with_sink) \
            == request_hash("fifo", "xici")
