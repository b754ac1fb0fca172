"""Unit tests for the trace log."""

from repro.sim.tracing import TraceLog, TraceRecord, trace_digest


class TestTraceLog:
    def test_emit_retains_records(self, trace):
        trace.emit(1.0, "alpha", node=1)
        trace.emit(2.0, "beta", node=2)
        assert len(trace.records) == 2
        assert trace.records[0].kind == "alpha"
        assert trace.records[0]["node"] == 1

    def test_of_kind_filters(self, trace):
        trace.emit(1.0, "a")
        trace.emit(2.0, "b")
        trace.emit(3.0, "a")
        assert [record.time for record in trace.of_kind("a")] == [1.0, 3.0]

    def test_first_and_count(self, trace):
        assert trace.first("missing") is None
        trace.emit(1.0, "x", value=10)
        trace.emit(2.0, "x", value=20)
        assert trace.first("x")["value"] == 10
        assert trace.count("x") == 2

    def test_record_get_with_default(self, trace):
        trace.emit(1.0, "x", a=1)
        record = trace.first("x")
        assert record.get("a") == 1
        assert record.get("zzz", "fallback") == "fallback"

    def test_global_subscriber_sees_everything(self, trace):
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.0, "a")
        trace.emit(2.0, "b")
        assert [record.kind for record in seen] == ["a", "b"]

    def test_kind_subscriber_is_filtered(self, trace):
        seen = []
        trace.subscribe(seen.append, kind="a")
        trace.emit(1.0, "a")
        trace.emit(2.0, "b")
        assert [record.kind for record in seen] == ["a"]

    def test_streaming_mode_drops_records_but_notifies(self):
        log = TraceLog(keep_records=False)
        seen = []
        log.subscribe(seen.append)
        log.emit(1.0, "a")
        assert log.records == []
        assert len(seen) == 1

    def test_clear_keeps_subscribers(self, trace):
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.0, "a")
        trace.clear()
        trace.emit(2.0, "b")
        assert trace.records[0].kind == "b"
        assert len(seen) == 2

    def test_count_does_not_need_retained_records(self):
        log = TraceLog(keep_records=False)
        log.emit(1.0, "x")
        log.emit(2.0, "x")
        log.emit(3.0, "y")
        assert log.records == []
        assert (log.count("x"), log.count("y"), log.count("z")) == (2, 1, 0)
        assert log.emitted == 3

    def test_an_unread_emit_builds_no_record(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return TraceRecord(*args)

        monkeypatch.setattr("repro.sim.tracing.TraceRecord", counting)
        log = TraceLog(keep_records=False)
        log.emit(1.0, "x", node=1)
        assert (built, log.count("x")) == ([], 1)
        log.subscribe(lambda record: None, kind="y")
        log.emit(2.0, "x")
        log.emit(3.0, "y")
        assert [args[1] for args in built] == ["y"]
        assert (log.count("x"), log.count("y")) == (2, 1)

    def test_clear_zeroes_count_but_not_emitted(self, trace):
        trace.emit(1.0, "x")
        trace.emit(2.0, "x")
        trace.clear()
        assert trace.count("x") == 0
        assert trace.emitted == 2
        trace.emit(3.0, "x")
        assert trace.count("x") == 1
        assert trace.emitted == 3
        assert [record.time for record in trace.records] == [3.0]

    def test_delivery_order_is_retain_then_all_kind_then_kind(self, trace):
        order = []
        trace.subscribe(lambda record: order.append(("kind-1", len(trace.records))), kind="a")
        trace.subscribe(lambda record: order.append(("all-1", len(trace.records))))
        trace.subscribe(lambda record: order.append(("kind-2", len(trace.records))), kind="a")
        trace.subscribe(lambda record: order.append(("all-2", len(trace.records))))
        trace.emit(1.0, "a")
        assert order == [("all-1", 1), ("all-2", 1), ("kind-1", 1), ("kind-2", 1)]
        del order[:]
        trace.emit(2.0, "b")
        assert order == [("all-1", 2), ("all-2", 2)]

    def test_subscribing_after_a_kind_was_emitted_takes_effect(self, trace):
        trace.emit(1.0, "a")
        by_kind, every = [], []
        trace.subscribe(by_kind.append, kind="a")
        trace.emit(2.0, "a")
        trace.subscribe(every.append)
        trace.emit(3.0, "a")
        assert [record.time for record in by_kind] == [2.0, 3.0]
        assert [record.time for record in every] == [3.0]
        assert len(trace.records) == 3

    def test_subscribing_from_inside_a_callback_fires_from_the_next_record(self, trace):
        late = []

        def subscribe_more(record):
            if record.time == 1.0:
                trace.subscribe(late.append)
                trace.subscribe(late.append, kind="a")

        trace.subscribe(subscribe_more)
        trace.emit(1.0, "a")
        assert late == []
        trace.emit(2.0, "a")
        assert [record.time for record in late] == [2.0, 2.0]


class TestTraceRecord:
    def test_equal_parts_compare_equal(self):
        assert TraceRecord(1.0, "a", {"n": 1}) == TraceRecord(1.0, "a", {"n": 1})
        assert TraceRecord(1.0, "a", {"n": 1}) != TraceRecord(1.0, "a", {"n": 2})
        assert TraceRecord(1.0, "a") != TraceRecord(2.0, "a")
        assert TraceRecord(1.0, "a") != (1.0, "a", {})
        assert TraceRecord(1.0, "a").fields == {}

    def test_repr_round_trips(self):
        record = TraceRecord(2.5, "buffer_add", {"node": 3, "via": "multicast", "w": (1, 2)})
        assert eval(repr(record)) == record


class TestTraceDigest:
    def test_equal_streams_share_a_digest(self, trace):
        other = TraceLog()
        for log in (trace, other):
            log.emit(1.0, "a", node=1, via="multicast")
            log.emit(2.5, "b", waiters=(3, 4))
        assert trace_digest(trace.records) == trace_digest(other.records)

    def test_digest_is_order_sensitive(self):
        a, b = TraceLog(), TraceLog()
        a.emit(1.0, "x")
        a.emit(2.0, "y")
        b.emit(2.0, "y")
        b.emit(1.0, "x")
        assert trace_digest(a.records) != trace_digest(b.records)

    def test_digest_sees_field_values(self, trace):
        trace.emit(1.0, "a", node=1)
        one = trace_digest(trace.records)
        trace.clear()
        trace.emit(1.0, "a", node=2)
        assert trace_digest(trace.records) != one

    def test_empty_stream_digest_is_stable(self):
        assert trace_digest([]) == trace_digest([])


class TestEnabledFlag:
    """The hot-path guard: emitters may skip record construction
    entirely when ``trace.enabled`` is False."""

    def test_retaining_log_is_enabled(self):
        assert TraceLog().enabled
        assert not TraceLog(keep_records=False).enabled

    def test_subscribing_enables_a_streaming_log(self):
        log = TraceLog(keep_records=False)
        log.subscribe(lambda record: None)
        assert log.enabled
