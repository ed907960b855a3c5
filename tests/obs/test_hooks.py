"""Tests for trace hooks: the subscriber mechanics and the payload
contracts the engine emits on splits, evictions, page I/O and overflow
linking."""

from __future__ import annotations

import pytest

from repro.access.btree.btree import BTree
from repro.core.table import HashTable
from repro.obs.hooks import TraceHooks


class TestMechanics:
    def test_subscribe_emit_order(self):
        hooks = TraceHooks()
        calls = []
        hooks.subscribe("on_split", lambda p: calls.append(("a", p)))
        hooks.subscribe("on_split", lambda p: calls.append(("b", p)))
        hooks.emit("on_split", {"x": 1})
        assert [tag for tag, _ in calls] == ["a", "b"]
        assert calls[0][1] == {"x": 1}

    def test_unsubscribe(self):
        hooks = TraceHooks()
        calls = []
        fn = hooks.subscribe("on_evict", calls.append)
        hooks.unsubscribe("on_evict", fn)
        hooks.emit("on_evict", {})
        assert calls == []

    def test_unknown_event_raises(self):
        hooks = TraceHooks()
        with pytest.raises(ValueError):
            hooks.subscribe("on_frobnicate", lambda p: None)
        with pytest.raises(ValueError):
            hooks.emit("on_frobnicate", {})

    def test_clear(self):
        hooks = TraceHooks()
        hooks.subscribe("on_page_io", lambda p: None)
        hooks.clear()
        assert hooks.on_page_io == []

    def test_unsubscribed_event_is_empty_list(self):
        # emit sites guard on this: `if hooks.on_split:` must be False
        hooks = TraceHooks()
        for event in TraceHooks.EVENTS:
            assert getattr(hooks, event) == []


class TestSubscriberIsolation:
    def test_raising_subscriber_does_not_abort_emit(self):
        hooks = TraceHooks()
        calls = []

        def bad(payload):
            raise RuntimeError("subscriber bug")

        hooks.subscribe("on_split", bad)
        hooks.subscribe("on_split", calls.append)
        with pytest.warns(RuntimeWarning, match="subscriber bug"):
            hooks.emit("on_split", {"x": 1})
        # the raise was swallowed, later subscribers still ran
        assert calls == [{"x": 1}]
        assert len(hooks.errors) == 1
        event, exc = hooks.errors[0]
        assert event == "on_split" and isinstance(exc, RuntimeError)

    def test_warns_once_per_subscriber(self):
        hooks = TraceHooks()
        hooks.subscribe("on_evict", lambda p: 1 / 0)
        with pytest.warns(RuntimeWarning):
            hooks.emit("on_evict", {})
        with warnings_none():
            hooks.emit("on_evict", {})
        assert len(hooks.errors) == 2  # still collected, just not re-warned

    def test_errors_list_is_bounded(self):
        hooks = TraceHooks()
        hooks.subscribe("on_page_io", lambda p: 1 / 0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(TraceHooks.MAX_ERRORS + 50):
                hooks.emit("on_page_io", {})
        assert len(hooks.errors) == TraceHooks.MAX_ERRORS

    def test_clear_resets_errors_and_warnings(self):
        hooks = TraceHooks()
        hooks.subscribe("on_fault", lambda p: 1 / 0)
        with pytest.warns(RuntimeWarning):
            hooks.emit("on_fault", {})
        hooks.clear()
        assert hooks.errors == []
        hooks.subscribe("on_fault", lambda p: 1 / 0)
        with pytest.warns(RuntimeWarning):  # warns again after clear
            hooks.emit("on_fault", {})


def warnings_none():
    """Context manager asserting no warnings are raised inside."""
    import contextlib
    import warnings

    @contextlib.contextmanager
    def cm():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
        assert caught == [], [str(w.message) for w in caught]

    return cm()


class TestEngineEmission:
    def test_split_events_on_forced_growth(self, small_dict_pairs):
        t = HashTable.create(None, in_memory=True, bsize=256, ffactor=8)
        splits = []
        t.hooks.subscribe("on_split", splits.append)
        try:
            for k, v in small_dict_pairs:
                t.put(k, v)
            assert splits, "500 keys at ffactor=8 must split"
            for p in splits:
                assert set(p) == {"old_bucket", "new_bucket", "reason", "nkeys"}
                assert p["reason"] in ("controlled", "uncontrolled", "structural")
                assert p["new_bucket"] > p["old_bucket"]
            st = t.stat()
            assert len(splits) == st["ops"]["counts"]["splits"]
            assert len(splits) == st["ops"]["latency"]["split"]["count"]
        finally:
            t.close()

    def test_overflow_link_before_relieving_split(self, small_dict_pairs):
        # a tiny page fills before the fill factor forces a split, so the
        # trace must interleave overflow links with the splits that later
        # drain them -- and the very first structural event is a link
        t = HashTable.create(None, in_memory=True, bsize=64, ffactor=16)
        events = []
        t.hooks.subscribe("on_split", lambda p: events.append(("split", p)))
        t.hooks.subscribe("on_overflow_link", lambda p: events.append(("link", p)))
        try:
            for k, v in small_dict_pairs:
                t.put(k, v)
            kinds = [kind for kind, _ in events]
            assert "link" in kinds and "split" in kinds
            assert kinds.index("link") < kinds.index("split")
            for kind, p in events:
                if kind == "link":
                    assert set(p) == {"bucket", "oaddr"}
                    assert p["oaddr"] != 0
        finally:
            t.close()

    def test_evict_events_with_tiny_cache(self, tiny_cache_table, small_dict_pairs):
        t = tiny_cache_table
        evicts = []
        t.hooks.subscribe("on_evict", evicts.append)
        for k, v in small_dict_pairs:
            t.put(k, v)
        assert evicts, "a 4-buffer pool over 500 keys must evict"
        for p in evicts:
            assert set(p) == {"key", "pageno", "dirty", "chained"}
            assert isinstance(p["dirty"], bool)
            assert isinstance(p["chained"], bool)
        assert len(evicts) == t.stat()["buffer"]["evictions"]

    def test_page_io_events(self, tmp_path, small_dict_pairs):
        t = HashTable.create(tmp_path / "t.db", cachesize=0)
        ios = []
        t.hooks.subscribe("on_page_io", ios.append)
        try:
            for k, v in small_dict_pairs:
                t.put(k, v)
            t.sync()
            kinds = {p["kind"] for p in ios}
            assert "write" in kinds
            for p in ios:
                assert set(p) == {"kind", "pageno", "nbytes"}
                assert p["kind"] in ("read", "write")
                assert p["nbytes"] > 0
        finally:
            t.close()

    @pytest.mark.parametrize("engine", [HashTable, BTree])
    def test_page_io_slot_tracks_subscribers(self, tmp_path, engine):
        # Unobserved engines leave the storage layer's per-I/O callback
        # slot empty, so page reads and writes cost no Python call.
        t = engine.create(tmp_path / "t.db", cachesize=0)
        try:
            assert t._file.on_page_io is None
            ios = []
            t.hooks.subscribe("on_page_io", ios.append)
            assert t._file.on_page_io is not None
            for i in range(200):
                t.put(b"k%04d" % i, b"v" * 40)
            t.sync()
            assert {p["kind"] for p in ios} >= {"write"}
            t.hooks.unsubscribe("on_page_io", ios.append)
            assert t._file.on_page_io is None
            seen = len(ios)
            t.put(b"after", b"v")
            t.sync()
            assert len(ios) == seen
        finally:
            t.close()
