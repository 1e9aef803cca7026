"""Stream fault model: the spec parser, dropout, stalls, reconnects, and
TTL interplay."""

import numpy as np
import pytest

from repro.data.telemetry import make_telemetry_stream
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.stream import StreamFaultInjector, StreamSession
from repro.stream.faults import FAULT_VOCABULARY, parse_fault_spec

CHANNELS = 6


def make_feed(streams=1, events=12, seed=0):
    return list(make_telemetry_stream(
        num_streams=streams, num_channels=CHANNELS, num_events=events, seed=seed,
    ))


class TestFaultSpecParser:
    """The ``kind:key=value`` vocabulary behind ``repro stream --fault``."""

    def test_parses_kind_and_parameters(self):
        spec = parse_fault_spec("stall:duration=2.0,p=0.5")
        assert spec.kind == "stall"
        assert spec.params == {"duration": 2.0, "p": 0.5}

    def test_defaults_fill_omitted_parameters(self):
        for kind, schema in FAULT_VOCABULARY.items():
            spec = parse_fault_spec(kind)
            assert spec.params == {
                name: default for name, (_, default) in schema.items()
            }

    def test_types_are_coerced(self):
        spec = parse_fault_spec("reconnect:gap=2.5,drop=3")
        assert spec.params["gap"] == 2.5
        assert spec.params["drop"] == 3
        assert isinstance(spec.params["drop"], int)

    def test_unknown_kind_lists_vocabulary(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("gremlins:count=3")

    def test_bad_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="bad parameter"):
            parse_fault_spec("stall:volume=11")
        with pytest.raises(ValueError, match="bad parameter"):
            parse_fault_spec("stall:duration")  # missing '='

    def test_spec_is_immutable(self):
        spec = parse_fault_spec("stall")
        with pytest.raises(AttributeError):
            spec.kind = "other"


class TestSpecHandling:
    @pytest.mark.parametrize("spec", [
        "noise:sigma=0.1", "dropout:fraction=0.1", "bitflip:flips=1", "dead:fraction=0.1",
    ])
    def test_weight_fault_kinds_are_unknown(self, spec):
        kind = spec.partition(":")[0]
        with pytest.raises(ValueError, match=f"unknown fault kind '{kind}'"):
            StreamFaultInjector([spec])

    def test_accepts_strings_and_parsed_specs(self):
        injector = StreamFaultInjector(
            ["stall", parse_fault_spec("channel_dropout:p=0.5")]
        )
        assert [spec.kind for spec in injector.specs] == [
            "stall", "channel_dropout",
        ]
        assert "stall" in repr(injector)


class TestChannelDropout:
    def test_full_dropout_zeroes_every_channel(self):
        injector = StreamFaultInjector(["channel_dropout:fraction=1.0,p=1.0"])
        faulted = list(injector.apply(make_feed()))
        assert len(faulted) == 12
        for event in faulted:
            assert np.array_equal(event.channels, np.zeros(CHANNELS, np.float32))
        assert injector.counts["channel_dropout"] == 12

    def test_partial_dropout_keeps_events_well_formed(self):
        feed = make_feed()
        injector = StreamFaultInjector(["channel_dropout:fraction=0.5,p=1.0"])
        faulted = list(injector.apply(feed))
        zeroed = sum(
            int((f.channels == 0).sum()) - int((o.channels == 0).sum())
            for f, o in zip(faulted, feed)
        )
        assert 0 < zeroed < 12 * CHANNELS
        for f, o in zip(faulted, feed):
            assert f.num_channels == o.num_channels
            assert f.timestamp == o.timestamp  # dropout never shifts time

    def test_original_events_are_not_mutated(self):
        feed = make_feed(events=4)
        pristine = [event.channels.copy() for event in feed]
        list(StreamFaultInjector(["channel_dropout:fraction=1.0,p=1.0"]).apply(feed))
        for event, expected in zip(feed, pristine):
            assert np.array_equal(event.channels, expected)


class TestStall:
    def test_stall_shifts_later_events_cumulatively(self):
        feed = make_feed(events=4)
        injector = StreamFaultInjector(["stall:duration=5.0,p=1.0"])
        faulted = list(injector.apply(feed))
        for index, (f, o) in enumerate(zip(faulted, feed)):
            assert np.isclose(f.timestamp - o.timestamp, 5.0 * (index + 1))
        assert injector.counts["stall"] == 4

    def test_stall_offsets_are_per_stream(self):
        feed = make_feed(streams=2, events=4)
        # Seed chosen so at least one stall fires on each stream.
        injector = StreamFaultInjector(["stall:duration=100.0,p=0.5"], seed=3)
        faulted = list(injector.apply(feed))
        offsets = {}
        for f, o in zip(faulted, feed):
            offsets.setdefault(f.stream_id, []).append(f.timestamp - o.timestamp)
        # Offsets never decrease within a stream (time only stalls forward).
        for per_stream in offsets.values():
            assert all(b >= a for a, b in zip(per_stream, per_stream[1:]))


class TestReconnect:
    def test_reconnect_loses_events_and_opens_a_gap(self):
        feed = make_feed(events=10)
        injector = StreamFaultInjector(["reconnect:gap=9.0,drop=1,p=1.0"])
        faulted = list(injector.apply(feed))
        # p=1, drop=1: every delivered event triggers a reconnect that
        # eats the next one — half the feed survives.
        assert len(faulted) == 5
        assert injector.counts["reconnect"] == 5
        gaps = np.diff([f.timestamp for f in faulted])
        assert (gaps > 9.0).all()


class TestDeterminismAndIntegration:
    def test_same_seed_same_faulted_feed(self):
        feed = make_feed(streams=2, events=8)
        spec = ["channel_dropout:fraction=0.5,p=0.5", "stall:duration=2.0,p=0.3"]
        first = list(StreamFaultInjector(spec, seed=7).apply(feed))
        second = list(StreamFaultInjector(spec, seed=7).apply(feed))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.channels, b.channels)
        different = list(StreamFaultInjector(spec, seed=8).apply(feed))
        assert any(
            a.timestamp != b.timestamp or not np.array_equal(a.channels, b.channels)
            for a, b in zip(first, different)
        )

    def test_stalls_trip_the_session_ttl_without_worker_loss(self):
        model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=4,
                           rng=np.random.default_rng(0))
        manager = SparsityManager(model, rng=np.random.default_rng(1))
        manager.init_random({name: 0.5 for name in manager.states})
        manager.freeze()
        session = StreamSession(model, window=4, manager=manager, ttl=0.5)
        injector = StreamFaultInjector(["stall:duration=5.0,p=0.4"], seed=0)
        feed = make_feed(streams=2, events=24)
        results = [
            r for e in injector.apply(feed) if (r := session.process(e)) is not None
        ]
        stats = session.stats()
        assert sum(s["stale_resets"] for s in stats.values()) > 0
        assert sum(s["events"] for s in stats.values()) == len(feed)
        for result in results:  # degraded input, still exact inference
            reference = session.offline_reference(result.frames)
            assert np.array_equal(reference, result.logits)
