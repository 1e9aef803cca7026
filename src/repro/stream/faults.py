"""Stream fault model: channel dropout, stalls, mid-stream reconnect.

Faults are ``kind:key=value,key=value`` strings parsed by
:func:`parse_fault_spec` (the ``repro stream --fault`` syntax) and
applied as an event-feed transform:

* ``channel_dropout`` — a random fraction of a faulted event's
  channels reads zero (dead sensor lines);
* ``stall`` — the source goes quiet for ``duration`` seconds: later
  events of that stream shift forward in time, which is what trips the
  session's stale-state TTL;
* ``reconnect`` — the device drops off and reconnects: ``drop``
  events are lost *and* a ``gap``-second hole opens.

The injector is a pure iterator transform (sessions/ servers consume
the faulted feed unchanged), deterministic under its seed, and keeps
every event well-formed — graceful degradation is the session's job,
delivery of plausible corrupted input is this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Union

import numpy as np

from .events import StreamEvent

#: kind -> {param: (type, default)}; every kind fires with probability ``p``.
FAULT_VOCABULARY: Dict[str, Dict[str, tuple]] = {
    "channel_dropout": {"fraction": (float, 0.25), "p": (float, 0.1)},
    "stall": {"duration": (float, 1.0), "p": (float, 0.05)},
    "reconnect": {"gap": (float, 1.0), "drop": (int, 1), "p": (float, 0.05)},
}


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: its kind and severity knobs."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse ``"kind:key=value,key=value"`` into a :class:`FaultSpec`.

    >>> parse_fault_spec("stall:duration=2.0").params
    {'duration': 2.0, 'p': 0.05}
    """
    head, _, tail = spec.strip().partition(":")
    kind = head.strip()
    if kind not in FAULT_VOCABULARY:
        raise ValueError(
            f"unknown fault kind {kind!r}; available: {sorted(FAULT_VOCABULARY)}"
        )
    schema = FAULT_VOCABULARY[kind]
    params = {name: default for name, (_, default) in schema.items()}
    if tail.strip():
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or key not in schema:
                raise ValueError(
                    f"fault {kind!r} got bad parameter {item.strip()!r}; "
                    f"available: {sorted(schema)}"
                )
            params[key] = schema[key][0](raw)
    return FaultSpec(kind=kind, params=params)


class StreamFaultInjector:
    """Applies fault specs to an event feed.

    Parameters
    ----------
    specs:
        Fault specs, as strings or parsed :class:`FaultSpec` objects.
    seed:
        Seed of the injector's own RNG stream (fault placement is
        deterministic and independent of model/encoder RNGs).
    """

    def __init__(
        self,
        specs: Sequence[Union[str, FaultSpec]],
        seed: int = 0,
    ) -> None:
        self.specs: List[FaultSpec] = [
            parse_fault_spec(spec) if isinstance(spec, str) else spec for spec in specs
        ]
        self.seed = int(seed)
        self.counts: Dict[str, int] = dict.fromkeys(FAULT_VOCABULARY, 0)

    def apply(self, events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
        """Faulted view of ``events`` (a fresh deterministic pass)."""
        rng = np.random.default_rng(self.seed)
        offsets: Dict[str, float] = {}
        pending_drops: Dict[str, int] = {}
        for event in events:
            stream_id = event.stream_id
            if pending_drops.get(stream_id, 0) > 0:
                pending_drops[stream_id] -= 1
                continue
            channels = event.channels
            for spec in self.specs:
                p = spec.params.get("p", 1.0)
                if rng.random() >= p:
                    continue
                self.counts[spec.kind] += 1
                if spec.kind == "channel_dropout":
                    dead = rng.random(channels.shape[0]) < spec.params["fraction"]
                    channels = np.where(dead, np.float32(0.0), channels)
                elif spec.kind == "stall":
                    offsets[stream_id] = (
                        offsets.get(stream_id, 0.0) + spec.params["duration"]
                    )
                else:  # reconnect: lose events and open a gap
                    pending_drops[stream_id] = (
                        pending_drops.get(stream_id, 0) + int(spec.params["drop"])
                    )
                    offsets[stream_id] = offsets.get(stream_id, 0.0) + spec.params["gap"]
            yield StreamEvent(
                stream_id=stream_id,
                timestamp=event.timestamp + offsets.get(stream_id, 0.0),
                channels=channels,
            )

    def __call__(self, events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
        return self.apply(events)

    def __repr__(self) -> str:
        kinds = [spec.kind for spec in self.specs]
        return f"StreamFaultInjector(kinds={kinds}, seed={self.seed})"
