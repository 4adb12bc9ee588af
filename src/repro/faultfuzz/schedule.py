"""Fault-schedule encoding and seeded generation.

A *schedule* is a list of :class:`Fault` records, each pinned to a
deterministic coordinate of the replay:

* ``crash`` / ``partition`` / ``corrupt`` trigger at an exact
  **processed-event index** (the kernel's event-index probe fires the
  action between two dispatches);
* ``drop`` / ``dup`` / ``delay`` trigger on an exact **send counter**
  (the network's fault hook counts every ``Network.send``).

Both coordinates are pure functions of the replay itself — no wall
clock, no OS scheduling — so a schedule replays identically on every
run.  ``delay`` doubles as the reordering
primitive: delaying one message past its followers reorders the
stream; ``dup`` re-delivers the same message later (exercising the
server-side duplicate tables).

``corrupt`` is never generated randomly: it deletes the durable inode
of the workload's *canary* file, guaranteeing a namespace violation.
It exists so the shrinker and the minimal-repro pipeline can be tested
end-to-end against a known-bad schedule (see
``tests/fuzz/test_faultfuzz.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

#: Fault kinds triggered by processed-event index.
EVENT_KINDS = ("crash", "partition", "corrupt")
#: Fault kinds triggered by send counter.
MESSAGE_KINDS = ("drop", "dup", "delay")


@dataclass(frozen=True)
class Fault:
    """One fault, pinned to a deterministic replay coordinate.

    ``at`` is a processed-event index for :data:`EVENT_KINDS` and a
    send-counter index for :data:`MESSAGE_KINDS`.  ``a``/``b`` name
    server indices (crash victim; partition sides).  ``until`` ends a
    partition window (event index).  ``extra`` is the added delay for
    ``dup``/``delay`` in virtual seconds.
    """

    kind: str
    at: int
    a: int = -1
    b: int = -1
    until: int = -1
    extra: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS and self.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"negative fault coordinate {self.at!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "at": self.at, "a": self.a, "b": self.b,
            "until": self.until, "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Fault":
        return cls(
            kind=str(d["kind"]), at=int(d["at"]),  # type: ignore[arg-type]
            a=int(d.get("a", -1)), b=int(d.get("b", -1)),  # type: ignore[arg-type]
            until=int(d.get("until", -1)),  # type: ignore[arg-type]
            extra=float(d.get("extra", 0.0)),  # type: ignore[arg-type]
        )


#: Event-index window the generator draws crash/partition points from.
#: Calibrated against the fuzz workload: the fault-free load phase runs
#: ~1.3k events and the lazy-commitment tail ends near ~2k, so this
#: window covers setup, load, commitment, and the write-back tail
#: (faults stay armed through the post-load settle window — see
#: ``explorer.FAULT_SETTLE``).
EVENT_WINDOW = (50, 2_500)

#: Send-counter window for message faults.  The fault-free workload
#: sends ~170 messages during load and ~220 including commitment
#: traffic; crashes and retries stretch that, so the window leans past
#: the fault-free count.
SEND_WINDOW = (0, 240)

#: Virtual-seconds range for dup/delay extra latency.  Long enough to
#: reorder past whole protocol rounds, short enough not to outlive the
#: drive budget.
EXTRA_RANGE = (0.001, 2.0)


def generate_schedule(seed: int, index: int, num_servers: int) -> List[Fault]:
    """Schedule ``index`` of the seeded exploration — a pure function.

    Draws 1–2 crashes, 0–3 message faults, and (every fourth schedule)
    one partition window from ``random.Random(seed * 1_000_003 +
    index)``, so the full schedule grid is reproducible from ``seed``
    alone and any single schedule can be regenerated without running
    its predecessors.
    """
    rng = random.Random(seed * 1_000_003 + index)
    faults: List[Fault] = []

    for _ in range(rng.randint(1, 2)):
        faults.append(Fault(
            kind="crash",
            at=rng.randrange(*EVENT_WINDOW),
            a=rng.randrange(num_servers),
        ))

    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(MESSAGE_KINDS)
        faults.append(Fault(
            kind=kind,
            at=rng.randrange(*SEND_WINDOW),
            extra=(round(rng.uniform(*EXTRA_RANGE), 6)
                   if kind in ("dup", "delay") else 0.0),
        ))

    if index % 4 == 3 and num_servers >= 2:
        a = rng.randrange(num_servers)
        b = rng.randrange(num_servers - 1)
        if b >= a:
            b += 1
        start = rng.randrange(*EVENT_WINDOW)
        faults.append(Fault(
            kind="partition", at=start,
            until=start + rng.randrange(500, 4_000), a=a, b=b,
        ))

    # Sort by coordinate so the applied-action log reads in replay
    # order; ties keep generation order (sort is stable).
    faults.sort(key=lambda f: f.at)
    return faults
