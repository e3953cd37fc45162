"""Deterministic discrete-event core.

The clock is a virtual integer tick (one tick is one virtual millisecond).
An event is a scheduled call: `at(fire_at, handler, *args)` queues it and
the run calls `handler(*args)`. Events fire in (fire_at, seq) order where
seq is a monotone counter assigned at scheduling time, so ties at the same
tick resolve in scheduling order and a run is a pure function of
(seed, configuration).

A queued call is one heap entry, the list `[fire_at, seq, handler, args]`,
and `at` returns that list as its handle. Firing or cancelling it sets its
handler slot to None, so the run skips a cancelled entry when it pops it,
and `cancel` answers False for an entry that fired or was cancelled before.
`(fire_at, seq)` is unique, so the heap never compares two handlers.

Randomness is drawn from named streams. Each stream seeds an independent
Mersenne Twister from the first eight bytes of SHA-256("<master>:<label>"),
which keeps draw sequences identical across platforms and decouples the
modules from each other: adding draws to one stream never perturbs another.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable

# The interpreter's own SHA-256 (_sha2 from CPython 3.12, _sha256 before):
# the same digests as hashlib's, without loading OpenSSL's libcrypto.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SimTime = int
# [fire_at, seq, handler or None once fired or cancelled, args]
Entry = list[Any]


class PastEvent(Exception):
    """Raised when an event is scheduled before the current clock."""


def derive_seed(master_seed: int, label: str) -> int:
    digest = sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream(random.Random):
    """Named random stream derived from the master seed."""

    # random.Random.__new__ rejects a second positional argument
    def __new__(cls, master_seed: int = 0, label: str = ""):
        return super().__new__(cls)

    def __init__(self, master_seed: int, label: str):
        super().__init__(derive_seed(master_seed, label))

    def below(self, n: int) -> int:
        """randrange(n), and with a + below(b - a + 1) randint(a, b): the
        same value from the same draws, without their argument handling.
        It draws n.bit_length() bits until they fall below n, as random's
        bit-draw loop does on CPython 3.10 to 3.13."""
        if n < 1:
            raise ValueError(f"empty range: below({n})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r


@dataclass(frozen=True)
class RunSummary:
    """What `Simulator.run` returns: the events processed so far."""
    total_processed: int


class Simulator:
    """Event queue, clock and stream registry for one run."""

    def __init__(self, seed: int, horizon: SimTime):
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.seed = seed
        self.horizon = horizon
        self.now: SimTime = 0
        self._heap: list[Entry] = []
        self._seq = 0
        self._streams: dict[str, RngStream] = {}
        self._total = 0

    def stream(self, label: str) -> RngStream:
        try:
            return self._streams[label]
        except KeyError:
            s = self._streams[label] = RngStream(self.seed, label)
            return s

    def at(self, fire_at: SimTime, handler: Callable[..., Any], *args) -> Entry:
        """Queue the call handler(*args) at tick fire_at; its heap entry is
        the handle `cancel` takes."""
        if fire_at < self.now:
            raise PastEvent(f"event at {fire_at} < clock {self.now}")
        entry = [fire_at, self._seq, handler, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Entry) -> bool:
        """Mark a pending call dead. Returns False if it already fired or
        was cancelled before."""
        if entry[2] is None:
            return False
        entry[2] = None
        return True

    def run(self, until: SimTime | None = None) -> RunSummary:
        """Process every event with fire_at <= until (capped at the horizon)."""
        if until is None:
            until = self.horizon
        until = min(until, self.horizon)
        heap = self._heap
        while heap and heap[0][0] <= until:
            entry = heapq.heappop(heap)
            handler = entry[2]
            if handler is None:
                continue
            entry[2] = None
            self.now = entry[0]
            self._total += 1
            handler(*entry[3])
        if until > self.now:
            self.now = until
        return RunSummary(self._total)
