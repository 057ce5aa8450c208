"""Seeded open-loop load: fresh query rows, Poisson schedules, accounting.

Two phases drive a ``submit(name, row) -> Future`` callable:

* :func:`run_fixed_rate` sends each request at its scheduled due time,
  whether or not earlier requests have finished (open loop), and times
  each request from its due time, so a stall is charged to every request
  it delays.  How late the generator itself ran is recorded too.
* :func:`run_saturation` keeps a fixed window of requests outstanding and
  counts completions per second.

Every phase counts sent, answered, failed, shed, expired and refused
requests.  Query rows come from :class:`RowStream`, which refuses to hand
out a row it has handed out before.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.faults import DeadlineExpiredError
from repro.serving import EngineOverloadedError

#: Seconds to wait for a phase's outstanding requests before giving up.
DRAIN_TIMEOUT_S = 60.0


class RepeatedRowError(AssertionError):
    """A query row was produced twice (design-cache hits would be fake)."""


class RowStream:
    """Fresh standard-normal query rows drawn from a seeded stream.

    Rows are drawn in fixed-size chunks, so the sequence depends only on
    the seed.  Every row's digest is remembered; a repeat raises
    :class:`RepeatedRowError`.
    """

    def __init__(self, seed: int, num_vars: int, chunk: int = 512):
        self._rng = np.random.default_rng(seed)
        self.num_vars = int(num_vars)
        self._chunk = int(chunk)
        self._buffer = np.empty((0, self.num_vars))
        self._next = 0
        self._seen: set = set()

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` rows, shape ``(count, num_vars)``."""
        while self._buffer.shape[0] - self._next < count:
            fresh = self._rng.standard_normal((self._chunk, self.num_vars))
            self._buffer = np.vstack([self._buffer[self._next :], fresh])
            self._next = 0
        rows = self._buffer[self._next : self._next + count]
        self._next += count
        for row in rows:
            digest = hashlib.blake2b(row.tobytes(), digest_size=16).digest()
            if digest in self._seen:
                raise RepeatedRowError("a query row repeated")
            self._seen.add(digest)
        return rows


@dataclass(frozen=True)
class Schedule:
    """Due offsets (seconds from phase start) and target model per request."""

    offsets: np.ndarray
    names: tuple

    @classmethod
    def poisson(
        cls, seed: int, rate: float, count: int, names: Sequence[str]
    ) -> "Schedule":
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=count)
        picks = rng.integers(0, len(names), size=count)
        return cls(np.cumsum(gaps), tuple(names[i] for i in picks))

    def part(self, start: int, stop: int) -> "Schedule":
        """Requests ``start:stop``, due times re-based to the first of them."""
        base = self.offsets[start - 1] if start > 0 else 0.0
        return Schedule(self.offsets[start:stop] - base, self.names[start:stop])

    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.asarray(self.offsets, dtype=np.float64).tobytes())
        h.update("\0".join(self.names).encode())
        return h.hexdigest()


@dataclass
class PhaseStats:
    """Outcome counts and timings of one load phase."""

    name: str
    sent: int = 0
    answered: int = 0
    failed: int = 0
    shed: int = 0
    expired: int = 0
    refused: int = 0
    elapsed_s: float = 0.0
    #: Per request, from due time (fixed rate) or send time (saturation)
    #: to completion; ``inf`` for a request that missed.
    latencies_s: List[float] = field(default_factory=list)
    #: Fixed rate only: send time minus due time, per request.
    lag_s: List[float] = field(default_factory=list)
    #: Completions inside the measured window (saturation only).
    completed_in_window: int = 0

    @property
    def missed(self) -> int:
        return self.failed + self.shed + self.expired + self.refused

    def counts(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "answered": self.answered,
            "failed": self.failed,
            "shed": self.shed,
            "expired": self.expired,
            "refused": self.refused,
        }


def merge_stats(name: str, parts: Sequence[PhaseStats]) -> PhaseStats:
    """One phase's counts and samples, pooled over its blocks."""
    merged = PhaseStats(name)
    for part in parts:
        for key, value in part.counts().items():
            setattr(merged, key, getattr(merged, key) + value)
        merged.elapsed_s += part.elapsed_s
        merged.latencies_s += part.latencies_s
        merged.lag_s += part.lag_s
        merged.completed_in_window += part.completed_in_window
    return merged


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a missed request counts as ``inf``)."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q, method="higher"))


class _Recorder:
    """Outcome of every request of a phase, shared by the generator and
    the engine threads that run the completion callbacks."""

    def __init__(self, size: int, stats: PhaseStats):
        self.done_at = np.full(size, np.nan)
        self.values = np.full(size, np.nan)
        self.outcome = np.zeros(size, dtype=np.int8)  # 0 pending, 1 ok, 2 fail, 3 expired
        self.stats = stats
        self._lock = threading.Lock()

    def ensure(self, size: int) -> None:
        """Grow the arrays to hold ``size`` requests (in-flight callbacks
        keep their index)."""
        with self._lock:
            old_size = self.done_at.shape[0]
            if size <= old_size:
                return
            new_size = max(size, 2 * old_size)
            for attr, fill in (("done_at", np.nan), ("values", np.nan), ("outcome", 0)):
                old = getattr(self, attr)
                new = np.full(new_size, fill, dtype=old.dtype)
                new[:old_size] = old
                setattr(self, attr, new)

    def count(self, field_name: str) -> None:
        with self._lock:
            setattr(self.stats, field_name, getattr(self.stats, field_name) + 1)

    def callback(self, index: int, on_done: Optional[Callable] = None):
        def done(future: Future) -> None:
            now = time.perf_counter()
            exc = future.exception()
            with self._lock:
                self.done_at[index] = now
                if exc is None:
                    self.values[index] = float(future.result()[0])
                    self.outcome[index] = 1
                    self.stats.answered += 1
                elif isinstance(exc, DeadlineExpiredError):
                    self.outcome[index] = 3
                    self.stats.expired += 1
                else:
                    self.outcome[index] = 2
                    self.stats.failed += 1
            if on_done is not None:
                on_done()

        return done


def _send(submit, name, row, recorder: _Recorder) -> Optional[Future]:
    """Submit one request; count an admission-time refusal and return None."""
    recorder.count("sent")
    try:
        return submit(name, row)
    except EngineOverloadedError:  # includes brownout shedding
        recorder.count("shed")
    except DeadlineExpiredError:
        recorder.count("expired")
    except Exception:  # noqa: BLE001 - any other refusal is counted, not fatal
        recorder.count("refused")
    return None


def _drain(futures: List[Future]) -> None:
    _, pending = wait_futures(futures, timeout=DRAIN_TIMEOUT_S)
    if pending:
        raise TimeoutError(f"{len(pending)} requests never completed")


@dataclass
class FixedRateResult:
    stats: PhaseStats
    values: np.ndarray  # served prediction per request (nan if missed)
    sent_at: np.ndarray
    done_at: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["FixedRateResult"]) -> "FixedRateResult":
        return cls(
            merge_stats("fixed_rate", [p.stats for p in parts]),
            np.concatenate([p.values for p in parts]),
            np.concatenate([p.sent_at for p in parts]),
            np.concatenate([p.done_at for p in parts]),
        )


def run_fixed_rate(submit, schedule: Schedule, rows: np.ndarray) -> FixedRateResult:
    """Open-loop phase: request ``i`` is due ``schedule.offsets[i]`` after start."""
    count = len(schedule.offsets)
    stats = PhaseStats("fixed_rate")
    recorder = _Recorder(count, stats)
    futures: List[Future] = []
    lag = np.zeros(count)
    start = time.perf_counter() + 0.01
    due_at = start + np.asarray(schedule.offsets, dtype=float)
    for i in range(count):
        due = due_at[i]
        now = time.perf_counter()
        while now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        lag[i] = now - due
        future = _send(submit, schedule.names[i], rows[i], recorder)
        if future is None:
            continue
        futures.append(future)
        future.add_done_callback(recorder.callback(i))
    _drain(futures)
    stats.elapsed_s = time.perf_counter() - start
    stats.lag_s = lag.tolist()
    latencies = np.where(recorder.outcome == 1, recorder.done_at - due_at, np.inf)
    stats.latencies_s = latencies.tolist()
    return FixedRateResult(stats, recorder.values, due_at + lag, recorder.done_at)


def run_saturation(
    submit,
    names: Sequence[str],
    rows: RowStream,
    window: int,
    duration_s: float,
    seed: int,
) -> PhaseStats:
    """Closed window of ``window`` outstanding requests for ``duration_s``."""
    stats = PhaseStats("saturation")
    slots = threading.Semaphore(window)
    picks = np.random.default_rng(seed)
    recorder = _Recorder(4096, stats)
    futures: List[Future] = []
    sent_at: List[float] = []
    start = time.perf_counter()
    stop = start + duration_s
    while time.perf_counter() < stop:
        if not slots.acquire(timeout=max(stop - time.perf_counter(), 0.0)):
            break
        index = len(sent_at)
        recorder.ensure(index + 1)
        row = rows.take(1)[0]
        name = names[int(picks.integers(0, len(names)))]
        sent_at.append(time.perf_counter())
        future = _send(submit, name, row, recorder)
        if future is None:
            slots.release()
            continue
        futures.append(future)
        future.add_done_callback(recorder.callback(index, slots.release))
    _drain(futures)
    stats.elapsed_s = duration_s
    sent = np.asarray(sent_at)
    done = recorder.done_at[: len(sent)]
    ok = recorder.outcome[: len(sent)] == 1
    stats.completed_in_window = int(np.sum(ok & (done <= stop)))
    stats.latencies_s = np.where(ok, done - sent, np.inf).tolist()
    return stats

