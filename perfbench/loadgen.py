"""Open-loop request driver and capacity search.

Requests are sent on the trace's schedule whatever the system does, and
each is timed from the moment it was *due*, so a stall also charges the
requests queued behind it.  The driver runs in the calling thread, as do
the router and replicas it drives: it hands ``now`` (seconds since the
segment started) to ``submit``/``poll``, sleeps until the next due
request or the target's next event, and records how late it ran.

A segment whose generator fell behind (lag p90 above the latency limit:
most requests went out late, not just those behind one stall) marks
itself invalid; its latencies are not reported.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np


@dataclass
class Segment:
    """Outcome of one fixed-rate open-loop segment."""

    rate_rps: float
    offered: int
    latencies_s: np.ndarray  # per request, nan when never answered
    results: List[Optional[np.ndarray]] = field(repr=False)
    keys: np.ndarray = field(repr=False)
    shed: int = 0
    hits: Optional[np.ndarray] = field(default=None, repr=False)  # answered inside submit
    lag_p90_s: float = 0.0
    lag_p99_s: float = 0.0
    backlog_max: int = 0
    backlog_end: int = 0
    busy_s: float = 0.0  # time inside submit/poll
    wall_s: float = 0.0
    limit_s: float = 0.0

    @property
    def answered(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.latencies_s)))

    @property
    def valid(self) -> bool:
        """False when the generator itself fell behind the schedule."""
        return self.lag_p90_s <= self.limit_s

    def percentile_ms(self, q: float, misses_only: bool = False) -> float:
        """Latency percentile of the answered requests; ``misses_only``
        keeps those not answered inside ``submit`` (not cache hits)."""
        keep = ~np.isnan(self.latencies_s)
        if misses_only and self.hits is not None:
            keep &= ~self.hits
        done = self.latencies_s[keep]
        return float(np.percentile(done, q)) * 1e3 if done.size else math.inf

    @property
    def backlog_grew(self) -> bool:
        """More requests outstanding when the schedule ended than one
        latency limit's worth of arrivals: the system fell behind."""
        return self.backlog_end > max(8, int(self.rate_rps * self.limit_s))

    def meets_limit(self) -> bool:
        """Capacity criterion: valid, nothing shed or lost, p99 within the
        limit and no growing backlog."""
        return (
            self.valid
            and self.shed == 0
            and self.answered == self.offered
            and self.percentile_ms(99) <= self.limit_s * 1e3
            and not self.backlog_grew
        )


def run_segment(
    target,
    times: Sequence[float],
    keys: Sequence[int],
    payloads: np.ndarray,
    *,
    rate_rps: float,
    limit_s: float,
    origin: float,
    drain_s: float = 0.25,
    clock: Callable[[], float] = time.perf_counter,
) -> Segment:
    """Drive ``target`` with requests ``payloads[keys[i]]`` due at ``times[i]``
    seconds after the segment starts.

    ``origin`` is the host clock reading that the target's own time axis
    starts from; it must stay fixed for the target's life, because the
    target keeps absolute deadlines between segments.
    """
    times = np.asarray(times, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.int64)
    n = len(times)
    lat = np.full(n, np.nan)
    lags = np.zeros(n)
    results: List[Optional[np.ndarray]] = [None] * n
    pending = {}
    hits = np.zeros(n, dtype=bool)
    i = shed = backlog_max = answered = 0
    busy = 0.0
    end_due = float(times[-1]) if n else 0.0
    backlog_end = -1
    horizon = end_due + drain_s
    t0 = clock()
    shift = t0 - origin  # segment time -> target time
    while True:
        now = clock() - t0
        while i < n and times[i] <= now:
            lags[i] = now - times[i]
            b0 = clock()
            request = target.submit(payloads[keys[i]], b0 - origin)
            b1 = clock()
            busy += b1 - b0
            if request is None:
                shed += 1
            elif request.complete_s is not None:  # answered inline (cache hit)
                lat[i] = b1 - t0 - times[i]
                results[i] = request.result
                answered += 1
                hits[i] = True
            else:
                pending[id(request)] = (request, i)
            i += 1
            now = b1 - t0
        nxt = target.next_event_time()
        if nxt is not None and nxt - shift <= now:
            b0 = clock()
            done = target.poll(b0 - origin)
            b1 = clock()
            busy += b1 - b0
            for request in done:
                entry = pending.pop(id(request), None)
                if entry is not None:
                    j = entry[1]
                    lat[j] = b1 - t0 - times[j]
                    results[j] = request.result
                    answered += 1
            now = b1 - t0
        # Every due request was submitted above, so the backlog is the
        # submitted requests still unanswered.
        backlog = i - answered - shed
        backlog_max = max(backlog_max, backlog)
        if backlog_end < 0 and now >= end_due:
            backlog_end = backlog
        if i >= n and not pending:
            break
        if now > horizon:
            break
        wake = float(times[i]) if i < n else math.inf
        nxt = target.next_event_time()
        if nxt is not None:
            wake = min(wake, nxt - shift)
        if wake == math.inf:
            wake = now + 1e-4
        # Sleep only when the next event is far off, and wake early: a
        # sleeping loop wakes late by a host-dependent amount, which would
        # land in every latency.  Short waits spin.
        dt = wake - (clock() - t0)
        if dt > 2e-3:
            time.sleep(dt - 1e-3)
    wall = clock() - t0
    return Segment(
        rate_rps=float(rate_rps),
        offered=n,
        latencies_s=lat,
        results=results,
        keys=keys,
        shed=shed,
        hits=hits,
        lag_p90_s=float(np.percentile(lags[:i], 90)) if i else 0.0,
        lag_p99_s=float(np.percentile(lags[:i], 99)) if i else 0.0,
        backlog_max=int(backlog_max),
        backlog_end=int(max(backlog_end, 0)),
        busy_s=busy,
        wall_s=wall,
        limit_s=float(limit_s),
    )


def run_closed(
    target,
    keys: Sequence[int],
    payloads: np.ndarray,
    *,
    concurrency: int,
    duration_s: float,
    origin: float,
    drain_s: float = 0.25,
    clock: Callable[[], float] = time.perf_counter,
) -> Segment:
    """Closed loop: keep ``concurrency`` requests outstanding, sending the
    next key as each answer arrives, for ``duration_s``.  The segment's
    ``rate_rps`` is the measured completion rate (the saturation
    throughput); latencies are from each request's submission."""
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    lat = np.full(n, np.nan)
    sent = np.zeros(n)
    results: List[Optional[np.ndarray]] = [None] * n
    pending = {}
    i = shed = answered = 0
    last = t0 = clock()
    deadline = t0 + duration_s
    while True:
        now = clock()
        while i < n and now < deadline and len(pending) < concurrency:
            sent[i] = now
            request = target.submit(payloads[keys[i]], now - origin)
            now = clock()
            if request is None:
                shed += 1
            elif request.complete_s is not None:
                lat[i] = now - sent[i]
                results[i] = request.result
                answered += 1
                last = now
            else:
                pending[id(request)] = (request, i)
            i += 1
        if not pending and (now >= deadline or i >= n):
            break
        if now > deadline + drain_s:
            break
        nxt = target.next_event_time()
        if nxt is not None and nxt <= now - origin:
            done = target.poll(now - origin)
            now = clock()
            for request in done:
                entry = pending.pop(id(request), None)
                if entry is not None:
                    j = entry[1]
                    lat[j] = now - sent[j]
                    results[j] = request.result
                    answered += 1
                    last = now
    wall = max(last - t0, 1e-9)
    return Segment(
        rate_rps=answered / wall,
        offered=i,
        latencies_s=lat[:i],
        results=results[:i],
        keys=keys[:i],
        shed=shed,
        wall_s=wall,
    )


#: capacity is found to within this ratio
CAPACITY_TOLERANCE = 0.05
#: probes per rate when a probe fails on latency alone
PROBE_ATTEMPTS = 2


def capacity_search(
    probe: Callable[[float], Segment],
    lo: float,
    hi: float,
    max_probes: int,
    lo_passes: Optional[bool] = None,
) -> float:
    """Highest offered rate whose probe segment meets its limit, to within
    :data:`CAPACITY_TOLERANCE` (geometric bisection from ``[lo, hi]``).

    A probe that failed only on latency, with its backlog drained, is
    repeated (up to :data:`PROBE_ATTEMPTS` per rate), so one host stall
    does not fail a rate the system sustains; a growing backlog fails the
    rate at once.  ``lo_passes`` skips the first probe when the caller
    already measured ``lo``.
    """
    used = 0

    def passes(rate: float) -> bool:
        nonlocal used
        for _ in range(PROBE_ATTEMPTS):
            if used >= max_probes:
                return False
            used += 1
            seg = probe(rate)
            if seg.meets_limit():
                return True
            if seg.backlog_grew:
                return False
        return False

    if lo_passes if lo_passes is not None else passes(lo):
        while used < max_probes and passes(hi):
            lo, hi = hi, hi * 2.0
    else:
        hi, lo = lo, lo / 2.0
        while used < max_probes and not passes(lo):
            hi, lo = lo, lo / 2.0
    while hi / lo > 1.0 + CAPACITY_TOLERANCE and used < max_probes:
        mid = math.sqrt(lo * hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
