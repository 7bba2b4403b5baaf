"""Deadlines, retries, hedging and circuit breaking for the service layer.

:mod:`repro.distributed.faults` injects failures; this module is the policy
side that keeps the service upright under them:

* :class:`Deadline` — a per-request time budget threaded from
  ``ServiceHost.submit(..., deadline=...)`` through the admission queue, the
  batching window and every per-site round.  Expiry while *queued* sheds the
  request (:class:`DeadlineExceededError`, a ``shed`` metric, never a
  latency sample); expiry while *evaluating* degrades it to a partial
  answer over the fragments already reached.
* :class:`RetryPolicy` — bounded retry with exponential backoff + jitter
  for idempotent per-site rounds, plus the optional hedge threshold the
  transport uses to race a second copy of a straggling message.
* :class:`CircuitBreaker` — per-site closed/open/half-open breaker: after
  ``failure_threshold`` consecutive round failures the site is declared
  down and further rounds fail fast (degrading instead of burning their
  deadline on a dead site); after ``reset_seconds`` one probe round is let
  through and the breaker re-closes on its success.
* :class:`ResilienceState` / :class:`ResilienceContext` — the host-owned
  shared state (breaker board, counters, seeded jitter RNG) and its
  per-request view carrying the request's deadline.

Everything here reports through the PR 6 tracer — retry backoff becomes a
``retry``-stage span, trips/probes/degrades become zero-duration events —
and through counters exposed in the Prometheus exposition; no new timers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "DeadlineExceededError",
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "ResiliencePolicy",
    "ResilienceStats",
    "ResilienceState",
    "ResilienceContext",
]


class DeadlineExceededError(RuntimeError):
    """A request outlived its deadline budget.

    ``stage`` names where the budget ran out: ``"queued"`` (shed before any
    work: the pending slot is released and a shed metric recorded) or
    ``"wire"`` (mid-round, turned into degradation by the evaluator when
    possible).
    """

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class Deadline:
    """A monotonic time budget for one request."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        if seconds <= 0.0:
            raise ValueError("deadline must be > 0 seconds")
        return cls(time.perf_counter() + seconds)

    def remaining(self) -> float:
        return self.expires_at - time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() >= self.expires_at

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining() * 1000:.1f} ms>"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter, and hedging."""

    #: total tries per site round (1 = no retry)
    max_attempts: int = 3
    #: first backoff, seconds
    backoff_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 0.1
    #: jitter fraction: each backoff is scaled by 1 +/- jitter * uniform
    jitter: float = 0.5
    #: race a second copy of a message whose injected delay exceeds this
    #: (None disables hedging)
    hedge_after_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0.0 or self.backoff_max_seconds < 0.0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.hedge_after_seconds is not None and self.hedge_after_seconds < 0.0:
            raise ValueError("hedge_after_seconds must be >= 0 when set")

    def backoff_for(self, attempt: int, rng: random.Random) -> float:
        """The wait before retry number *attempt* (1-based), jittered."""
        base = min(
            self.backoff_seconds * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_seconds,
        )
        if base <= 0.0:
            return 0.0
        if self.jitter <= 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Closed / open / half-open breaker for one site.

    ``record_failure`` trips the breaker after ``failure_threshold``
    consecutive failures; while open, :meth:`allow` rejects until
    ``reset_seconds`` have passed, then admits exactly one half-open probe.
    The probe's success re-closes the breaker; its failure re-opens it for
    another full reset window.
    """

    def __init__(self, failure_threshold: int = 3, reset_seconds: float = 0.25):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_seconds < 0.0:
            raise ValueError("reset_seconds must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self.rejections = 0
        self.probes = 0

    def allow(self) -> bool:
        """May a round be attempted right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if time.perf_counter() - self._opened_at >= self.reset_seconds:
                self.state = "half_open"
                self.probes += 1
                return True
            self.rejections += 1
            return False
        # half_open: one probe is already in flight; hold everyone else
        self.rejections += 1
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Note one failed round; returns True when this call trips it open."""
        self.consecutive_failures += 1
        if self.state == "half_open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self._opened_at = time.perf_counter()
            self.trips += 1
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.state} failures={self.consecutive_failures}"
            f" trips={self.trips}>"
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """The knobs of one host's resilience behaviour (see ``ServiceConfig``)."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 0.25
    #: default per-request deadline budget, seconds (None = no deadline
    #: unless the caller passes one to ``submit``)
    default_deadline_seconds: Optional[float] = None
    #: seed of the backoff-jitter RNG (determinism for tests and replays)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_reset_seconds < 0.0:
            raise ValueError("breaker_reset_seconds must be >= 0")
        if (
            self.default_deadline_seconds is not None
            and self.default_deadline_seconds <= 0.0
        ):
            raise ValueError("default_deadline_seconds must be > 0 when set")


@dataclass
class ResilienceStats:
    """Lifetime counters of one host's resilience machinery."""

    retries: int = 0
    hedged_sends: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    breaker_probes: int = 0
    #: requests answered partially (some site unreachable past budget)
    degraded_answers: int = 0
    #: requests shed before evaluation (deadline expired while queued)
    shed_requests: int = 0
    #: rounds abandoned because the deadline expired mid-evaluation
    deadline_failures: int = 0
    #: per-site retry counts
    retries_by_site: Dict[str, int] = field(default_factory=dict)

    def note_retry(self, site: str) -> None:
        self.retries += 1
        self.retries_by_site[site] = self.retries_by_site.get(site, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "hedged_sends": self.hedged_sends,
            "breaker_trips": self.breaker_trips,
            "breaker_rejections": self.breaker_rejections,
            "breaker_probes": self.breaker_probes,
            "degraded_answers": self.degraded_answers,
            "shed_requests": self.shed_requests,
            "deadline_failures": self.deadline_failures,
            "retries_by_site": dict(sorted(self.retries_by_site.items())),
        }

    def summary(self) -> str:
        return (
            f"resilience: {self.retries} retries, {self.hedged_sends} hedged,"
            f" {self.breaker_trips} trips ({self.breaker_rejections} rejections,"
            f" {self.breaker_probes} probes), {self.degraded_answers} degraded,"
            f" {self.shed_requests} shed, {self.deadline_failures} deadline failures"
        )


class ResilienceState:
    """Host-owned shared state: breaker board, counters, jitter RNG."""

    def __init__(self, policy: Optional[ResiliencePolicy] = None):
        self.policy = policy or ResiliencePolicy()
        self.stats = ResilienceStats()
        self.rng = random.Random(self.policy.seed)
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, site: str) -> CircuitBreaker:
        """The (auto-created) breaker of *site*."""
        breaker = self._breakers.get(site)
        if breaker is None:
            breaker = self._breakers[site] = CircuitBreaker(
                self.policy.breaker_failure_threshold,
                self.policy.breaker_reset_seconds,
            )
        return breaker

    def breakers(self) -> Dict[str, CircuitBreaker]:
        return dict(self._breakers)

    def for_request(self, deadline: Optional[Deadline]) -> "ResilienceContext":
        return ResilienceContext(self, deadline)

    def __repr__(self) -> str:
        return f"<ResilienceState breakers={len(self._breakers)} {self.stats.summary()}>"


class ResilienceContext:
    """One request's view of the shared state: policy + breakers + deadline."""

    __slots__ = ("state", "deadline")

    def __init__(self, state: ResilienceState, deadline: Optional[Deadline] = None):
        self.state = state
        self.deadline = deadline

    @property
    def policy(self) -> ResiliencePolicy:
        return self.state.policy

    @property
    def retry(self) -> RetryPolicy:
        return self.state.policy.retry

    @property
    def stats(self) -> ResilienceStats:
        return self.state.stats

    @property
    def rng(self) -> random.Random:
        return self.state.rng

    def breaker(self, site: str) -> CircuitBreaker:
        return self.state.breaker(site)

    def deadline_remaining(self) -> Optional[float]:
        """Seconds left in the budget, or None when unbounded."""
        return None if self.deadline is None else self.deadline.remaining()

    def deadline_expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()
