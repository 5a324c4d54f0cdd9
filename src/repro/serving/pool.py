"""Warm snapshot pool: shard map of warmed predictor states for serving.

A serving replica answering for a (predictor config, workload) pair
should not re-simulate the workload's warmup prefix every time a client
connects — PR 3's ``warm_share`` machinery already proved that warmed
:class:`~repro.common.state.PredictorState` envelopes are deterministic
and transplantable.  The pool turns that into a serving primitive:

* A **shard** is one warmed state, keyed by
  :class:`ShardKey` ``(config, workload, warmup)`` and annotated with
  the PC range its warmup prefix touched, so operators can route
  clients by the code region they exercise.
* ``acquire()`` returns the shard, hydrating it in preference order:
  in-memory hit → shared :class:`~repro.orchestration.statestore.
  StateStore` entry (saved under the same ``warm_context_key`` the
  campaign engine uses, so campaigns and servers share warm state) →
  simulate the warmup prefix once (on the predictor's batch kernel
  where one exists, bit-identical to the scalar loop) and persist it
  for every later replica.
* A configurable **budget** (``max_shards``) bounds resident shards;
  beyond it the least-recently-used shard is evicted from memory (the
  StateStore copy survives) and rehydrates bit-identically on next use.

Hydration and eviction are deterministic: a shard's checkpoint is a
pure function of (config code, workload name, warmup length), so pool
churn can never change a prediction.  ``pool_evict`` / ``warm_hydrate``
telemetry makes the churn observable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.orchestration.fingerprint import predictor_fingerprint
from repro.orchestration.statestore import StateStore, warm_context_key
from repro.orchestration.tasks import PredictorFactory, TraceSpec
from repro.orchestration.telemetry import Telemetry
from repro.sim.metrics import SimCheckpoint
from repro.sim.simulator import simulate

#: Default warmup prefix length for serving shards.
DEFAULT_WARMUP = 2_000


@dataclass(frozen=True)
class ShardKey:
    """Identity of one warm shard: config × workload × warmup length."""

    config: str
    workload: str
    warmup: int

    def label(self) -> str:
        """Compact form used in telemetry events."""
        return f"{self.config}|{self.workload}@{self.warmup}"


@dataclass
class Shard:
    """One resident warm state plus its routing metadata."""

    key: ShardKey
    checkpoint: SimCheckpoint
    #: PC range the warmup prefix touched — the shard's address-space
    #: footprint, for (workload, PC range) routing.
    pc_lo: int
    pc_hi: int
    #: StateStore context this shard persists under.
    context_key: str
    hits: int = 0

    def covers(self, pc: int) -> bool:
        """Whether ``pc`` falls inside this shard's warmed PC range."""
        return self.pc_lo <= pc <= self.pc_hi

    def state_hash(self) -> str:
        return self.checkpoint.predictor_state.hash()


class PoolError(RuntimeError):
    """Unknown config/workload or unusable warm state."""


class WarmSnapshotPool:
    """LRU-budgeted shard map of warmed predictor states.

    Thread-safe: serving handles sessions from one thread per
    connection, and all shard-map state is guarded by ``self._lock``.
    Hydration (StateStore I/O and the one-off warmup simulation on a
    cold store) runs *outside* the lock — a slow first-touch must not
    stall sessions hitting already-resident shards.  Concurrent
    first-touch of the same shard is serialized by a per-key in-flight
    event instead, so the warmup prefix is still simulated at most once
    per process, and hydration is deterministic either way.
    """

    def __init__(
        self,
        registry: dict[str, PredictorFactory],
        state_dir: str | None = None,
        warmup_branches: int = DEFAULT_WARMUP,
        max_shards: int = 8,
        branches: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if warmup_branches <= 0:
            raise ValueError(f"warmup_branches must be positive, got {warmup_branches}")
        if max_shards <= 0:
            raise ValueError(f"max_shards must be positive, got {max_shards}")
        self.registry = registry
        self.warmup_branches = warmup_branches
        self.max_shards = max_shards
        self.branches = branches
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._store = StateStore(state_dir) if state_dir else None
        self._lock = threading.Lock()
        self._shards: OrderedDict[ShardKey, Shard] = OrderedDict()
        #: Keys being hydrated right now -> event set when they land.
        self._inflight: dict[ShardKey, threading.Event] = {}
        self._evictions = 0
        self._hydrations = 0

    # ------------------------------------------------------------- acquire

    def acquire(
        self,
        config: str,
        workload: str,
        branches: int | None = None,
        warmup: int | None = None,
    ) -> Shard:
        """Return the warm shard for (config, workload), hydrating it.

        ``branches`` overrides the workload's trace budget (it feeds the
        trace identity, so different budgets are different shards in the
        shared store); ``warmup`` overrides the pool default prefix.
        """
        if config not in self.registry:
            raise PoolError(
                f"unknown predictor config {config!r}; "
                f"available: {', '.join(sorted(self.registry))}"
            )
        key = ShardKey(config, workload, warmup or self.warmup_branches)
        while True:
            with self._lock:
                shard = self._shards.get(key)
                if shard is not None:
                    shard.hits += 1
                    self._shards.move_to_end(key)
                    return shard
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    break
            # Another thread is hydrating this key: wait for it to land
            # (outside the lock — resident-shard hits keep flowing),
            # then re-check the map.
            waiter.wait()
        evicted: list[ShardKey] = []
        try:
            # Hydration — StateStore I/O or the warmup simulation — runs
            # with no lock held; it is deterministic, so whichever
            # thread computes a shard produces the identical state.
            shard = self._hydrate(key, branches if branches is not None else self.branches)
            with self._lock:
                self._shards[key] = shard
                self._hydrations += 1
                while len(self._shards) > self.max_shards:
                    evicted_key, _ = self._shards.popitem(last=False)
                    self._evictions += 1
                    evicted.append(evicted_key)
        finally:
            with self._lock:
                event = self._inflight.pop(key, None)
            if event is not None:
                event.set()
        for evicted_key in evicted:
            self.telemetry.emit(
                "pool_evict", shard=evicted_key.label(), reason="pool budget"
            )
        return shard

    def _hydrate(self, key: ShardKey, branches: int | None) -> Shard:
        """Load-or-compute one shard's warm checkpoint (no lock held)."""
        spec = TraceSpec.suite(key.workload, branches)
        try:
            trace = spec.resolve()
        except (ValueError, KeyError) as exc:
            raise PoolError(f"cannot build workload {key.workload!r}: {exc}") from exc
        warm_position = min(key.warmup, len(trace))
        factory = self.registry[key.config]
        context = warm_context_key(
            predictor_fingerprint(factory(), "auto"), spec.identity(), warm_position
        )
        source = "store"
        warm = self._store.load(context, warm_position) if self._store else None
        if warm is None:
            source = "simulated"
            warm = simulate(factory(), trace, stop_after=warm_position, kernel="auto").checkpoint
            if self._store is not None:
                self._store.save(context, warm)
        prefix = trace.pcs[:warm_position]
        shard = Shard(
            key=key,
            checkpoint=warm,
            pc_lo=min(prefix) if prefix else 0,
            pc_hi=max(prefix) if prefix else 0,
            context_key=context,
        )
        self.telemetry.emit(
            "warm_hydrate",
            shard=key.label(),
            source=source,
            position=warm.position,
            state_hash=warm.state_hash()[:16],
        )
        return shard

    # ------------------------------------------------------------- lookup

    def lookup(self, workload: str, pc: int) -> list[Shard]:
        """Resident shards of ``workload`` whose PC range covers ``pc``."""
        with self._lock:
            return [
                shard
                for shard in self._shards.values()
                if shard.key.workload == workload and shard.covers(pc)
            ]

    def resident(self) -> list[ShardKey]:
        """Keys currently held in memory, least recently used first."""
        with self._lock:
            return list(self._shards)

    def stats(self) -> dict:
        """Counters for reporting: residency, hydrations, evictions."""
        with self._lock:
            return {
                "resident": len(self._shards),
                "budget": self.max_shards,
                "hydrations": self._hydrations,
                "evictions": self._evictions,
                "hits": sum(shard.hits for shard in self._shards.values()),
            }
