"""Always-on prediction serving: warm snapshot pools, server, clients.

The campaign layer (:mod:`repro.orchestration`) answers "run this sweep
to completion"; this package answers "keep predictors resident and
answer prediction requests forever".  Three pieces:

* :mod:`repro.serving.pool` — :class:`WarmSnapshotPool`, an LRU-budgeted
  shard map of warmed predictor states hydrated from the shared
  :class:`~repro.orchestration.statestore.StateStore`.
* :mod:`repro.serving.server` — :class:`PredictionServer`, sessions over
  the campaign wire protocol with predict-then-train semantics
  bit-identical to the offline simulator.
* :mod:`repro.serving.loadgen` — concurrent-session load harness with
  latency percentiles.

See ``docs/serving.md`` for the architecture and failure matrix.
"""

from repro.serving.client import DEFAULT_BATCH, PredictClient, ServeError
from repro.serving.loadgen import (
    DEFAULT_SESSION_EVENTS,
    PROFILES,
    LoadProfile,
    LoadReport,
    percentile,
    run_load,
    suite_profile,
)
from repro.serving.pool import (
    DEFAULT_WARMUP,
    PoolError,
    Shard,
    ShardKey,
    WarmSnapshotPool,
)
from repro.serving.server import MAX_BATCH_EVENTS, PredictionServer, predict_batch

__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_SESSION_EVENTS",
    "DEFAULT_WARMUP",
    "MAX_BATCH_EVENTS",
    "LoadProfile",
    "LoadReport",
    "PROFILES",
    "PoolError",
    "PredictClient",
    "PredictionServer",
    "ServeError",
    "Shard",
    "ShardKey",
    "WarmSnapshotPool",
    "percentile",
    "predict_batch",
    "run_load",
    "suite_profile",
]
