"""The simulation engine: the trace-driven loop and its segmentation.

Mirrors the CBP-4 discipline: for every committed conditional branch the
predictor is asked for a direction, then immediately trained with the
resolved outcome.  Mispredictions are counted and reported as MPKI over
the trace's instruction count.

:func:`simulate` is the one engine.  It validates its inputs, restores
``resume_from`` and splits the run into segments once, then hands each
segment to a runner: the scalar loop :func:`run_events` (which the
prediction server also runs on short ``events`` batches), or a
registered vectorized kernel from :mod:`repro.sim.batchkernel`.  Every runner
replays events ``[start, end)`` and returns ``(predictions, providers)``:
the time-ordered predictions and the per-event provider codes plus
names, or None.  ``simulate`` alone turns those into miss counts and
provider hits, and :func:`repro.sim.attribution.attribute` into
per-branch misses, from the same replay.

The run is segmentable: ``stop_after`` cuts it at an absolute branch
position and attaches a :class:`~repro.sim.metrics.SimCheckpoint` to the
partial result, ``resume_from`` continues from such a cut, and
``checkpoint_every`` streams periodic cuts to ``on_checkpoint`` (the
campaign engine persists them in its state store).  The invariant —
enforced by ``tests/test_state.py`` for every registered predictor and
by ``tests/test_batchkernel.py`` for every kernel — is that any chain of
segments is bit-identical to a straight-through run: same MPKI, same
provider hits, same final predictor state hash.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.predictors.base import BranchPredictor, hot_path
from repro.sim.metrics import SimCheckpoint, SimulationResult
from repro.trace.records import Trace

KERNEL_MODES = ("scalar", "vectorized", "auto")


@hot_path
def run_events(predict, train, pcs, outcomes, predictions, mispredictions: int) -> int:
    """The per-event loop: predict, compare, train — nothing else.

    ``predictions`` is a preallocated buffer of ``len(pcs)`` slots,
    filled in place; returns ``mispredictions`` plus this batch's
    misses.  The prediction server runs it on ``events`` batches below
    :data:`repro.serving.server.KERNEL_MIN_EVENTS` events or without a
    kernel; longer ones replay bit-identically on the batch kernel.
    """
    for position in range(len(pcs)):
        pc = pcs[position]
        taken = outcomes[position]
        prediction = predict(pc)
        if prediction != taken:
            mispredictions += 1
        train(pc, taken)
        predictions[position] = prediction
    return mispredictions


# Segment runners: replay events [start, end) of ``trace`` and return
# ``(predictions, providers)`` — the time-ordered predictions as a bool
# array and the per-event provider codes plus names, or None when every
# prediction came from the predictor itself (the default
# :attr:`~repro.predictors.base.BranchPredictor.provider`).  The scalar
# runner records providers only when ``track_providers`` is set; kernels
# return them whenever they can, so they ignore the flag.


def _scalar_segment(predictor, trace, start, end, track_providers):
    pcs = trace.pcs[start:end]
    outcomes = trace.outcomes[start:end]
    predictions = [False] * len(pcs)
    if not track_providers:
        run_events(predictor.predict, predictor.train, pcs, outcomes, predictions, 0)
        return np.array(predictions, dtype=bool), None
    # Record which component supplied each prediction: the provider is
    # read right after predict, before train.  Codes number the names in
    # first-appearance order.
    predict_direction = predictor.predict
    names: dict[str, int] = {}
    codes: list[int] = []
    record = codes.append

    def predict(pc):
        prediction = predict_direction(pc)
        record(names.setdefault(predictor.provider, len(names)))
        return prediction

    run_events(predict, predictor.train, pcs, outcomes, predictions, 0)
    return np.array(predictions, dtype=bool), (np.array(codes, dtype=np.intp), list(names))


def _kernel_segment(kernel, predictor, trace, start, end, track_providers):
    pcs, outcomes = trace.arrays()
    return kernel.run(predictor, pcs, outcomes, start, end)


def segment_runner(predictor: BranchPredictor, kernel: str):
    """The segment runner ``kernel`` picks for ``predictor`` (see :func:`simulate`)."""
    if kernel not in KERNEL_MODES:
        raise ValueError(f"kernel must be one of {KERNEL_MODES}, got {kernel!r}")
    if kernel == "scalar":
        return _scalar_segment
    # Imported here: the kernels import this module, and scalar-only
    # campaigns never need them.
    from repro.sim.batchkernel import kernel_for

    impl = kernel_for(predictor)
    if impl is not None:
        return partial(_kernel_segment, impl)
    if kernel == "vectorized":
        raise ValueError(
            f"no vectorized kernel supports {type(predictor).__name__} "
            f"(predictor {predictor.name!r}); use kernel='auto' or 'scalar'"
        )
    return _scalar_segment


def simulate(
    predictor: BranchPredictor,
    trace: Trace,
    track_providers: bool = False,
    warmup_branches: int = 0,
    resume_from: SimCheckpoint | None = None,
    stop_after: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[SimCheckpoint], None] | None = None,
    kernel: str = "scalar",
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return the result.

    ``warmup_branches`` predictions at the start train the predictor but
    are excluded from the misprediction *and* provider counts (the
    paper's short traces are measured cold, so experiments leave this
    at 0).

    ``track_providers`` additionally records which component of the
    predictor supplied each prediction (needed only for Figure 12; on
    the scalar loop it costs one wrapped ``predict`` call per branch).

    Segmentation parameters:

    * ``resume_from`` — a checkpoint from an earlier segment of the same
      trace; the predictor state is restored and counters continue from
      its absolute position.
    * ``stop_after`` — absolute branch position (exclusive) at which to
      cut; the partial result carries ``result.checkpoint``.
    * ``checkpoint_every`` / ``on_checkpoint`` — stream a checkpoint
      every N absolute branches (positions are multiples of N regardless
      of where the segment started, so resumed runs cut at the same
      places a straight run would).

    ``kernel`` picks what runs each segment, with bit-identical results:

    * ``"scalar"`` — the per-event loop;
    * ``"vectorized"`` — the predictor's registered batch kernel
      (:mod:`repro.sim.batchkernel`); raises if none supports it;
    * ``"auto"`` — the batch kernel when one supports the predictor,
      else the scalar loop.
    """
    run_segment = segment_runner(predictor, kernel)
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")

    total = len(trace)
    start = 0
    mispredictions = 0
    provider_hits: dict[str, int] = {}
    if resume_from is not None:
        if resume_from.trace_name and resume_from.trace_name != trace.name:
            raise ValueError(
                f"checkpoint was cut from trace {resume_from.trace_name!r}, "
                f"cannot resume over {trace.name!r}"
            )
        if not 0 <= resume_from.position <= total:
            raise ValueError(
                f"checkpoint position {resume_from.position} outside trace "
                f"of {total} branches"
            )
        predictor.restore(resume_from.predictor_state)
        start = resume_from.position
        mispredictions = resume_from.mispredictions
        provider_hits = dict(resume_from.provider_hits)

    end = total if stop_after is None else min(stop_after, total)
    if end < start:
        raise ValueError(f"stop_after={stop_after} is before resume position {start}")

    def cut(position: int, mispredicted: int) -> SimCheckpoint:
        return SimCheckpoint(
            position=position,
            mispredictions=mispredicted,
            provider_hits=dict(provider_hits),
            predictor_state=predictor.snapshot(),
            trace_name=trace.name,
        )

    # Segment boundaries: a streamed cut at every absolute multiple of
    # checkpoint_every inside (start, end] except the trace end, plus
    # the warmup edge, so each segment is all warmup or all measured.
    cuts: set[int] = set()
    if on_checkpoint is not None and checkpoint_every is not None:
        first = (start // checkpoint_every + 1) * checkpoint_every
        cuts = {p for p in range(first, end + 1, checkpoint_every) if p < total}
    boundaries = cuts | {end}
    if start < warmup_branches < end:
        boundaries.add(warmup_branches)

    # Kernels replay from the trace's cached arrays; the scalar loop reads
    # the lists, so only the replayed slice is converted for the compare.
    outcomes = trace.outcomes if run_segment is _scalar_segment else trace.arrays()[1]
    for segment_end in sorted(boundaries):
        counted = start >= warmup_branches
        tracked = counted and track_providers
        predictions, providers = run_segment(predictor, trace, start, segment_end, tracked)
        if counted:
            taken = np.asarray(outcomes[start:segment_end], dtype=bool)
            mispredictions += int(np.count_nonzero(predictions != taken))
        if tracked:
            if providers is None:
                hits = [(predictor.name, segment_end - start)]
            else:
                codes, names = providers
                hits = zip(names, np.bincount(codes, minlength=len(names)).tolist())
            for name, count in hits:
                if count:
                    provider_hits[name] = provider_hits.get(name, 0) + count
        if segment_end in cuts:
            on_checkpoint(cut(segment_end, mispredictions))
        start = segment_end

    measured = max(0, end - warmup_branches)
    instructions = trace.instruction_count
    if total and measured != total:
        instructions = max(1, round(instructions * measured / total))
    segmented = (
        resume_from is not None or stop_after is not None or checkpoint_every is not None
    )
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        branches=measured,
        instructions=instructions,
        mispredictions=mispredictions,
        provider_hits=provider_hits,
        checkpoint=cut(end, mispredictions) if segmented else None,
    )
