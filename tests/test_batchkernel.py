"""Differential identity: the vectorized batch kernels vs the scalar loop.

The batch kernel's whole contract is *bit-identity* — same
mispredictions, same MPKI, same ``state_hash()`` as the scalar
reference on every trace (``docs/vectorization.md`` explains why the
rewrites preserve it).  These tests enforce the contract three ways:

* a quick per-predictor sweep over a few suite + wild traces that runs
  in tier-1 on every commit;
* a hypothesis harness that replays random traces event by event
  through the kernel registry and a manual predict/train loop, plus
  random ``stop_after`` prefix cuts through the public entry points;
* a hypothesis property over the one segmentation in ``simulate()``:
  random warmup, streamed cuts, a stop/resume split through either
  kernel and provider attribution all equal the straight scalar run;
* a hypothesis sweep over ``BFNeuralConfig`` geometries and feature
  flags inside the kernel's ``supports()`` range, the independent
  oracle for the scalar core's per-geometry distance tables;
* a hypothesis differential of the one loop-predictor replay both
  kernels share against the scalar ``LoopPredictor`` and the hosts'
  ``WITHLOOP`` rule, on constructed tables and events;
* event-by-event sweeps of the TAGE kernel (over TAGE and BF-TAGE
  cores) and the OH-SNAP kernel, straight, in three kernel calls and
  resumed from a JSON snapshot (OH-SNAP's from start states on its
  weight, bias and θ bounds), and chunked-staging memory bounds;
* a full 40-trace + WILD1-4 sweep per ported predictor, marked
  ``vectorized`` and gated behind ``REPRO_FULL_DIFFERENTIAL=1``
  (minutes of scalar BF-Neural; ``run_all_experiments.sh`` runs it).

The array-state substrate (``repro.common.tablestate``) gets its own
differential tests against the scalar twins it replaces: ``mix64``,
the packed-history shift register, the perceptron's ±1 history, the
incremental ``FoldedHistory`` fold and the grouping of events by table
entry.
"""

import json
import os
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.bitops import fold_bits, mix64
from repro.common.histories import FoldedHistory
from repro.common.tablestate import (
    entry_runs,
    folded_history_block,
    mix64_array,
    packed_history_series,
    signed_history_matrix,
)
from repro.common.state import PredictorState
from repro.core import BFISLTage, BFNeural, BFTage, BFTageConfig
from repro.core.bfneural import BFNeuralConfig
from repro.core.bfneural_ideal import oracle_from_trace
from repro.core.configs import bf_neural_32kb
from repro.predictors import (
    Bimodal,
    FilterPredictor,
    GShare,
    ISLTage,
    PiecewiseLinear,
    ScaledNeural,
    Tage,
    TageConfig,
)
from repro.predictors.loop import LoopPredictor
from repro.predictors.perceptron import GlobalPerceptron
from repro.sim import batchkernel, bfkernel, simulate
from repro.sim.batchkernel import kernel_for, simulate_batch
from repro.sim.bfkernel import loop_replay, loop_rows
from repro.sim.simulator import KERNEL_MODES, _scalar_segment, segment_runner
from repro.sim.tagekernel import _fold_plan, _fold_prefixes
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import SUITE_NAMES, WILD_NAMES, build_trace

#: A BF-TAGE whose 4 tables, BST and segmented stacks are small.
SMALL_BF_TAGE = BFTageConfig(
    num_tables=4,
    base_log2_entries=8,
    log2_entries=[6, 6, 7, 7],
    tag_bits=[6, 7, 8, 9],
    bst_entries=256,
    boundaries=[8, 16, 40, 72, 120],
    rs_size=3,
    unfiltered_bits=8,
    useful_reset_period=512,
)

#: Every predictor with a registered kernel, at test-sized geometries.
PORTED = {
    "bimodal": Bimodal,
    "gshare": GShare,
    "perceptron": lambda: GlobalPerceptron(256, 24),
    "bf-neural": BFNeural,
    # Small tables a 4,000-event trace mostly touches; its hundreds of
    # stack records make the kernel stage them whole, not slot by slot.
    "bf-neural-small": lambda: BFNeural(
        BFNeuralConfig(bst_entries=1024, bias_entries=256, wrs_entries=2048, wm_rows=64)
    ),
    "tage15": lambda: Tage(TageConfig.for_tables(15)),
    "isl-tage15": lambda: ISLTage(TageConfig.for_tables(15)),
    "bf-tage10": lambda: BFTage(BFTageConfig.for_tables(10)),
    "bf-isl-tage10": lambda: BFISLTage(BFTageConfig.for_tables(10)),
    # Tables, BST and stacks small enough that a short trace aliases,
    # allocates under pressure and fills every segment.
    "bf-tage-small": lambda: BFTage(SMALL_BF_TAGE),
    "oh-snap": ScaledNeural,
}

#: BF-TAGE configurations no kernel supports: the probabilistic BST
#: draws and a profile replaces the BST, so both stay scalar.
SCALAR_BF_TAGE = {
    "bf-tage4-probabilistic": lambda: BFTage(
        BFTageConfig(num_tables=4, probabilistic_bst=True)
    ),
    "bf-isl-tage4-probabilistic": lambda: BFISLTage(
        BFTageConfig(num_tables=4, probabilistic_bst=True)
    ),
    "bf-tage10-profile": lambda: BFTage(
        BFTageConfig.for_tables(10),
        bias_oracle=oracle_from_trace(build_trace("SPEC00", 200)),
    ),
}

QUICK_TRACES = ("SPEC03", "SPEC17", "WILD2")
QUICK_BRANCHES = 4_000


def _assert_identical(factory, trace, **kwargs):
    """Run scalar and vectorized twins; assert results and state agree."""
    scalar_p, vec_p = factory(), factory()
    scalar = simulate(scalar_p, trace, **kwargs)
    vec = simulate(vec_p, trace, kernel="vectorized", **kwargs)
    assert vec.mispredictions == scalar.mispredictions
    assert vec.mpki == scalar.mpki
    assert vec.branches == scalar.branches
    assert vec_p.state_hash() == scalar_p.state_hash()
    return scalar, vec


def _trace_from(events, name="hypo"):
    pcs = [pc for pc, _ in events]
    outcomes = [taken for _, taken in events]
    metadata = TraceMetadata(
        name=name, category="synthetic", instruction_count=max(1, 5 * len(events))
    )
    return Trace(metadata, pcs, outcomes)


@pytest.mark.parametrize("name", sorted(PORTED))
@pytest.mark.parametrize("trace_name", QUICK_TRACES)
def test_quick_differential(name, trace_name):
    trace = build_trace(trace_name, QUICK_BRANCHES)
    _assert_identical(PORTED[name], trace)


def test_warmup_exclusion_matches_scalar():
    trace = build_trace("SPEC05", QUICK_BRANCHES)
    _assert_identical(Bimodal, trace, warmup_branches=500)


def test_provider_attribution_matches_scalar():
    trace = build_trace("SPEC11", QUICK_BRANCHES)
    scalar, vec = _assert_identical(BFNeural, trace, track_providers=True)
    assert vec.provider_hits == scalar.provider_hits
    assert sum(vec.provider_hits.values()) == len(trace)


def test_checkpoint_stream_matches_scalar():
    trace = build_trace("SPEC08", QUICK_BRANCHES)
    cuts = {}
    for label in ("scalar", "vectorized"):
        collected = []
        simulate(
            GShare(),
            trace,
            checkpoint_every=700,
            on_checkpoint=collected.append,
            kernel=label,
        )
        cuts[label] = [
            (c.position, c.mispredictions, c.state_hash()) for c in collected
        ]
    assert cuts["vectorized"] == cuts["scalar"]
    assert cuts["vectorized"]  # the trace is long enough to cut at least once


def test_resume_from_scalar_checkpoint():
    # A checkpoint cut by the scalar loop resumes bit-identically
    # through the batch kernel, and vice versa.
    trace = build_trace("SPEC02", QUICK_BRANCHES)
    head = simulate(BFNeural(), trace, stop_after=1_500)
    assert head.checkpoint is not None
    straight = simulate(BFNeural(), trace)
    resumed_p = BFNeural()
    resumed = simulate(
        resumed_p, trace, kernel="vectorized", resume_from=head.checkpoint
    )
    assert resumed.mispredictions == straight.mispredictions
    vec_head_p = BFNeural()
    vec_head = simulate(
        vec_head_p, trace, kernel="vectorized", stop_after=1_500
    )
    assert vec_head.checkpoint.state_hash() == head.checkpoint.state_hash()
    back = simulate(BFNeural(), trace, resume_from=vec_head.checkpoint)
    assert back.mispredictions == straight.mispredictions


class TestDispatch:
    def test_kernel_modes_constant(self):
        assert KERNEL_MODES == ("scalar", "vectorized", "auto")

    def test_registry_covers_ported_predictors(self):
        for factory in PORTED.values():
            assert kernel_for(factory()) is not None

    def test_registry_rejects_unported_predictor(self):
        assert kernel_for(PiecewiseLinear()) is None
        # Exact-type registration: an ISL-TAGE overlay takes the kernel
        # only around its own core type.
        assert kernel_for(ISLTage(core=BFTage(BFTageConfig.for_tables(4)))) is None

    def test_vectorized_mode_raises_for_unported(self):
        trace = build_trace("SPEC00", 200)
        with pytest.raises(ValueError, match="no vectorized kernel"):
            simulate(PiecewiseLinear(), trace, kernel="vectorized")

    @pytest.mark.parametrize(
        "factory",
        [PiecewiseLinear, FilterPredictor, *SCALAR_BF_TAGE.values()],
        ids=["piecewise", "filter", *SCALAR_BF_TAGE],
    )
    def test_auto_mode_costs_nothing_without_a_kernel(self, factory):
        # ``auto`` hands a predictor no kernel supports the scalar runner
        # itself: no wrapper, no per-segment dispatch.
        assert segment_runner(factory(), "auto") is _scalar_segment

    def test_auto_mode_falls_back_to_scalar(self):
        trace = build_trace("SPEC00", 1_000)
        factory = PiecewiseLinear
        scalar_p, auto_p = factory(), factory()
        scalar = simulate(scalar_p, trace)
        auto = simulate(auto_p, trace, kernel="auto")
        assert auto.mispredictions == scalar.mispredictions
        assert auto_p.state_hash() == scalar_p.state_hash()

    def test_scalar_mode_matches_simulate(self):
        trace = build_trace("SPEC01", 1_000)
        default_p, scalar_p = Bimodal(), Bimodal()
        default = simulate(default_p, trace)
        scalar = simulate(scalar_p, trace, kernel="scalar")
        assert scalar.mispredictions == default.mispredictions
        assert scalar_p.state_hash() == default_p.state_hash()

    def test_simulate_batch_is_simulate_with_auto_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.sim.batchkernel.simulate",
            lambda *args, **kwargs: calls.append((args, kwargs)),
        )
        trace = build_trace("SPEC01", 100)
        predictor = Bimodal()
        simulate_batch(predictor, trace, warmup_branches=5)
        simulate_batch(predictor, trace, kernel="scalar")
        assert calls == [
            ((predictor, trace), {"kernel": "auto", "warmup_branches": 5}),
            ((predictor, trace), {"kernel": "scalar"}),
        ]

    def test_unknown_kernel_rejected(self):
        trace = build_trace("SPEC00", 100)
        with pytest.raises(ValueError, match="kernel must be one of"):
            simulate(Bimodal(), trace, kernel="simd")


class TestArrayStateSubstrate:
    """tablestate helpers vs the scalar machinery they replace."""

    def test_mix64_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**64, size=256, dtype=np.uint64)
        mixed = mix64_array(values)
        assert [int(v) for v in mixed] == [mix64(int(v)) for v in values]

    def test_entry_runs_groups_events_by_entry_in_time_order(self):
        idx = np.random.default_rng(13).integers(0, 40, size=300).astype(np.uint16)
        order, sidx, run_start, starts = entry_runs(idx)
        runs: dict[int, list[int]] = {}
        for event, entry in enumerate(idx.tolist()):
            runs.setdefault(entry, []).append(event)
        expected_order, expected_starts = [], []
        for entry in sorted(runs):
            expected_starts += [len(expected_order)] * len(runs[entry])
            expected_order += runs[entry]
        assert order.tolist() == expected_order
        assert sidx.tolist() == idx[expected_order].tolist()
        assert starts.tolist() == expected_starts
        assert run_start.tolist() == [
            k == first for k, first in enumerate(expected_starts)
        ]

    def test_packed_history_matches_shift_register(self):
        rng = np.random.default_rng(11)
        outcomes = rng.integers(0, 2, size=300, dtype=np.uint8)
        bits, seed = 13, 0x1A5
        series = packed_history_series(outcomes, bits, seed=seed)
        register, mask_ = seed, (1 << bits) - 1
        for i, taken in enumerate(outcomes):
            assert int(series[i]) == register
            register = ((register << 1) | int(taken)) & mask_
        assert len(series) == len(outcomes)

    def test_signed_history_matches_scalar_evolution(self):
        rng = np.random.default_rng(13)
        outcomes = rng.integers(0, 2, size=200, dtype=np.uint8)
        length = 9
        seed = rng.choice(np.array([-1, 1], dtype=np.int32), size=length)
        matrix = signed_history_matrix(outcomes, length, seed=seed)
        history = [int(v) for v in seed]  # index 0 newest
        for i, taken in enumerate(outcomes):
            assert list(matrix[i]) == history
            history = [2 * int(taken) - 1] + history[:-1]

    @pytest.mark.parametrize("length,width", [(17, 11), (8, 8), (5, 12)])
    def test_folded_history_matches_incremental_fold(self, length, width):
        # Two registers of different window and width, side by side in
        # one block, each against its own incremental FoldedHistory.
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=160, dtype=np.uint8)
        registers = ((length, width), (3, 5))
        expected = []
        for reg_length, reg_width in registers:
            fold = FoldedHistory(reg_length, reg_width)
            values = []
            for i, bit in enumerate(bits):
                outgoing = int(bits[i - reg_length]) if i >= reg_length else 0
                fold.update(int(bit), outgoing)
                values.append(fold.value)
            expected.append(values)
        prior = max(reg_length for reg_length, _ in registers)
        history = np.concatenate([np.zeros(prior, dtype=np.uint8), bits])
        block = folded_history_block(
            history, prior, *zip(*registers), [0] * len(registers)
        )
        assert block.tolist() == expected

    def test_folded_history_resume_matches_straight_run(self):
        # A segment seeded with the register value and the window's
        # bits from before the cut continues the straight series.
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2, size=120, dtype=np.uint8)
        length, width, cut = 15, 9, 47
        history = np.concatenate([np.zeros(length, dtype=np.uint8), bits])
        straight = folded_history_block(history, length, [length], [width], [0])[0]
        head = folded_history_block(
            history[: length + cut], length, [length], [width], [0]
        )[0]
        tail = folded_history_block(
            history[cut:], length, [length], [width], [int(head[-1])]
        )[0]
        assert tail.tolist() == straight[cut:].tolist()


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    events=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.booleans()),
        min_size=1,
        max_size=120,
    ),
)
def test_random_traces_agree_event_by_event(data, events):
    """Kernel predictions match a manual predict/train replay per event,
    and a random prefix cut through the public entry points agrees on
    counters and state."""
    name = data.draw(st.sampled_from(sorted(PORTED)))
    factory = PORTED[name]
    trace = _trace_from(events)
    pcs, outcomes = trace.arrays()

    manual = factory()
    expected = []
    for pc, taken in events:
        expected.append(manual.predict(pc))
        manual.train(pc, bool(taken))

    kerneled = factory()
    preds, _ = kernel_for(kerneled).run(kerneled, pcs, outcomes, 0, len(events))
    assert [bool(p) for p in preds] == expected
    assert kerneled.state_hash() == manual.state_hash()

    cut = data.draw(st.integers(min_value=1, max_value=len(events)))
    scalar_p, vec_p = factory(), factory()
    scalar = simulate(scalar_p, trace, stop_after=cut)
    vec = simulate(vec_p, trace, kernel="vectorized", stop_after=cut)
    assert vec.mispredictions == scalar.mispredictions
    assert vec_p.state_hash() == scalar_p.state_hash()


#: One ported counter table, both paper predictors (BF-TAGE as
#: BF-TAGE-10, BF-ISL-TAGE-10 and a small-table BF-TAGE), a TAGE on its
#: hybrid kernel, OH-SNAP on its kernel, and a filter predictor, which
#: no kernel supports, so ``kernel="auto"`` runs it on the scalar loop.
SEGMENTED = {
    "gshare": GShare,
    "bf-neural": BFNeural,
    "isl-tage4": lambda: ISLTage(TageConfig.for_tables(4)),
    "bf-tage10": PORTED["bf-tage10"],
    "bf-isl-tage10": PORTED["bf-isl-tage10"],
    "bf-tage-small": PORTED["bf-tage-small"],
    "oh-snap": ScaledNeural,
    "filter": lambda: FilterPredictor(pht_entries=4096, filter_entries=1024),
}
SEGMENT_TRACE = build_trace("SPEC05", 1_200)


@settings(max_examples=45, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SEGMENTED)))
def test_segmented_runs_equal_straight_scalar_run(data, name):
    """The one segmentation in ``simulate()``: random warmup, streamed
    cuts, provider attribution and a stop/resume split, each half on a
    random kernel, equal the straight scalar run in every counter, every
    streamed cut and the final state."""
    factory = SEGMENTED[name]
    trace = SEGMENT_TRACE
    total = len(trace)
    kernels = KERNEL_MODES if kernel_for(factory()) is not None else ("scalar", "auto")
    options = {
        "warmup_branches": data.draw(st.integers(0, total), label="warmup"),
        "checkpoint_every": data.draw(
            st.none() | st.integers(64, total), label="checkpoint_every"
        ),
        "track_providers": data.draw(st.booleans(), label="track_providers"),
    }
    split = data.draw(st.integers(0, total), label="stop_after")
    head_kernel = data.draw(st.sampled_from(kernels), label="head kernel")
    tail_kernel = data.draw(st.sampled_from(kernels), label="tail kernel")

    straight_cuts = []
    straight_p = factory()
    straight = simulate(straight_p, trace, on_checkpoint=straight_cuts.append, **options)

    cuts = []
    head = simulate(
        factory(),
        trace,
        stop_after=split,
        on_checkpoint=cuts.append,
        kernel=head_kernel,
        **options,
    )
    tail_p = factory()
    tail = simulate(
        tail_p,
        trace,
        resume_from=head.checkpoint,
        on_checkpoint=cuts.append,
        kernel=tail_kernel,
        **options,
    )

    assert tail.mispredictions == straight.mispredictions
    assert tail.branches == straight.branches
    assert tail.provider_hits == straight.provider_hits
    assert [(c.position, c.mispredictions, c.state_hash()) for c in cuts] == [
        (c.position, c.mispredictions, c.state_hash()) for c in straight_cuts
    ]
    assert tail_p.state_hash() == straight_p.state_hash()


#: The Figure 9 stages as (filter_biased_history, use_rs).
FIG9_STAGES = ((False, False), (True, False), (True, True))


@st.composite
def bf_neural_configs(draw):
    """``BFNeuralConfig`` variants the vectorized kernel supports: every
    Figure 9 stage and feature flag, ``ht`` 1-16, fold widths 4-10
    (``wm_rows`` 16-1024), any ``position_cap`` 16-2048 and ``rs_depth``
    1-48, or the 32 KB preset."""
    if draw(st.booleans(), label="32 KB preset"):
        return bf_neural_32kb().config
    filter_biased, use_rs = draw(st.sampled_from(FIG9_STAGES), label="stage")
    return BFNeuralConfig(
        bst_entries=1024,
        bias_entries=256,
        wrs_entries=4096,
        filter_biased_history=filter_biased,
        use_rs=use_rs,
        use_folded_hist=draw(st.booleans(), label="use_folded_hist"),
        use_positional=draw(st.booleans(), label="use_positional"),
        with_loop_predictor=draw(st.booleans(), label="with_loop_predictor"),
        ht=draw(st.integers(1, 16), label="ht"),
        wm_rows=1 << draw(st.integers(4, 10), label="log2 wm_rows"),
        position_cap=draw(st.integers(16, 2048), label="position_cap"),
        rs_depth=draw(st.integers(1, 48), label="rs_depth"),
    )


@settings(max_examples=40, deadline=None)
@given(
    config=bf_neural_configs(),
    data=st.data(),
)
def test_bf_neural_config_sweep_matches_scalar(config, data):
    """Scalar and vectorized BF-Neural agree on mispredictions and
    ``state_hash`` across geometries, over a random or a suite trace."""
    assert kernel_for(BFNeural(config)) is not None
    if data.draw(st.booleans(), label="random trace"):
        events = data.draw(
            st.lists(
                st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=400
            ),
            label="events",
        )
        trace = _trace_from([(0x4000 + 4 * pc, taken) for pc, taken in events])
    else:
        name = data.draw(st.sampled_from(SUITE_NAMES), label="suite trace")
        trace = build_trace(name, 1_500)
    _assert_identical(lambda: BFNeural(config), trace)


#: The TAGE kernel sweep: every tagged-table count 4-15, plain TAGE and
#: ISL-TAGE with the loop predictor and the statistical corrector each
#: on and off, a useful-bit aging period short enough to age several
#: times inside one kernel call, and each case on one suite trace so the
#: 60 cases cover all 40.
TAGE_CASES = [
    (tables, overlay)
    for overlay in (None, (False, False), (True, False), (False, True), (True, True))
    for tables in range(4, 16)
]
TAGE_AGING_PERIOD = 300
TAGE_BRANCHES = 1_200


def _tage_case(tables, overlay):
    config = TageConfig(num_tables=tables, useful_reset_period=TAGE_AGING_PERIOD)
    if overlay is None:
        return Tage(config)
    loop, sc = overlay
    return ISLTage(config, with_loop_predictor=loop, with_statistical_corrector=sc)


def _scalar_events(predictor, trace, start, end):
    """Per-event predictions and providers of the scalar predict/train loop."""
    predictions, providers = [], []
    for pc, taken in zip(trace.pcs[start:end], trace.outcomes[start:end]):
        predictions.append(predictor.predict(pc))
        providers.append(predictor.provider)
        predictor.train(pc, taken)
    return predictions, providers


def _kernel_events(predictor, trace, start, end):
    pcs, outcomes = trace.arrays()
    predictions, providers = kernel_for(predictor).run(predictor, pcs, outcomes, start, end)
    if providers is None:  # every prediction came from the predictor itself
        return [bool(p) for p in predictions], [predictor.provider] * len(predictions)
    codes, names = providers
    return [bool(p) for p in predictions], [names[c] for c in codes]


def _check_kernel_event_by_event(factory, trace):
    """Predictions, provider names and ``state_hash`` of a kernel equal
    the scalar predictor's event by event: straight through, segmented
    into three kernel calls, and resumed from a JSON snapshot cut
    mid-trace.  Returns the scalar providers."""
    total = len(trace)
    scalar_p = factory()
    assert kernel_for(scalar_p) is not None
    expected = _scalar_events(scalar_p, trace, 0, total)

    straight_p = factory()
    assert _kernel_events(straight_p, trace, 0, total) == expected
    assert straight_p.state_hash() == scalar_p.state_hash()

    cuts = (0, total // 3, (2 * total) // 3 + 7, total)
    segmented_p = factory()
    got = ([], [])
    for lo, hi in zip(cuts, cuts[1:]):
        predictions, providers = _kernel_events(segmented_p, trace, lo, hi)
        got[0].extend(predictions)
        got[1].extend(providers)
    assert got == expected
    assert segmented_p.state_hash() == scalar_p.state_hash()

    head_p = factory()
    _kernel_events(head_p, trace, 0, cuts[1])
    snapshot = json.loads(json.dumps(head_p.snapshot().to_json()))
    resumed_p = factory()
    resumed_p.restore(PredictorState.from_json(snapshot))
    tail = _kernel_events(resumed_p, trace, cuts[1], total)
    assert tail == (expected[0][cuts[1] :], expected[1][cuts[1] :])
    assert resumed_p.state_hash() == scalar_p.state_hash()
    return expected[1]


@pytest.mark.parametrize(
    "case",
    range(len(TAGE_CASES)),
    ids=[
        f"{'tage' if o is None else 'isl'}{t}"
        + ("" if o is None else f"-loop{int(o[0])}-sc{int(o[1])}")
        for t, o in TAGE_CASES
    ],
)
def test_tage_kernel_matches_scalar_event_by_event(case):
    tables, overlay = TAGE_CASES[case]
    trace = build_trace(SUITE_NAMES[case % len(SUITE_NAMES)], TAGE_BRANCHES)
    providers = _check_kernel_event_by_event(lambda: _tage_case(tables, overlay), trace)
    assert any(name.startswith("T") for name in providers)


@pytest.mark.parametrize("loop", [False, True], ids=["no-loop", "loop"])
def test_tage_kernel_statistical_corrector_matches_scalar(loop):
    """The suite's short traces rarely drive an SC counter to its
    threshold, so a noisy biased trace over few pcs makes the corrector
    revert weak TAGE predictions, with and without the loop override."""
    rng = np.random.default_rng(5)
    pcs = 0x4000 + 4 * rng.integers(0, 8, 3_000)
    bias = np.where(pcs % 32 == 0, 0.7, 0.3)
    taken = rng.random(3_000) < bias
    trace = _trace_from(list(zip(pcs.tolist(), taken.tolist())), name="noisy")
    providers = _check_kernel_event_by_event(lambda: _tage_case(4, (loop, True)), trace)
    assert "sc" in providers


#: Examples of the loop-replay differential; the full stage runs more.
LOOP_REPLAY_EXAMPLES = 600 if os.environ.get("REPRO_FULL_DIFFERENTIAL") else 60

#: The pcs of the loop-replay cases, by slot.
LOOP_PCS = tuple(0x4000 + 4 * i for i in range(6))
TRIP_MAX = LoopPredictor.TRIP_MAX


def _loop_table(entries, fill_ages):
    """An 8-entry, 4-way (two-set) loop table.  With ``fill_ages`` (one
    age per way) every way of both sets first holds a valid entry no pc
    matches; then each ``(pc slot, way, past, current, confidence, age)``
    of ``entries`` is installed at that pc's set in that way."""
    loop = LoopPredictor(entries=8, ways=4)
    if fill_ages is not None:
        for si in range(loop.sets):
            loop._tags[si] = [-1] * loop.ways
            loop._valid[si] = [True] * loop.ways
            loop._age[si] = list(fill_ages)
    for slot, way, past, current, confidence, age in entries:
        si, tag = loop._slots(LOOP_PCS[slot])[way]
        loop._tags[si][way] = tag
        loop._past[si][way] = past
        loop._current[si][way] = current
        loop._confidence[si][way] = confidence
        loop._age[si][way] = age
        loop._valid[si][way] = True
    return loop


def _scalar_loop_events(loop, events, withloop):
    """The oracle: ``LoopPredictor.lookup``/``update`` with the hosts'
    ``WITHLOOP`` rule (``ISLTage``/``BFNeural`` predict and train) per
    ``(pc slot, taken, compared, sc flip)`` event."""
    overrides, finals = [], []
    loop_pred = loop_valid = False
    for slot, taken, compared, flip in events:
        pc = LOOP_PCS[slot]
        pred = compared != flip
        loop_pred, loop_valid = loop.lookup(pc)
        override = loop_valid and withloop >= 0
        if override:
            pred = loop_pred
        if loop_valid and loop_pred != compared:
            if loop_pred == taken:
                if withloop < 63:
                    withloop += 1
            elif withloop > -64:
                withloop -= 1
        loop.update(pc, taken, allocate=pred != taken)
        overrides.append(override)
        finals.append(pred)
    return overrides, finals, withloop, (loop_pred, loop_valid)


_trip = st.sampled_from((0, 1, 2, 3, 5, TRIP_MAX - 1, TRIP_MAX))


@settings(max_examples=LOOP_REPLAY_EXAMPLES, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(0, len(LOOP_PCS) - 1),
            st.integers(0, 3),
            _trip,
            _trip,
            st.integers(0, 3),
            st.integers(0, 7),
        ),
        max_size=6,
    ),
    fill_ages=st.none() | st.tuples(*[st.integers(0, 2)] * 4),
    events=st.lists(
        st.tuples(
            st.integers(0, len(LOOP_PCS) - 1), st.booleans(), st.booleans(), st.booleans()
        ),
        min_size=1,
        max_size=60,
    ),
    withloop=st.sampled_from((63, -64, -1, 0)) | st.integers(-64, 63),
)
# WITHLOOP held at +63: a confident exit the core missed, then the
# confident next iteration.
@example(
    entries=[(0, 1, 3, 3, 3, 7)],
    fill_ages=None,
    events=[(0, False, True, False), (0, True, False, False)],
    withloop=63,
)
# WITHLOOP held at -64: the confident loop is wrong where the core was
# right, and never overrides.
@example(
    entries=[(0, 2, 3, 3, 3, 7)],
    fill_ages=None,
    events=[(0, True, True, False), (0, False, False, False)],
    withloop=-64,
)
# A trip count past TRIP_MAX retires the entry; the pc's next
# mispredicted exit allocates again.
@example(
    entries=[(1, 0, 4, TRIP_MAX, 3, 5)],
    fill_ages=None,
    events=[(1, True, True, False), (1, True, True, False), (1, False, True, False)],
    withloop=0,
)
# Allocation with all four ways valid: every age is above 0, so all
# decay and nothing is allocated; then the first way at age 0 is
# stolen; then ages decay up to the first way at age 0.
@example(
    entries=[],
    fill_ages=(1, 2, 1, 1),
    events=[(3, False, True, False), (3, False, True, False), (4, False, True, False)],
    withloop=0,
)
# A statistical-corrector flip: WITHLOOP compares the loop with the
# core's prediction, the override and allocation use the flipped one.
@example(
    entries=[(2, 3, 2, 2, 3, 7)],
    fill_ages=None,
    events=[(2, False, True, True), (5, False, False, True), (2, True, False, True)],
    withloop=-1,
)
@pytest.mark.vectorized
def test_loop_replay_matches_scalar_loop_predictor(entries, fill_ages, events, withloop):
    """``bfkernel.loop_replay``, the one loop-predictor replay of the
    TAGE and BF-Neural kernels, equals the scalar ``LoopPredictor`` plus
    the hosts' ``WITHLOOP`` rule: overrides, final predictions, the
    counter, the last event's scratch and the table, byte for byte."""
    scalar = _loop_table(entries, fill_ages)
    replayed = _loop_table(entries, fill_ages)
    expected = _scalar_loop_events(scalar, events, withloop)
    pcs = np.array([LOOP_PCS[slot] for slot, _, _, _ in events], dtype=np.uint64)
    compared = [compared for _, _, compared, _ in events]
    preds = [compared != flip for _, _, compared, flip in events]
    outcomes = [int(taken) for _, taken, _, _ in events]
    got = loop_replay(replayed, *loop_rows(replayed, pcs), outcomes, compared, preds, withloop)
    assert got == expected
    assert json.dumps(replayed.snapshot()) == json.dumps(scalar.snapshot())


@st.composite
def bf_tage_configs(draw):
    """``BFTageConfig`` variants the TAGE kernel supports: 1-10 tables at
    the default or a small random sizing, any ``rs_size`` 1-8, random
    segment boundaries over a random number of unfiltered outcomes, a
    BST from 64 to 8,192 entries and a short useful-bit aging period."""
    tables = draw(st.integers(1, 10), label="tables")
    unfiltered = draw(st.integers(1, 24), label="unfiltered_bits")
    boundaries = draw(
        st.lists(st.integers(unfiltered, 400), min_size=2, max_size=8, unique=True),
        label="boundaries",
    )
    sizing = {}
    if draw(st.booleans(), label="small tables"):
        sizing = {
            "log2_entries": draw(
                st.lists(st.integers(5, 8), min_size=tables, max_size=tables)
            ),
            "tag_bits": draw(st.lists(st.integers(4, 8), min_size=tables, max_size=tables)),
        }
    return BFTageConfig(
        num_tables=tables,
        bst_entries=draw(st.sampled_from((64, 1024, 8192)), label="bst_entries"),
        boundaries=sorted(boundaries),
        rs_size=draw(st.integers(1, 8), label="rs_size"),
        unfiltered_bits=unfiltered,
        useful_reset_period=TAGE_AGING_PERIOD,
        **sizing,
    )


@settings(max_examples=40, deadline=None)
@given(
    config=bf_tage_configs(),
    overlay=st.sampled_from((None, (False, False), (True, False), (False, True), (True, True))),
    data=st.data(),
)
def test_bf_tage_kernel_matches_scalar_event_by_event(config, overlay, data):
    """BF-TAGE and BF-ISL-TAGE (loop predictor and statistical corrector
    each on and off) on the TAGE kernel: predictions, providers and
    ``state_hash`` equal the scalar core's event by event, straight, in
    three kernel calls and resumed from a JSON snapshot."""

    def factory():
        if overlay is None:
            return BFTage(config)
        loop, sc = overlay
        return BFISLTage(config, with_loop_predictor=loop, with_statistical_corrector=sc)

    if data.draw(st.booleans(), label="random trace"):
        events = data.draw(
            st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=30, max_size=900),
            label="events",
        )
        trace = _trace_from([(0x4000 + 4 * pc, taken) for pc, taken in events])
    else:
        trace = build_trace(data.draw(st.sampled_from(SUITE_NAMES), label="suite trace"), 900)
    _check_kernel_event_by_event(factory, trace)


def _build_line_arrays(factory):
    """Run a short kernel call under a no-op profile function.

    tracemalloc records the line of every allocation, and CPython 3.11
    finds it by scanning the code object's line table unless tracing has
    built the code's line array; this builds it for the kernel's
    functions, so a traced kernel call runs about five times faster.
    """
    predictor = factory()
    pcs = np.arange(0x4000, 0x4000 + 4 * 64, 4, dtype=np.uint64)
    outcomes = (np.arange(64) % 3 == 0).astype(np.uint8)
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        kernel_for(predictor).run(predictor, pcs, outcomes, 0, len(pcs))
    finally:
        sys.setprofile(previous)


@settings(max_examples=60, deadline=None)
@given(
    registers=st.lists(
        st.tuples(st.integers(1, 500), st.integers(1, 16)), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_word_level_prefix_fold_matches_fold_bits(registers, seed):
    """The kernel's fold of a packed prefix, 64-bit word by word, equals
    ``fold_bits`` of the whole prefix for any prefix length and width."""
    rng = np.random.default_rng(seed)
    prefix_bits = tuple(bits for bits, _ in registers)
    widths = tuple(width for _, width in registers)
    words = -(-max(prefix_bits) // 64)
    packed = rng.integers(0, 2**64, size=(300, words), dtype=np.uint64)
    prefixes = [sum(int(w) << (64 * j) for j, w in enumerate(row)) for row in packed]
    folds = _fold_prefixes(packed, _fold_plan(prefix_bits, widths))
    expected = [
        [fold_bits(p, bits, width) for p in prefixes] for bits, width in registers
    ]
    assert folds.tolist() == expected


def test_bf_tage_kernel_staging_is_chunked():
    """BF-ISL-TAGE-10's BST stream, stack pass, prefix folds and table
    rows are staged a chunk at a time: a 40,000-event kernel call peaks
    within 1 MB of a 10,000-event one, and the 10,000 events, many
    chunks, equal the scalar replay."""
    rng = np.random.default_rng(4)
    _build_line_arrays(PORTED["bf-isl-tage10"])
    peaks = []
    for events in (10_000, 40_000):
        site = rng.integers(0, 300, events)
        pcs = (0x4000 + 4 * site).astype(np.uint64)
        outcomes = (rng.random(events) < rng.random(300)[site]).astype(np.uint8)
        predictor = BFISLTage(BFTageConfig.for_tables(10))
        tracemalloc.start()
        try:
            predictions, _ = kernel_for(predictor).run(predictor, pcs, outcomes, 0, events)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if events == 10_000:
            trace = _trace_from(list(zip(pcs.tolist(), outcomes.astype(bool).tolist())))
            scalar_p = BFISLTage(BFTageConfig.for_tables(10))
            expected, _ = _scalar_events(scalar_p, trace, 0, events)
            assert predictions.tolist() == expected
            assert predictor.state_hash() == scalar_p.state_hash()
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def _snap_case(columns, history, bias_entries, fulcrum, seed, saturated, events=600):
    """A small ``ScaledNeural`` restored to a start state next to its
    bounds, and a trace over twelve pcs of mixed bias.  ``saturated``
    tables start with about a third of the weights and bias at each
    saturation bound, otherwise at zero."""
    rng = np.random.default_rng(seed)

    def table(shape):
        if not saturated:
            return np.zeros(shape, dtype=np.int64).tolist()
        values = rng.integers(-128, 128, size=shape)
        values[rng.random(shape) < 0.3] = 127
        values[rng.random(shape) < 0.3] = -128
        return values.tolist()

    # θ at a bound with TC one step from the reset that would move it,
    # or both anywhere in range.
    theta, tc = [(1, -6), (255, 6), (int(rng.integers(1, 256)), int(rng.integers(-6, 7)))][
        rng.integers(3)
    ]
    state = ScaledNeural(columns, history, bias_entries, fulcrum).snapshot()
    payload = {
        **state.payload,
        "weights": table((history, columns)),
        "bias": table(bias_entries),
        "history": rng.choice([-1, 1], history).tolist(),
        "path": rng.integers(0, 1 << 16, history).tolist(),
        "theta": theta,
        "tc": tc,
    }
    start = PredictorState(kind=state.kind, version=state.version, payload=payload)

    def factory():
        predictor = ScaledNeural(columns, history, bias_entries, fulcrum)
        predictor.restore(start)
        return predictor

    site = rng.integers(0, 12, events)
    taken = rng.random(events) < rng.choice([0.0, 0.5, 0.5, 1.0], 12)[site]
    pcs = 0x4000 + 4 * site
    return factory, _trace_from(list(zip(pcs.tolist(), taken.tolist())), name="snap")


def _snap_bound_pushes(predictor, trace) -> Counter:
    """Scalar replay counting the training steps that push past a bound:
    a weight or a bias past its saturation, θ's TC step at 255 or at 1."""
    pushes = Counter()
    for pc, taken in zip(trace.pcs, trace.outcomes):
        prediction = predictor.predict(pc)
        mispredicted = prediction != taken
        if mispredicted or abs(predictor._last_sum) <= predictor.theta:
            t = 1 if taken else -1
            weights = predictor._weights[predictor._positions, predictor._last_cols]
            weights = weights + t * predictor._history
            pushes["weight"] += bool(np.any((weights > 127) | (weights < -128)))
            bias = int(predictor._bias[predictor._last_bias_index]) + t
            pushes["bias"] += not -128 <= bias <= 127
            if mispredicted:
                pushes["theta-max"] += predictor._tc == 6 and predictor.theta == 255
            else:
                pushes["theta-min"] += predictor._tc == -6 and predictor.theta == 1
        predictor.train(pc, taken)
    return pushes


#: Geometries (columns, history_length, bias_entries, fulcrum), start
#: state seed and table saturation of the fixed OH-SNAP kernel cases.
SNAP_CASES = [
    (16, 3, 8, 4.0, 6, True),
    (64, 16, 64, 24.0, 7, True),
    (32, 8, 16, 1.0, 3, True),
    (8, 1, 4, 24.0, 3, False),
    (64, 12, 32, 4.0, 2, False),
    (8, 2, 4, 24.0, 6, False),
]


def test_snap_kernel_matches_scalar_across_every_bound():
    """Fixed OH-SNAP cases whose scalar replays push weights and bias
    past saturation and θ past both ends of its range; the kernel
    matches each event by event, straight, segmented and resumed."""
    pushes = Counter()
    for case in SNAP_CASES:
        factory, trace = _snap_case(*case)
        pushes.update(_snap_bound_pushes(factory(), trace))
        _check_kernel_event_by_event(factory, trace)
    assert {kind for kind, count in pushes.items() if count} == {
        "weight",
        "bias",
        "theta-max",
        "theta-min",
    }, pushes


@settings(max_examples=40, deadline=None)
@given(
    columns=st.sampled_from((8, 16, 32, 64)),
    history=st.integers(1, 16),
    bias_entries=st.sampled_from((4, 8, 16, 32, 64)),
    fulcrum=st.sampled_from((1.0, 4.0, 24.0)),
    seed=st.integers(0, 2**32 - 1),
    saturated=st.booleans(),
    events=st.integers(24, 1_500),
)
def test_snap_kernel_matches_scalar_event_by_event(
    columns, history, bias_entries, fulcrum, seed, saturated, events
):
    """OH-SNAP's kernel on small geometries (columns 8-64, history 1-16,
    bias entries 4-64) from start states on or next to every bound."""
    factory, trace = _snap_case(
        columns, history, bias_entries, fulcrum, seed, saturated, events
    )
    _check_kernel_event_by_event(factory, trace)


def test_snap_kernel_staging_is_chunked():
    """OH-SNAP's per-event index and history rows are staged a chunk at
    a time: a 40,000-event kernel call peaks within 1 MB of a
    10,000-event one (its predictions take about 0.4 MB of that), and
    the 10,000 events, three chunks, equal the scalar replay."""
    rng = np.random.default_rng(3)
    peaks = []
    for events in (10_000, 40_000):
        pcs = (0x4000 + 4 * rng.integers(0, 300, events)).astype(np.uint64)
        outcomes = (rng.random(events) < 0.6).astype(np.uint8)
        predictor = ScaledNeural()
        tracemalloc.start()
        try:
            predictions, _ = kernel_for(predictor).run(predictor, pcs, outcomes, 0, events)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if events == 10_000:
            trace = _trace_from(list(zip(pcs.tolist(), outcomes.astype(bool).tolist())))
            scalar_p = ScaledNeural()
            expected, _ = _scalar_events(scalar_p, trace, 0, events)
            assert predictions.tolist() == expected
            assert predictor.state_hash() == scalar_p.state_hash()
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def test_plan_cache_survives_concurrent_eviction():
    """Prediction-server handler threads run the counter kernels at once:
    threads replaying gshare on fresh arrays evict each other's cached
    plans without an exception, and every replay equals the scalar one."""
    trace = build_trace("SPEC03", 40)
    pcs, outcomes = trace.arrays()
    scalar_p = GShare(entries=256, history_bits=8)
    expected, _ = _scalar_events(scalar_p, trace, 0, len(trace))
    errors = []
    barrier = threading.Barrier(6)

    def drive():
        try:
            barrier.wait()
            for _ in range(100 * batchkernel._PLAN_CACHE_MAX):
                predictor = GShare(entries=256, history_bits=8)
                predictions, _ = kernel_for(predictor).run(
                    predictor, pcs.copy(), outcomes, 0, len(pcs)
                )
                assert predictions.tolist() == expected
                assert predictor.state_hash() == scalar_p.state_hash()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=drive) for _ in range(6)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors[:3]
    assert len(batchkernel._PLAN_CACHE) <= batchkernel._PLAN_CACHE_MAX


def test_plan_cache_keeps_no_dead_batches(monkeypatch):
    """The prediction server decodes every ``events`` batch into fresh
    arrays, so no later call can reuse a plan built on one: after 20
    gshare kernel calls on fresh 4,096-event arrays the plan cache holds
    about one plan's worth of memory, not one plan per call."""
    monkeypatch.setattr(batchkernel, "_PLAN_CACHE", {})
    batch = 4_096
    all_pcs, all_outcomes = build_trace("SERV1", 20 * batch).arrays()
    predictor = GShare()
    kernel = kernel_for(predictor)
    held = []
    tracemalloc.start()
    try:
        for lo in range(0, 20 * batch, batch):
            pcs = all_pcs[lo : lo + batch].copy()
            outcomes = all_outcomes[lo : lo + batch].copy()
            kernel.run(predictor, pcs, outcomes, 0, batch)
            del pcs, outcomes
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # held[0] is the one plan the first call cached (plus noise).
    assert held[-1] - held[0] < held[0] // 2, held
    assert len(batchkernel._PLAN_CACHE) == 1


#: Small counter tables, so a short random stream aliases and repeats.
SMALL_COUNTER_TABLES = {
    "bimodal": lambda: Bimodal(entries=256),
    "gshare": lambda: GShare(entries=256, history_bits=10),
}


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(SMALL_COUNTER_TABLES)),
    events=st.lists(
        st.tuples(st.integers(0, 2**12), st.booleans()), min_size=1, max_size=300
    ),
)
def test_counter_kernels_replay_restored_tables_in_place(data, name, events):
    """From a restored random table (counters 0-3) and, for gshare, a
    random history, the counter kernels agree with a per-event scalar
    replay on every prediction and on ``state_hash``; they update
    ``predictor._table`` in place, and entries no event indexes keep
    their restored values."""
    factory = SMALL_COUNTER_TABLES[name]
    state = factory().snapshot()
    payload = dict(state.payload)
    payload["table"] = data.draw(st.lists(st.integers(0, 3), min_size=256, max_size=256))
    if "history" in payload:
        payload["history"] = data.draw(st.integers(0, 2**10 - 1))
    restored = PredictorState(kind=state.kind, version=state.version, payload=payload)

    scalar_p, kerneled = factory(), factory()
    scalar_p.restore(restored)
    kerneled.restore(restored)
    expected, indexed = [], set()
    for pc, taken in events:
        indexed.add(scalar_p._index(pc) if name == "gshare" else pc & scalar_p._mask)
        expected.append(scalar_p.predict(pc))
        scalar_p.train(pc, taken)

    table = kerneled._table
    before = list(table)
    pcs, outcomes = _trace_from(events).arrays()
    predictions, _ = kernel_for(kerneled).run(kerneled, pcs, outcomes, 0, len(events))
    assert predictions.tolist() == expected
    assert kerneled.state_hash() == scalar_p.state_hash()
    assert kerneled._table is table
    untouched = [i for i in range(256) if i not in indexed]
    assert [table[i] for i in untouched] == [before[i] for i in untouched]


def test_bf_neural_kernel_staging_is_chunked():
    """BF-Neural's per-event index, sign and hash rows are staged a chunk
    of records at a time against one weight arena, and so is the loop
    predictor's replay: a 40,000-event kernel call peaks within 4 MB of a
    10,000-event one (the per-event BST statuses, history series, record
    log and predictions the whole segment keeps, about 100 bytes an
    event), and the 10,000 events, many chunks, equal the scalar
    replay."""
    rng = np.random.default_rng(5)
    # A fifth of the sites flip a fair coin (non-biased, weight-touching),
    # the rest always go one way.
    bias = rng.choice([0.0, 1.0, 0.5], size=300, p=[0.4, 0.4, 0.2])
    peaks = []
    for events in (10_000, 40_000):
        site = rng.integers(0, 300, events)
        pcs = (0x4000 + 4 * site).astype(np.uint64)
        outcomes = (rng.random(events) < bias[site]).astype(np.uint8)
        predictor = BFNeural()
        tracemalloc.start()
        try:
            predictions, _ = kernel_for(predictor).run(predictor, pcs, outcomes, 0, events)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if events == 10_000:
            trace = _trace_from(list(zip(pcs.tolist(), outcomes.astype(bool).tolist())))
            scalar_p = BFNeural()
            expected, _ = _scalar_events(scalar_p, trace, 0, events)
            assert predictions.tolist() == expected
            assert predictor.state_hash() == scalar_p.state_hash()
    assert peaks[1] - peaks[0] < 4_000_000, peaks


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("stage", FIG9_STAGES, ids=["unfiltered", "filtered", "recency"])
def test_bf_neural_chunk_size_never_changes_the_answer(monkeypatch, chunk, stage):
    """Chunk boundaries fall anywhere in the record stream, for every
    Figure 9 stage (the unfiltered one records every event): predictions,
    providers and ``state_hash`` still equal the scalar replay's."""
    monkeypatch.setattr(bfkernel, "_CHUNK", chunk)
    filter_biased, use_rs = stage
    config = BFNeuralConfig(
        bst_entries=1024,
        bias_entries=256,
        wrs_entries=2048,
        wm_rows=64,
        filter_biased_history=filter_biased,
        use_rs=use_rs,
    )
    _check_kernel_event_by_event(lambda: BFNeural(config), build_trace("SPEC03", 1_200))


@pytest.mark.vectorized
@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_DIFFERENTIAL"),
    reason="full 44-trace sweep; set REPRO_FULL_DIFFERENTIAL=1 "
    "(run_all_experiments.sh does)",
)
@pytest.mark.parametrize("name", sorted(PORTED))
def test_full_suite_differential(name):
    """ISSUE acceptance: bit-identity on all 40 suite + 4 wild traces."""
    for trace_name in tuple(SUITE_NAMES) + tuple(WILD_NAMES):
        trace = build_trace(trace_name, 12_000)
        _assert_identical(PORTED[name], trace)
