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
* a full 40-trace + WILD1-4 sweep per ported predictor, marked
  ``vectorized`` and gated behind ``REPRO_FULL_DIFFERENTIAL=1``
  (minutes of scalar BF-Neural; ``run_all_experiments.sh`` runs it).

The array-state substrate (``repro.common.tablestate``) gets its own
differential tests against the scalar twins it replaces: ``mix64``,
the packed-history shift register, the perceptron's ±1 history and the
incremental ``FoldedHistory`` fold.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import mix64
from repro.common.histories import FoldedHistory
from repro.common.tablestate import (
    folded_history_series,
    mix64_array,
    packed_history_series,
    signed_history_matrix,
    table_array,
    table_list,
)
from repro.core import BFNeural
from repro.core.bfneural import BFNeuralConfig
from repro.core.configs import bf_neural_32kb
from repro.predictors import Bimodal, GShare, Tage, TageConfig
from repro.predictors.perceptron import GlobalPerceptron
from repro.sim import simulate
from repro.sim.batchkernel import kernel_for, simulate_batch
from repro.sim.simulator import KERNEL_MODES
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import SUITE_NAMES, WILD_NAMES, build_trace

#: Every predictor with a registered kernel, at test-sized geometries.
PORTED = {
    "bimodal": Bimodal,
    "gshare": GShare,
    "perceptron": lambda: GlobalPerceptron(256, 24),
    "bf-neural": BFNeural,
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
        assert kernel_for(Tage(TageConfig.for_tables(4))) is None

    def test_vectorized_mode_raises_for_unported(self):
        trace = build_trace("SPEC00", 200)
        with pytest.raises(ValueError, match="no vectorized kernel"):
            simulate(
                Tage(TageConfig.for_tables(4)), trace, kernel="vectorized"
            )

    def test_auto_mode_falls_back_to_scalar(self):
        trace = build_trace("SPEC00", 1_000)
        factory = lambda: Tage(TageConfig.for_tables(4))  # noqa: E731
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

    def test_table_roundtrip(self):
        values = [0, 1, 2, 3, 2, 1]
        array = table_array(values, np.uint8)
        assert array.dtype == np.uint8
        assert table_list(array) == values

    def test_mix64_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**64, size=256, dtype=np.uint64)
        mixed = mix64_array(values)
        assert [int(v) for v in mixed] == [mix64(int(v)) for v in values]

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
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=160, dtype=np.uint8)
        fold = FoldedHistory(length, width)
        window = []
        expected = []
        for bit in bits:
            outgoing = window[-length] if len(window) >= length else 0
            fold.update(int(bit), outgoing)
            window.append(int(bit))
            expected.append(fold.value)
        series = folded_history_series(bits, length, width)
        assert [int(v) for v in series] == expected

    def test_folded_history_resume_matches_straight_run(self):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2, size=120, dtype=np.uint8)
        length, width, cut = 15, 9, 47
        straight = folded_history_series(bits, length, width)
        head = folded_history_series(bits[:cut], length, width)
        tail = folded_history_series(
            bits[cut:],
            length,
            width,
            seed_value=int(head[-1]),
            prior_tail=bits[max(0, cut - length) : cut],
            prior_count=cut,
        )
        assert [int(v) for v in tail] == [int(v) for v in straight[cut:]]


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


#: One ported counter table, the ported paper predictor and a TAGE that
#: no kernel supports, so ``kernel="auto"`` runs it on the scalar loop.
SEGMENTED = {
    "gshare": GShare,
    "bf-neural": BFNeural,
    "tage4": lambda: Tage(TageConfig.for_tables(4)),
}
SEGMENT_TRACE = build_trace("SPEC05", 1_200)


@settings(max_examples=30, deadline=None)
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
