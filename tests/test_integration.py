"""Cross-module integration tests: the paper's qualitative claims, small.

These run whole predictor/workload/simulator stacks on reduced traces
and assert the *orderings* the paper reports, not absolute numbers.
"""

import pytest

from repro.core import BFTage, BFTageConfig, bf_neural_64kb
from repro.core.bfneural import BFNeural, BFNeuralConfig
from repro.experiments.common import bf_neural_stage
from repro.predictors import ScaledNeural, Tage, TageConfig
from repro.sim import simulate
from repro.workloads import build_trace

TRACE_BRANCHES = 25_000


@pytest.fixture(scope="module")
def rs_trace():
    """SPEC03: low bias, heavy recency-stack content."""
    return build_trace("SPEC03", TRACE_BRANCHES)


@pytest.fixture(scope="module")
def bias_trace():
    """SPEC02: heavy biased padding + deep correlations."""
    return build_trace("SPEC02", TRACE_BRANCHES)


@pytest.fixture(scope="module")
def ablation_trace():
    """SPEC03, short: the design-variant bounds are loose sanity floors."""
    return build_trace("SPEC03", 6_000)


class TestHeadlineOrderings:
    def test_bf_neural_beats_oh_snap(self, bias_trace, rs_trace):
        """Figure 8's main claim."""
        for trace in (bias_trace, rs_trace):
            snap = simulate(ScaledNeural(), trace)
            bf = simulate(bf_neural_64kb(), trace)
            assert bf.mpki < snap.mpki

    def test_bf_neural_comparable_to_tage(self, bias_trace):
        """Figure 8: BF-Neural within striking distance of TAGE."""
        tage = simulate(Tage(TageConfig.for_tables(10)), bias_trace)
        bf = simulate(bf_neural_64kb(), bias_trace)
        assert bf.mpki < tage.mpki * 1.25

    def test_ablation_stages_ordered(self, rs_trace):
        """Figure 9: each optimization must not hurt, RS helps SPEC03."""
        baseline = simulate(ScaledNeural(history_length=72), rs_trace).mpki
        stage1 = simulate(bf_neural_stage(1), rs_trace).mpki
        stage3 = simulate(bf_neural_stage(3), rs_trace).mpki
        assert stage1 < baseline
        assert stage3 < stage1 * 1.05  # allow noise, but no regression

    def test_rs_stage_beats_no_rs_on_rs_trace(self, rs_trace):
        """SPEC03 is tuned so RS management is the valuable step."""
        stage2 = simulate(bf_neural_stage(2), rs_trace).mpki
        stage3 = simulate(bf_neural_stage(3), rs_trace).mpki
        assert stage3 < stage2


#: DESIGN.md's design-choice variants and the misprediction-rate bound
#: each must stay under on a 6,000-branch SPEC03 trace.
DESIGN_VARIANTS = [
    pytest.param(BFNeural, BFNeuralConfig(probabilistic_bst=False), 0.25, id="bst-2bit"),
    pytest.param(BFNeural, BFNeuralConfig(probabilistic_bst=True), 0.25, id="bst-3bit-prob"),
    pytest.param(BFNeural, BFNeuralConfig(use_positional=True), 0.25, id="pos-hist"),
    pytest.param(BFNeural, BFNeuralConfig(use_positional=False), 0.25, id="no-pos-hist"),
    pytest.param(BFNeural, BFNeuralConfig(use_folded_hist=True), 0.25, id="fhist"),
    pytest.param(BFNeural, BFNeuralConfig(use_folded_hist=False), 0.25, id="no-fhist"),
    # ht0: the conventional component shrunk to one unfiltered bit and two Wm rows.
    pytest.param(BFNeural, BFNeuralConfig(ht=1, wm_rows=2), 0.3, id="ht0"),
    pytest.param(BFNeural, BFNeuralConfig(ht=8), 0.3, id="ht8"),
    pytest.param(BFNeural, BFNeuralConfig(ht=16), 0.3, id="ht16"),
    # Bigger per-segment stacks approximate a monolithic RS; the paper
    # argues cross-correlation makes the small segmented version enough.
    pytest.param(BFTage, BFTageConfig(rs_size=8), 0.3, id="segmented-rs8"),
    pytest.param(BFTage, BFTageConfig(rs_size=64), 0.3, id="near-monolithic-rs64"),
]


class TestDesignVariants:
    @pytest.mark.parametrize("predictor,config,bound", DESIGN_VARIANTS)
    def test_misprediction_rate_bounded(self, ablation_trace, predictor, config, bound):
        result = simulate(predictor(config), ablation_trace)
        assert result.misprediction_rate < bound


class TestBFTageClaims:
    def test_bf_tage_4_tables_matches_deeper_conventional(self, bias_trace):
        """Section V: compressed history gives few-table BF-TAGE the
        reach of a many-table conventional TAGE."""
        bf4 = simulate(BFTage(BFTageConfig.for_tables(4)), bias_trace).mpki
        t4 = simulate(Tage(TageConfig.for_tables(4)), bias_trace).mpki
        assert bf4 < t4 * 1.02

    def test_bf_tage10_close_to_tage15(self, bias_trace):
        """Figure 11: BF-TAGE-10 tracks TAGE-15."""
        bf10 = simulate(BFTage(BFTageConfig.for_tables(10)), bias_trace).mpki
        t15 = simulate(Tage(TageConfig.for_tables(15)), bias_trace).mpki
        assert bf10 < t15 * 1.15


class TestHitDistributionShift:
    def test_bf_tage_shifts_hits_to_shorter_tables(self, bias_trace):
        """Figure 12's mechanism at small scale."""

        def mean_provider(predictor, tables):
            result = simulate(predictor, bias_trace, track_providers=True)
            weights = [
                result.provider_hits.get(f"T{i}", 0) for i in range(1, tables + 1)
            ]
            total = sum(weights)
            return sum((i + 1) * w for i, w in enumerate(weights)) / total

        tage_mean = mean_provider(Tage(TageConfig.for_tables(15)), 15)
        bf_mean = mean_provider(BFTage(BFTageConfig.for_tables(10)), 10)
        assert bf_mean < tage_mean


class TestServPathology:
    def test_dynamic_detection_hurts_serv(self):
        """Section VI-D: SERV traces suffer from bias-free filtering
        because phase-changing branches pollute the filtered history."""
        trace = build_trace("SERV3", TRACE_BRANCHES)
        stage1 = simulate(bf_neural_stage(1), trace).mpki  # unfiltered history
        stage2 = simulate(bf_neural_stage(2), trace).mpki  # filtered history
        assert stage2 > stage1 * 0.97  # filtering must NOT give the usual win


class TestDeterminism:
    def test_full_stack_deterministic(self):
        trace1 = build_trace("MM2", 8000)
        trace2 = build_trace("MM2", 8000)
        r1 = simulate(bf_neural_64kb(), trace1)
        r2 = simulate(bf_neural_64kb(), trace2)
        assert r1.mispredictions == r2.mispredictions

    def test_probabilistic_bst_is_seeded(self):
        config = BFNeuralConfig(probabilistic_bst=True)
        trace = build_trace("FP2", 5000)
        r1 = simulate(BFNeural(config), trace)
        r2 = simulate(BFNeural(BFNeuralConfig(probabilistic_bst=True)), trace)
        assert r1.mispredictions == r2.mispredictions
