"""Tests for the misprediction attribution tool."""

import pytest

from repro.orchestration import standard_registry
from repro.predictors import AlwaysTaken, Bimodal
from repro.sim import simulate
from repro.sim.attribution import (
    AttributionResult,
    BranchAttribution,
    attribute,
    format_attribution,
)
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import build_trace


def trace_of(events, name="t"):
    meta = TraceMetadata(name=name, category="SPEC", instruction_count=max(1, len(events) * 5))
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


class TestAttribute:
    def test_counts_per_branch(self):
        events = [(4, True), (4, False), (8, False), (8, False)]
        result = attribute(AlwaysTaken(), trace_of(events))
        assert result.branches[4].executions == 2
        assert result.branches[4].mispredictions == 1
        assert result.branches[8].mispredictions == 2

    def test_total(self):
        events = [(4, False)] * 5
        result = attribute(AlwaysTaken(), trace_of(events))
        assert result.total_mispredictions == 5

    def test_predictor_trains_during_attribution(self):
        events = [(4, False)] * 50
        result = attribute(Bimodal(), trace_of(events))
        assert result.branches[4].mispredictions <= 2

    def test_provider_tracking(self):
        events = [(4, False)] * 3
        result = attribute(AlwaysTaken(), trace_of(events), track_providers=True)
        assert result.provider_misses == {"always-taken": 3}

    def test_no_provider_tracking_by_default(self):
        result = attribute(AlwaysTaken(), trace_of([(4, False)]))
        assert result.provider_misses == {}


class TestWarmup:
    """``warmup_branches`` trains on a prefix that no count includes,
    exactly as ``simulate(..., warmup_branches=N)`` measures."""

    @pytest.mark.parametrize("name", ["gshare", "bf-neural", "tage10", "isl-tage10"])
    @pytest.mark.parametrize("warmup", [0, 1, 733, 1_999, 2_000, 5_000])
    def test_total_equals_simulate_with_warmup(self, name, warmup):
        factory = standard_registry()[name]
        trace = build_trace("SPEC03", 2_000)
        result = attribute(factory(), trace, track_providers=True, warmup_branches=warmup)
        measured = simulate(factory(), trace, track_providers=True, warmup_branches=warmup)
        assert result.total_mispredictions == measured.mispredictions
        assert sum(b.executions for b in result.branches.values()) == measured.branches
        assert sum(result.provider_misses.values()) == measured.mispredictions

    def test_warmup_events_leave_the_counts(self):
        events = [(4, False)] * 3 + [(8, False)] * 2
        result = attribute(AlwaysTaken(), trace_of(events), warmup_branches=3)
        assert list(result.branches) == [8]
        assert result.total_mispredictions == 2

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_branches"):
            attribute(AlwaysTaken(), trace_of([(4, False)]), warmup_branches=-1)


class TestRanking:
    def make_result(self):
        return AttributionResult(
            trace_name="t",
            predictor_name="p",
            branches={
                1: BranchAttribution(1, 10, 8),
                2: BranchAttribution(2, 10, 3),
                3: BranchAttribution(3, 10, 5),
            },
        )

    def test_top_offenders_order(self):
        result = self.make_result()
        assert [b.pc for b in result.top_offenders(2)] == [1, 3]

    def test_concentration(self):
        result = self.make_result()
        assert result.concentration(1) == pytest.approx(8 / 16)
        assert result.concentration(10) == 1.0

    def test_concentration_empty(self):
        result = AttributionResult(trace_name="t", predictor_name="p")
        assert result.concentration() == 0.0

    def test_misprediction_rate(self):
        assert BranchAttribution(1, 4, 1).misprediction_rate == 0.25
        assert BranchAttribution(1, 0, 0).misprediction_rate == 0.0


class TestFormatting:
    def test_format_contains_offenders(self):
        events = [(0xABC, False)] * 4
        result = attribute(AlwaysTaken(), trace_of(events, name="TX"))
        text = format_attribution(result, count=3)
        assert "TX" in text
        assert "0xabc" in text
        assert "100.0%" in text


class TestCLIDiagnose:
    def test_diagnose_subcommand(self, capsys):
        from repro.cli import main

        assert main(["diagnose", "FP1", "--predictor", "bimodal",
                     "--branches", "800", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "misprediction attribution" in out

    def test_diagnose_warmup(self, capsys):
        from repro.cli import main

        trace = build_trace("FP1", 800)
        bimodal = standard_registry()["bimodal"]()
        expected = simulate(bimodal, trace, warmup_branches=300).mispredictions
        assert main(["diagnose", "FP1", "--predictor", "bimodal",
                     "--branches", "800", "--warmup", "300"]) == 0
        assert f": {expected} total," in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1", "many"])
    def test_diagnose_warmup_rejected(self, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "FP1", "--warmup", value])
        assert exc.value.code == 2
        assert "--warmup" in capsys.readouterr().err

    def test_diagnose_unknown_predictor(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["diagnose", "FP1", "--predictor", "nope"])
