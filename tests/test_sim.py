"""Tests for the simulator, metrics and campaign runner."""

import pytest

from repro.orchestration import standard_registry
from repro.predictors import AlwaysTaken, Bimodal
from repro.sim.attribution import attribute
from repro.sim.metrics import SimulationResult, aggregate_mpki, relative_improvement
from repro.sim.runner import Campaign, evaluate_one, run_campaign
from repro.sim.simulator import simulate
from repro.trace.records import Trace, TraceMetadata
from repro.trace.stats import compute_stats
from repro.workloads import build_trace


def trace_of(events, name="t", instructions=None):
    meta = TraceMetadata(
        name=name, category="SPEC", instruction_count=instructions or max(1, len(events) * 5)
    )
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


class TestSimulate:
    def test_counts_mispredictions(self):
        trace = trace_of([(4, True), (4, False), (4, True)])
        result = simulate(AlwaysTaken(), trace)
        assert result.mispredictions == 1
        assert result.branches == 3

    def test_mpki_uses_instruction_count(self):
        trace = trace_of([(4, False)] * 10, instructions=1000)
        result = simulate(AlwaysTaken(), trace)
        assert result.mpki == pytest.approx(10.0)

    def test_warmup_excluded(self):
        events = [(4, False)] * 10 + [(4, True)] * 10
        result = simulate(AlwaysTaken(), trace_of(events), warmup_branches=10)
        assert result.mispredictions == 0
        assert result.branches == 10

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            simulate(AlwaysTaken(), trace_of([(4, True)]), warmup_branches=-1)

    def test_provider_tracking(self):
        trace = trace_of([(4, True)] * 5)
        result = simulate(AlwaysTaken(), trace, track_providers=True)
        assert result.provider_hits == {"always-taken": 5}

    def test_training_happens(self):
        trace = trace_of([(4, False)] * 20)
        predictor = Bimodal()
        result = simulate(predictor, trace)
        assert result.mispredictions <= 2
        assert not predictor.predict(4)

    def test_scalar_prefix_run_converts_only_the_prefix(self, monkeypatch):
        # A warm-up prefix (stop_after) on a long trace must not pay for
        # converting the whole trace to numpy arrays.
        def no_arrays(self):
            raise AssertionError("scalar simulate built the trace arrays")

        monkeypatch.setattr(Trace, "arrays", no_arrays)
        trace = trace_of([(4 * (i % 7), i % 3 == 0) for i in range(5000)])
        for tracked in (False, True):
            cuts = []
            result = simulate(
                Bimodal(), trace, track_providers=tracked, warmup_branches=10,
                stop_after=100, checkpoint_every=40, on_checkpoint=cuts.append,
            )
            assert result.checkpoint.position == 100
            assert [c.position for c in cuts] == [40, 80]


def per_event_attribution(predictor, trace):
    """Reference per-event replay: misses per PC and per provider, both
    in first-appearance order."""
    misses: dict[int, int] = {}
    provider_misses: dict[str, int] = {}
    for pc, taken in zip(trace.pcs, trace.outcomes):
        misses.setdefault(pc, 0)
        if predictor.predict(pc) != taken:
            misses[pc] += 1
            provider = predictor.provider
            provider_misses[provider] = provider_misses.get(provider, 0) + 1
        predictor.train(pc, taken)
    return misses, provider_misses


class TestOneReplay:
    """attribute(), simulate() and compute_stats() count the same replay."""

    @pytest.mark.parametrize("name", sorted(standard_registry()))
    def test_attribution_agrees_with_simulate_and_stats(self, name):
        factory = standard_registry()[name]
        trace = build_trace("SPEC03", 2000)
        result = attribute(factory(), trace, track_providers=True)

        assert result.total_mispredictions == simulate(factory(), trace).mispredictions
        profiles = compute_stats(trace).profiles
        assert [(pc, b.executions) for pc, b in result.branches.items()] == [
            (pc, p.executions) for pc, p in profiles.items()
        ]
        misses, provider_misses = per_event_attribution(factory(), trace)
        assert [(pc, b.mispredictions) for pc, b in result.branches.items()] == list(
            misses.items()
        )
        assert list(result.provider_misses.items()) == list(provider_misses.items())


class TestMetrics:
    def make(self, mispredictions=10, instructions=1000, branches=200, **kw):
        return SimulationResult(
            trace_name=kw.get("trace_name", "t"),
            predictor_name="p",
            branches=branches,
            instructions=instructions,
            mispredictions=mispredictions,
        )

    def test_mpki(self):
        assert self.make(25, 5000).mpki == 5.0

    def test_misprediction_rate(self):
        assert self.make(10, branches=100).misprediction_rate == 0.1

    def test_zero_branches(self):
        assert self.make(0, branches=0).misprediction_rate == 0.0

    def test_provider_fraction(self):
        result = SimulationResult(
            trace_name="t",
            predictor_name="p",
            branches=10,
            instructions=100,
            mispredictions=0,
            provider_hits={"T3": 4},
        )
        assert result.provider_fraction("T3") == 0.4
        assert result.provider_fraction("T9") == 0.0

    def test_aggregate_mpki(self):
        results = [self.make(10, 1000), self.make(30, 1000)]
        assert aggregate_mpki(results) == pytest.approx(20.0)

    def test_aggregate_empty(self):
        with pytest.raises(ValueError):
            aggregate_mpki([])

    def test_relative_improvement(self):
        assert relative_improvement(4.0, 3.0) == pytest.approx(0.25)
        assert relative_improvement(0.0, 3.0) == 0.0


class TestRunner:
    def traces(self):
        return [
            trace_of([(4, True)] * 50, name="A"),
            trace_of([(4, False)] * 50, name="B"),
        ]

    def test_run_campaign_shapes(self):
        campaign = Campaign(
            factories={"always": AlwaysTaken, "bimodal": Bimodal},
            traces=self.traces(),
        )
        results = run_campaign(campaign)
        assert set(results) == {"always", "bimodal"}
        assert [r.trace_name for r in results["always"]] == ["A", "B"]

    def test_fresh_predictor_per_trace(self):
        """State must not leak between traces."""
        campaign = Campaign(factories={"bimodal": Bimodal}, traces=self.traces())
        results = run_campaign(campaign)
        # Trace B is all not-taken; a fresh bimodal mispredicts the first
        # couple only.  A leaked, taken-saturated bimodal would do worse.
        assert results["bimodal"][1].mispredictions <= 3

    def test_cache_roundtrip(self, tmp_path):
        campaign = Campaign(
            factories={"always": AlwaysTaken},
            traces=self.traces(),
            cache_dir=tmp_path,
        )
        first = run_campaign(campaign)
        assert len(list(tmp_path.glob("*.json"))) == 2
        second = run_campaign(campaign)
        assert first["always"][0].mispredictions == second["always"][0].mispredictions

    def test_cache_rejects_missing_providers(self, tmp_path):
        base = Campaign(
            factories={"always": AlwaysTaken}, traces=self.traces(), cache_dir=tmp_path
        )
        run_campaign(base)
        with_providers = Campaign(
            factories={"always": AlwaysTaken},
            traces=self.traces(),
            cache_dir=tmp_path,
            track_providers=True,
        )
        results = run_campaign(with_providers)
        assert results["always"][0].provider_hits  # re-simulated

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        campaign = Campaign(
            factories={"always": AlwaysTaken}, traces=self.traces(), cache_dir=tmp_path
        )
        run_campaign(campaign)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        results = run_campaign(campaign)
        assert results["always"][0].branches == 50

    def test_evaluate_one(self):
        results = evaluate_one(AlwaysTaken, self.traces())
        assert len(results) == 2
