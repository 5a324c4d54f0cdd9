"""Tests for the declarative workload suite: manifests, interchange,
mixes, the sparse family and the workload registry — plus the
acceptance path: an imported + mixed suite through ``repro campaign``
with scalar and vectorized kernels producing identical results."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestration import (
    CampaignPlan,
    expand_trace_arg,
    run_plan,
    standard_registry,
    trace_content_fingerprint,
    trace_spec_for,
)
from repro.orchestration.tasks import TraceSpec
from repro.trace.io import trace_to_bytes
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import (
    InterchangeError,
    ManifestError,
    build_trace,
    compose_mix,
    convert,
    format_csv,
    format_text,
    generator_families,
    is_workload,
    load_manifest,
    parse_csv,
    parse_manifest,
    parse_text,
    read_any,
    register_family,
    resolve_entry,
    resolve_suite,
    resolve_workload,
    workload_names,
)

pytestmark = pytest.mark.workloads

REPO = Path(__file__).resolve().parent.parent
DEMO_MANIFEST = REPO / "examples" / "suites" / "demo.toml"


def small_trace(name="S", n=40, stride=4):
    pcs = [0x4000 + stride * (i % 7) for i in range(n)]
    outcomes = [bool((i // 3) % 2) for i in range(n)]
    meta = TraceMetadata(name=name, category="SPEC", instruction_count=5 * n, seed=9)
    return Trace(meta, pcs, outcomes)


class TestRegistry:
    def test_names_cover_all_families(self):
        names = workload_names()
        assert "SPEC00" in names and "WILD4" in names and "SPARSE1" in names
        assert len(names) == len(set(names)) == 48
        assert all(is_workload(name) for name in names)

    def test_unknown_name_raises(self):
        assert not is_workload("NOPE9")
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_workload("NOPE9")

    def test_generator_families_registered(self):
        assert set(generator_families()) >= {"wild", "sparse"}

    def test_custom_family_is_resolvable(self):
        register_family(
            "unit-test",
            lambda name: name == "UT1",
            lambda name, branches: small_trace(name, branches or 10),
        )
        try:
            assert is_workload("UT1")
            assert len(build_trace("UT1", 12)) == 12
        finally:
            register_family("unit-test", lambda name: False, lambda n, b: None)

    def test_sparse_traces_are_deterministic(self):
        first = build_trace("SPARSE3", 4000)
        second = build_trace("SPARSE3", 4000)
        assert first.pcs == second.pcs
        assert first.outcomes == second.outcomes
        assert first.metadata.category == "SPARSE"

    def test_sparse_params_validated(self):
        sparse = generator_families()["sparse"]
        with pytest.raises(ValueError, match="distance"):
            sparse("X", seed=1, branches=100, distance=4)
        with pytest.raises(ValueError, match="noise"):
            sparse("X", seed=1, branches=100, noise=0.9)


class TestMixComposition:
    def test_deterministic_and_budgeted(self):
        parts = [small_trace("A"), small_trace("B")]
        one = compose_mix("M", parts, branches=100, seed=5)
        two = compose_mix("M", parts, branches=100, seed=5)
        assert one.pcs == two.pcs and one.outcomes == two.outcomes
        assert len(one) == 100

    def test_pc_spaces_are_disjoint(self):
        parts = [small_trace("A"), small_trace("B"), small_trace("C")]
        mix = compose_mix("M", parts, branches=300, seed=1)
        spaces = {pc >> 32 for pc in mix.pcs}
        assert spaces == {0, 1, 2}
        # Component streams are preserved within their own pc space.
        from_a = [pc for pc in mix.pcs if pc >> 32 == 0]
        assert set(from_a) <= set(parts[0].pcs)

    def test_seed_changes_schedule(self):
        parts = [small_trace("A"), small_trace("B")]
        assert (
            compose_mix("M", parts, branches=100, seed=1).pcs
            != compose_mix("M", parts, branches=100, seed=2).pcs
        )

    def test_short_components_wrap(self):
        parts = [small_trace("A", n=8), small_trace("B", n=8)]
        mix = compose_mix("M", parts, branches=200)
        assert len(mix) == 200

    def test_instruction_count_scales_with_consumption(self):
        parts = [small_trace("A", n=100), small_trace("B", n=100)]
        mix = compose_mix("M", parts, branches=100)
        # Both components run at 5 instructions/branch, so any schedule
        # lands at ~500 instructions for a 100-branch mix.
        assert 480 <= mix.instruction_count <= 520

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one component"):
            compose_mix("M", [])
        with pytest.raises(ValueError, match="non-empty"):
            compose_mix("M", [Trace(small_trace().metadata, [], [])])
        with pytest.raises(ValueError, match="chunk"):
            compose_mix("M", [small_trace()], chunk=1)
        with pytest.raises(ValueError, match="budget"):
            compose_mix("M", [small_trace()], branches=0)


_interchange_events = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**48 - 1), st.booleans()),
    max_size=80,
)


class TestInterchange:
    @given(_interchange_events)
    @settings(max_examples=25, deadline=None)
    def test_text_round_trip_is_canonical(self, events):
        meta = TraceMetadata(
            name="T", category="EXT", instruction_count=max(1, len(events)),
            seed=4, extra={"tool": 3.0},
        )
        trace = Trace(meta, [pc for pc, _ in events], [t for _, t in events])
        text = format_text(trace)
        back = parse_text(text)
        assert back.pcs == trace.pcs
        assert back.outcomes == trace.outcomes
        assert back.metadata == trace.metadata
        assert format_text(back) == text

    @given(_interchange_events)
    @settings(max_examples=25, deadline=None)
    def test_csv_matches_binary_content(self, events):
        meta = TraceMetadata(
            name="C", category="EXT", instruction_count=max(1, len(events))
        )
        trace = Trace(meta, [pc for pc, _ in events], [t for _, t in events])
        back = parse_csv(format_csv(trace))
        assert trace_to_bytes(back) == trace_to_bytes(trace)

    def test_file_conversion_round_trips_bit_identically(self, tmp_path):
        trace = build_trace("MM1", 600)
        text_path = tmp_path / "t.bft"
        text_path.write_text(format_text(trace), encoding="utf-8")
        convert(text_path, tmp_path / "t.bfbp")
        convert(tmp_path / "t.bfbp", tmp_path / "back.bft")
        assert (tmp_path / "back.bft").read_bytes() == text_path.read_bytes()
        convert(tmp_path / "t.bfbp", tmp_path / "t.csv")
        convert(tmp_path / "t.csv", tmp_path / "back.bfbp")
        assert (
            (tmp_path / "back.bfbp").read_bytes()
            == (tmp_path / "t.bfbp").read_bytes()
        )

    def test_read_any_sniffs_all_formats(self, tmp_path):
        trace = small_trace()
        (tmp_path / "a.bft").write_text(format_text(trace), encoding="utf-8")
        (tmp_path / "a.csv").write_text(format_csv(trace), encoding="utf-8")
        (tmp_path / "a.bfbp").write_bytes(trace_to_bytes(trace))
        for name in ("a.bft", "a.csv", "a.bfbp"):
            assert read_any(tmp_path / name).pcs == trace.pcs

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "#%BFT 9\n",
            "#%BFT 1\n#! mystery: 1\n",
            "#%BFT 1\n#! name: a\n#! name: b\n",
            "#%BFT 1\n0x10 2\n",
            "#%BFT 1\n0x10\n",
            "#%BFT 1\nnotanumber 1\n",
            "#%BFT 1\n-4 1\n",
            "#%BFT 1\n#! name: a\n0x10 1\n#! category: late\n",
            "#%BFT 1\n#! name: a\n#! category: b\n#! instruction_count: nan\n",
        ],
    )
    def test_malformed_text_is_a_hard_error(self, bad):
        with pytest.raises(InterchangeError):
            parse_text(bad)

    def test_missing_required_metadata_is_a_hard_error(self):
        with pytest.raises(InterchangeError, match="missing required"):
            parse_text("#%BFT 1\n#! name: a\n0x10 1\n")

    def test_csv_requires_header(self):
        with pytest.raises(InterchangeError, match="header"):
            parse_csv("#%BFT-CSV 1\n#! name: a\n#! category: b\n"
                      "#! instruction_count: 5\n")

    def test_unrecognized_file_is_a_hard_error(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("pc,taken\n1,0\n")
        with pytest.raises(InterchangeError, match="unrecognized"):
            read_any(path)

    def test_unsupported_output_extension(self, tmp_path):
        (tmp_path / "a.bfbp").write_bytes(trace_to_bytes(small_trace()))
        with pytest.raises(InterchangeError, match="extension"):
            convert(tmp_path / "a.bfbp", tmp_path / "a.xyz")


def manifest_text(entries: str) -> str:
    return f'[suite]\nname = "t"\nversion = 1\n{entries}'


class TestManifestParsing:
    def test_toml_and_json_fingerprint_identically(self):
        toml_text = manifest_text(
            '[[entry]]\nkind = "synthetic"\nname = "FP1"\nbranches = 500\n'
        )
        json_text = json.dumps(
            {
                "suite": {"name": "t", "version": 1},
                "entry": [
                    {"kind": "synthetic", "name": "FP1", "branches": 500}
                ],
            }
        )
        assert (
            parse_manifest(toml_text).fingerprint()
            == parse_manifest(json_text).fingerprint()
        )

    def test_fingerprint_changes_with_content(self):
        base = manifest_text('[[entry]]\nkind = "synthetic"\nname = "FP1"\n')
        other = manifest_text('[[entry]]\nkind = "synthetic"\nname = "FP2"\n')
        assert parse_manifest(base).fingerprint() != parse_manifest(other).fingerprint()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("not [valid", "unparseable"),
            ('[suite]\nname = "t"\nversion = 2\n[[entry]]\nkind="synthetic"\nname="FP1"\n',
             "version"),
            ('[suite]\nname = "t"\nversion = 1\n', "no \\[\\[entry\\]\\]"),
            (manifest_text('[[entry]]\nkind = "teleport"\nname = "X"\n'),
             "unknown entry kind"),
            (manifest_text('[[entry]]\nkind = "synthetic"\nname = "FP1"\nwarp = 1\n'),
             "unknown key"),
            (manifest_text('[[entry]]\nkind = "generator"\nname = "G"\n'),
             "missing required"),
            (manifest_text(
                '[[entry]]\nkind = "synthetic"\nname = "FP1"\n'
                '[[entry]]\nkind = "synthetic"\nname = "FP1"\n'),
             "duplicate entry"),
            (manifest_text(
                '[[entry]]\nkind = "mix"\nname = "M"\ncomponents = ["LATER"]\n'),
             "not declared \\*earlier\\*"),
            (manifest_text(
                '[[entry]]\nkind = "generator"\nname = "G"\nfamily = "zap"\nseed = 1\n'),
             "unknown generator family"),
            (manifest_text(
                '[[entry]]\nkind = "synthetic"\nname = "FP1"\nbranches = -5\n'),
             "positive"),
            ('[suite]\nname = "t"\nversion = 1\nrogue = 1\n'
             '[[entry]]\nkind = "synthetic"\nname = "FP1"\n',
             "unknown \\[suite\\] key"),
        ],
    )
    def test_malformed_manifest_is_a_hard_error(self, bad, message):
        with pytest.raises(ManifestError, match=message):
            parse_manifest(bad)

    def test_closed_key_set_matches_declaration(self):
        from repro.workloads.manifest import MANIFEST_TYPES

        assert set(MANIFEST_TYPES) == {"synthetic", "generator", "file", "mix"}
        for required in MANIFEST_TYPES.values():
            assert "kind" in required and "name" in required


class TestManifestResolution:
    def test_demo_manifest_resolves_every_entry(self):
        manifest = load_manifest(DEMO_MANIFEST)
        traces = resolve_suite(manifest)
        assert list(traces) == ["FP1", "DEMO_STORM", "DEMO_IMPORT", "DEMO_MIX"]
        assert all(len(trace) > 0 for trace in traces.values())
        mix = traces["DEMO_MIX"]
        assert {pc >> 32 for pc in mix.pcs} == {0, 1}

    def test_pin_catches_drift_with_regeneration_hint(self, tmp_path):
        trace = small_trace()
        (tmp_path / "ext.csv").write_text(format_csv(trace), encoding="utf-8")
        text = manifest_text(
            '[[entry]]\nkind = "file"\nname = "EXT"\npath = "ext.csv"\n'
            f'fingerprint = "{"0" * 64}"\n'
        )
        manifest = parse_manifest(text, base_dir=tmp_path)
        with pytest.raises(ManifestError, match="update the pin") as excinfo:
            resolve_entry(manifest, "EXT")
        assert trace_content_fingerprint(trace) in str(excinfo.value)

    def test_pin_accepts_matching_content(self, tmp_path):
        trace = small_trace()
        (tmp_path / "ext.csv").write_text(format_csv(trace), encoding="utf-8")
        pin = trace_content_fingerprint(trace)
        text = manifest_text(
            '[[entry]]\nkind = "file"\nname = "EXT"\npath = "ext.csv"\n'
            f'fingerprint = "{pin}"\n'
        )
        resolved = resolve_entry(parse_manifest(text, base_dir=tmp_path), "EXT")
        assert trace_content_fingerprint(resolved) == pin

    def test_generator_entry_rejects_bad_params(self):
        text = manifest_text(
            '[[entry]]\nkind = "generator"\nname = "G"\nfamily = "sparse"\n'
            'seed = 1\nparams = { distance = 4 }\n'
        )
        with pytest.raises(ManifestError, match="rejected its params"):
            resolve_entry(parse_manifest(text), "G")

    def test_unknown_entry_name(self):
        manifest = load_manifest(DEMO_MANIFEST)
        with pytest.raises(ManifestError, match="no entry"):
            resolve_entry(manifest, "GHOST")


class TestTraceSpecManifest:
    def test_spec_resolves_and_memoizes(self):
        spec = TraceSpec.from_manifest(DEMO_MANIFEST, "DEMO_MIX")
        trace = spec.resolve()
        assert spec.resolve() is trace

    def test_identity_is_content_addressed(self):
        spec = TraceSpec.from_manifest(DEMO_MANIFEST, "DEMO_MIX")
        identity = spec.identity()
        manifest = load_manifest(DEMO_MANIFEST)
        assert identity.startswith(f"manifest:{manifest.fingerprint()}:DEMO_MIX:")
        assert identity.endswith(trace_content_fingerprint(spec.resolve()))

    def test_wire_round_trip(self):
        spec = TraceSpec.from_manifest(DEMO_MANIFEST, "DEMO_IMPORT")
        assert TraceSpec.from_wire(spec.to_wire()) == spec

    def test_trace_spec_for_parses_refs(self):
        spec = trace_spec_for(f"@{DEMO_MANIFEST}#FP1")
        assert spec.kind == "manifest" and spec.name == "FP1"
        with pytest.raises(ValueError, match="must look like"):
            trace_spec_for("@only-a-path.toml#")
        assert trace_spec_for("SPARSE2").kind == "suite"

    def test_bare_manifest_ref_expands_to_all_entries(self):
        specs = expand_trace_arg(f"@{DEMO_MANIFEST}")
        assert [spec.name for spec in specs] == [
            "FP1", "DEMO_STORM", "DEMO_IMPORT", "DEMO_MIX",
        ]
        assert all(spec.kind == "manifest" for spec in specs)

    def test_branches_cut_manifest_entries(self):
        full = TraceSpec.from_manifest(DEMO_MANIFEST, "DEMO_MIX")
        cut = trace_spec_for(f"@{DEMO_MANIFEST}#DEMO_MIX", 100)
        assert cut.resolve().pcs == full.resolve().pcs[:100]
        assert cut.identity() != full.identity()
        assert TraceSpec.from_wire(cut.to_wire()) == cut
        specs = expand_trace_arg(f"@{DEMO_MANIFEST}", 100)
        assert [len(spec.resolve()) for spec in specs] == [100] * len(specs)


class TestLoadgenSuite:
    def test_suite_profile_builds_refs(self):
        from repro.serving import suite_profile

        profile = suite_profile(str(DEMO_MANIFEST))
        assert profile.name == "suite:demo"
        assert all(w.startswith("@") and "#" in w for w in profile.workloads)

    def test_suite_sessions_must_run_cold(self):
        from repro.serving import run_load, suite_profile

        profile = suite_profile(str(DEMO_MANIFEST))
        with pytest.raises(ValueError, match="cold"):
            run_load(("127.0.0.1", 1), profile=profile, sessions=1, warm=True)


class TestAcceptance:
    """The imported + mixed suite runs through ``repro campaign`` with
    scalar and vectorized kernels producing identical MPKI/state_hash."""

    def test_campaign_scalar_and_vectorized_agree(self):
        registry = standard_registry()
        results = {}
        for kernel in ("scalar", "vectorized"):
            plan = CampaignPlan(
                factories={"gshare": registry["gshare"]},
                traces=[
                    TraceSpec.from_manifest(DEMO_MANIFEST, "DEMO_IMPORT"),
                    TraceSpec.from_manifest(DEMO_MANIFEST, "DEMO_MIX"),
                ],
                kernel=kernel,
            )
            results[kernel] = run_plan(plan)["gshare"]
        for scalar, vectorized in zip(results["scalar"], results["vectorized"]):
            assert scalar.mpki == vectorized.mpki
            assert scalar.mispredictions == vectorized.mispredictions
            assert scalar.branches == vectorized.branches

    def test_state_hash_identical_across_kernels(self):
        from repro.sim.batchkernel import simulate_batch
        from repro.sim.simulator import simulate

        registry = standard_registry()
        trace = resolve_entry(load_manifest(DEMO_MANIFEST), "DEMO_MIX")
        scalar_predictor = registry["gshare"]()
        vector_predictor = registry["gshare"]()
        scalar_result = simulate(scalar_predictor, trace)
        vector_result = simulate_batch(vector_predictor, trace, kernel="vectorized")
        assert scalar_result.mispredictions == vector_result.mispredictions
        assert scalar_predictor.state_hash() == vector_predictor.state_hash()
