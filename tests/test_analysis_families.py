"""Tier-1 tests for the det/schema/perf/concurrency rule families, the
shared call graph, and the CLI and baseline plumbing."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    ALL_RULES,
    FAMILIES,
    Finding,
    callgraph,
    family_of,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.analysis.baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from repro.analysis.callgraph import CallGraph
from repro.analysis.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    JSON_KEYS,
    _jsonl_line,
    main,
)
from repro.analysis.rules import collect_sources

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "analysis"
SRC = ROOT / "src"

TAINT = FIXTURES / "violation_taint.py"
RACE = FIXTURES / "violation_race.py"
SCHEMA = FIXTURES / "violation_schema.py"
PERF = FIXTURES / "violation_perf.py"
CONC = FIXTURES / "violation_concurrency.py"
REEXPORT = FIXTURES / "violation_reexport.py"


def rules_of(path, family):
    return [f.rule for f in lint_paths([path], families=[family])]


class TestFamilyRegistry:
    def test_every_rule_maps_to_a_family(self):
        assert list(FAMILIES) == ["hw", "det", "schema", "perf", "concurrency"]
        for rule in ALL_RULES:
            family = family_of(rule)
            assert family in FAMILIES
            assert rule in FAMILIES[family][1]

    def test_unknown_rule_has_no_family(self):
        # Retired ids (the old REPRO2xx lock-discipline rules) and ids no
        # family ever declared are refused, not filed under some family.
        for rule in ("REPRO999", "REPRO201", "nonsense"):
            with pytest.raises(ValueError, match="unknown rule id"):
                family_of(rule)

    def test_one_call_graph_per_run(self, monkeypatch):
        # Every family reads the one graph, whatever the selection, and
        # the graph parses each module's imports exactly once.
        built = []
        import_maps = []
        original = CallGraph.__init__
        original_imports = callgraph._import_map

        def counting_init(graph, sources):
            built.append(len(sources))
            original(graph, sources)

        def counting_imports(tree):
            import_maps.append(id(tree))
            return original_imports(tree)

        monkeypatch.setattr(CallGraph, "__init__", counting_init)
        monkeypatch.setattr(callgraph, "_import_map", counting_imports)
        sources = collect_sources([CONC, RACE, PERF, TAINT, REEXPORT])
        trees = sorted(id(source.tree) for source in sources)
        for families in (None, ["hw"], ["hw", "schema"], ["det"], ["perf", "concurrency"]):
            built.clear()
            import_maps.clear()
            lint_sources(sources, families=families)
            assert built == [len(sources)], families
            assert sorted(import_maps) == trees, families

    def test_all_families_equal_union_of_single_family_runs(self):
        # Each single-family run builds its own graph, so a family that
        # leaned on caches another family filled would differ here.
        sources = collect_sources([SRC, FIXTURES])

        def key(finding):
            return (finding.rule, finding.file, finding.line, finding.symbol, finding.message)

        combined = sorted(map(key, lint_sources(sources)))
        union = sorted(
            key(finding)
            for family in FAMILIES
            for finding in lint_sources(sources, families=[family])
        )
        assert combined == union

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown analysis family"):
            lint_source("x = 1\n", families=["nope"])

    def test_family_selection_restricts_rules(self):
        assert all(r.startswith("REPRO1") for r in rules_of(TAINT, "det"))
        assert all(r.startswith("REPRO0") for r in rules_of(TAINT, "hw"))


class TestSharedPredictorIndex:
    def test_bases_through_package_reexports_resolve(self):
        # REPRO005/006 read the predictor hierarchy from the call graph,
        # which chases `from repro.predictors import Tage` to its module.
        findings = [
            f
            for f in lint_paths([SRC, REEXPORT], families=["hw"])
            if f.file == "violation_reexport.py"
        ]
        assert [(f.rule, f.symbol, f.message) for f in findings] == [
            (
                "REPRO006",
                "LeakyTage._extra",
                "__init__ assigns mutable `self._extra` not covered by snapshot",
            ),
            (
                "REPRO005",
                "HalfBakedReexport",
                "BranchPredictor subclass missing storage_bits, reset",
            ),
        ]


class TestDeterminismTaint:
    def test_fixture_positives(self):
        findings = lint_paths([TAINT], families=["det"])
        by_symbol = {f.symbol: f.rule for f in findings}
        assert by_symbol == {
            "cache_key_from_clock": "REPRO101",
            "digest_environment": "REPRO101",
            "unsorted_set_key": "REPRO103",
            "key_via_helper": "REPRO101",
            "_state_payload": "REPRO102",
        }

    def test_sorted_and_allowlisted_sinks_are_clean(self):
        findings = lint_paths([TAINT], families=["det"])
        assert not {f.symbol for f in findings} & {
            "sorted_set_key",
            "report",
            "helper_clock",
        }

    def test_taint_through_helper_return(self):
        # The interprocedural pass: helper_clock() returns wall-clock
        # taint which must reach the sha256 sink in its caller.
        findings = lint_paths([TAINT], families=["det"])
        flagged = [f for f in findings if f.symbol == "key_via_helper"]
        assert [f.rule for f in flagged] == ["REPRO101"]

    def test_clock_into_fingerprint(self):
        code = (
            "import time\n"
            "from repro.orchestration.fingerprint import task_fingerprint\n"
            "def key():\n"
            "    stamp = time.monotonic()\n"
            "    return task_fingerprint(stamp)\n"
        )
        assert [f.rule for f in lint_source(code, families=["det"])] == ["REPRO101"]

    def test_telemetry_emit_is_allowlisted(self):
        code = (
            "import time\n"
            "def report(telemetry):\n"
            "    telemetry.emit('progress', ts=time.time())\n"
        )
        assert lint_source(code, families=["det"]) == []

    def test_sort_keys_dumps_launders_order(self):
        code = (
            "import hashlib, json\n"
            "def key(parts):\n"
            "    blob = json.dumps(dict(parts), sort_keys=True)\n"
            "    return hashlib.sha256(blob.encode()).hexdigest()\n"
        )
        assert lint_source(code, families=["det"]) == []

    def test_dict_iteration_order_flagged(self):
        code = (
            "import hashlib\n"
            "def key(mapping):\n"
            "    mapping = dict(mapping)\n"
            "    blob = ','.join(k for k in mapping.keys())\n"
            "    return hashlib.sha256(blob.encode()).hexdigest()\n"
        )
        assert [f.rule for f in lint_source(code, families=["det"])] == ["REPRO103"]

    def test_state_ctor_sink(self):
        code = (
            "import os\n"
            "from repro.orchestration.statestore import PredictorState\n"
            "def snap():\n"
            "    return PredictorState(payload={'pid': os.getpid()})\n"
        )
        assert [f.rule for f in lint_source(code, families=["det"])] == ["REPRO102"]


class TestRaceDetector:
    def test_fixture_positives(self):
        findings = lint_paths([RACE], families=["concurrency"])
        got = {(f.symbol, f.rule) for f in findings}
        assert got == {
            ("LeakyCoordinator.outstanding", "REPRO507"),
            ("LeakyCoordinator.drop_all", "REPRO507"),
            ("LeakyCoordinator._expire_loop", "REPRO508"),
        }

    def test_lockless_class_and_guarded_reads_are_clean(self):
        findings = lint_paths([RACE], families=["concurrency"])
        symbols = {f.symbol for f in findings}
        assert not any(s.startswith("Unlocked.") for s in symbols)
        assert "LeakyCoordinator.settled_view" not in symbols

    def test_injected_unguarded_lease_write_is_caught(self):
        # The acceptance scenario: someone adds a public method to the
        # real coordinator that clears the lease table without the lock.
        path = SRC / "repro" / "orchestration" / "distserver.py"
        original = path.read_text()
        anchor = "    def serve(self)"
        assert anchor in original
        injected = original.replace(
            anchor,
            "    def leak_leases(self):\n"
            "        self._leases.clear()\n"
            "\n" + anchor,
            1,
        )
        findings = lint_source(injected, str(path), families=["concurrency"])
        # Coordinator._persist's baselined REPRO502 also surfaces here
        # (lint_source applies no baseline); the lock discipline is the point.
        assert [
            (f.rule, f.symbol) for f in findings if f.rule in ("REPRO507", "REPRO508")
        ] == [("REPRO507", "Coordinator.leak_leases")]

    def test_private_helper_without_lock_is_presumed_guarded(self):
        code = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self._append(item)\n"
            "    def _append(self, item):\n"
            "        self._items.append(item)\n"
        )
        assert lint_source(code, families=["concurrency"]) == []


class TestSchemaDrift:
    def test_fixture_positives(self):
        findings = lint_paths([SCHEMA], families=["schema"])
        got = {(f.symbol, f.rule) for f in findings}
        assert got == {
            ("emit_unknown", "REPRO301"),
            ("emit_incomplete", "REPRO302"),
            ("hijack", "REPRO303"),
            ("greet_incomplete", "REPRO304"),
            ("entry_unknown", "REPRO305"),
            ("entry_incomplete", "REPRO306"),
        }

    def test_negatives_are_clean(self):
        symbols = {f.symbol for f in lint_paths([SCHEMA], families=["schema"])}
        assert not symbols & {
            "emit_known", "emit_forwarded", "greet", "merge_ok",
            "entry_ok", "entry_merged",
        }

    def test_manifest_entry_drift_against_real_declaration(self):
        # The acceptance scenario for REPRO305/306: code in a manifest
        # module builds an entry dict the real MANIFEST_TYPES never
        # declared (or misses a required key of a declared kind).
        manifest = SRC / "repro" / "workloads" / "manifest.py"
        sources = collect_sources([manifest])
        rogue = (
            "from repro.workloads.manifest import parse_manifest\n"
            "def forge():\n"
            "    bad = {'kind': 'hologram', 'name': 'H'}\n"
            "    sparse = {'kind': 'generator', 'name': 'G'}\n"
            "    return bad, sparse\n"
        )
        findings = lint_sources(
            sources + collect_sources_from_text(rogue, "rogue.py"),
            families=["schema"],
        )
        assert [f.rule for f in findings] == ["REPRO305", "REPRO306"]
        assert "hologram" in findings[0].message
        assert "family" in findings[1].message

    def test_injected_unregistered_event_is_caught(self):
        # The acceptance scenario: code emits an event kind that was
        # never registered in the real telemetry schema.
        telemetry = SRC / "repro" / "orchestration" / "telemetry.py"
        sources = collect_sources([telemetry])
        rogue = (
            "def announce(telemetry):\n"
            "    telemetry.emit('campaign_teleport', where='away')\n"
        )
        findings = lint_sources(
            sources + collect_sources_from_text(rogue, "rogue.py"),
            families=["schema"],
        )
        assert [f.rule for f in findings] == ["REPRO301"]
        assert "campaign_teleport" in findings[0].message

    def test_injected_missing_field_is_caught(self):
        telemetry = SRC / "repro" / "orchestration" / "telemetry.py"
        sources = collect_sources([telemetry])
        rogue = (
            "def announce(telemetry):\n"
            "    telemetry.emit('task_retry', index=3)\n"  # misses 'attempt'
        )
        findings = lint_sources(
            sources + collect_sources_from_text(rogue, "rogue.py"),
            families=["schema"],
        )
        assert [f.rule for f in findings] == ["REPRO302"]
        assert "attempt" in findings[0].message

    def test_no_declaration_means_no_findings(self):
        code = "def f(telemetry):\n    telemetry.emit('anything', x=1)\n"
        assert lint_source(code, families=["schema"]) == []


def collect_sources_from_text(text, filename):
    """Build a one-module source list from in-memory text."""
    import ast

    from repro.analysis.findings import canonical_file
    from repro.analysis.rules import ModuleSource, module_name_for

    return [
        ModuleSource(
            path=Path(filename),
            module=module_name_for(Path(filename)),
            relpath=canonical_file(filename),
            tree=ast.parse(text, filename=filename),
        )
    ]


class TestPerfFamily:
    def test_fixture_positives(self):
        findings = lint_paths([PERF], families=["perf"])
        got = {(f.symbol, f.rule) for f in findings}
        assert got == {
            ("WastefulPredictor.predict", "REPRO401"),
            ("WastefulPredictor._helper", "REPRO402"),
            ("WastefulPredictor._helper", "REPRO403"),
            ("WastefulPredictor.train", "REPRO404"),
            ("WastefulPredictor.train", "REPRO405"),
            ("WastefulPredictor._log", "REPRO406"),
            ("hot_marked_packing", "REPRO401"),
            ("ArrayLoopPredictor.predict", "REPRO407"),
            ("hot_numpy_loop", "REPRO407"),
        }
        # Three variants fire inside hot_numpy_loop: the direct array
        # loop, range(len(arr)), and the enumerate() forwarding.
        assert sum(f.rule == "REPRO407" for f in findings) == 4

    def test_interprocedural_chain_in_message(self):
        # Helpers are flagged because a hot root reaches them; the
        # message names the chain.
        findings = lint_paths([PERF], families=["perf"])
        helper = next(f for f in findings if f.symbol == "WastefulPredictor._helper")
        assert "WastefulPredictor.predict -> WastefulPredictor._helper" in helper.message
        log = next(f for f in findings if f.symbol == "WastefulPredictor._log")
        assert "WastefulPredictor.train -> WastefulPredictor._log" in log.message

    def test_cold_paths_and_pragma_are_clean(self):
        symbols = {f.symbol for f in lint_paths([PERF], families=["perf"])}
        assert not symbols & {
            "WastefulPredictor.update",  # pragma-waived
            "WastefulPredictor.reset",  # cold method
            "WastefulPredictor._cold_tail",  # only reachable from cold code
            "hot_marked_sum",  # hot but allocation-free
            "cold_setup",  # unmarked free function
            "ArrayLoopPredictor.train",  # .tolist() escapes numpy-land
            "hot_numpy_waived",  # pragma-waived sequential recurrence
            "cold_numpy_loop",  # numpy loop outside the closure
        }

    def test_pragma_requires_reason(self):
        code = (
            "from repro.predictors.base import hot_path\n"
            "@hot_path\n"
            "def f(values):\n"
            "    # perf: allow(REPRO401):\n"
            "    return [v for v in values]\n"
        )
        assert [f.rule for f in lint_source(code, families=["perf"])] == ["REPRO401"]

    def test_hot_path_marker_pulls_in_free_function(self):
        code = (
            "from repro.predictors.base import hot_path\n"
            "def helper(values):\n"
            "    return {v: v for v in values}\n"
            "@hot_path\n"
            "def entry(values):\n"
            "    return helper(values)\n"
        )
        findings = lint_source(code, families=["perf"])
        assert [(f.rule, f.symbol) for f in findings] == [("REPRO401", "helper")]

    def test_method_hoisted_as_value_joins_hot_closure(self):
        code = (
            "from repro.predictors.base import BranchPredictor\n"
            "class Hoisting(BranchPredictor):\n"
            "    name = 'hoisting'\n"
            "    def predict(self, pc):\n"
            "        step = self._step\n"
            "        for offset in (1, 2):\n"
            "            step(pc + offset)\n"
            "        return True\n"
            "    def train(self, pc, taken):\n"
            "        pass\n"
            "    def _step(self, pc):\n"
            "        return {v: v for v in (pc, pc + 1)}\n"
        )
        findings = lint_source(code, families=["perf"])
        assert [(f.rule, f.symbol) for f in findings] == [("REPRO401", "Hoisting._step")]


class TestConcurrencyFamily:
    def test_fixture_positives(self):
        findings = lint_paths([CONC], families=["concurrency"])
        got = {(f.symbol, f.rule) for f in findings}
        assert got == {
            ("AbbaDeadlock.forward", "REPRO501"),
            ("BlockingUnderLock.pump", "REPRO502"),
            ("BlockingUnderLock.relay", "REPRO502"),
            ("ThreadEscape.spawn", "REPRO503"),
            ("ThreadEscape.spawn_closure", "REPRO503"),
            ("ThreadEscape.spawn", "REPRO507"),
            ("ThreadEscape.spawn_closure", "REPRO507"),
            ("NestedLock.add", "REPRO504"),
            ("CallbackUnderLock.record", "REPRO505"),
            ("CallbackUnderLock.publish", "REPRO505"),
            ("bad_handshake", "REPRO506"),
        }

    def test_abba_cycle_reports_both_edges_with_via_chain(self):
        # One finding per cycle: both edges described, and the edge that
        # runs through a helper names its interprocedural chain.
        findings = lint_paths([CONC], families=["concurrency"])
        cycle = next(f for f in findings if f.rule == "REPRO501")
        assert "AbbaDeadlock.alpha -> violation_concurrency.AbbaDeadlock.beta" in (
            cycle.message
        )
        assert "AbbaDeadlock.beta -> violation_concurrency.AbbaDeadlock.alpha" in (
            cycle.message
        )
        assert "[via AbbaDeadlock._touch]" in cycle.message

    def test_interprocedural_blocking_chain_in_message(self):
        findings = lint_paths([CONC], families=["concurrency"])
        relay = next(f for f in findings if f.symbol == "BlockingUnderLock.relay")
        assert "[via send_message]" in relay.message

    def test_clean_counterparts_are_silent(self):
        symbols = {f.symbol for f in lint_paths([CONC], families=["concurrency"])}
        assert not symbols & {
            "Disciplined.enqueue",
            "Disciplined.flush",
            "good_handshake",
            "Waived.flush",  # pragma-waived
            "ThreadEscape.bump",  # guarded write, not an escape
            "CallbackUnderLock.subscribe",
            "NestedLock._flush",  # single acquisition on its own
        }

    def test_pragma_requires_reason(self):
        blocking = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self, sock):\n"
            "        self.sock = sock\n"
            "        self._lock = threading.Lock()\n"
            "    def flush(self, payload):\n"
            "        with self._lock:\n"
            "            # concurrency: allow(REPRO502){reason}\n"
            "            self.sock.sendall(payload)\n"
        )
        unguarded = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.items = []\n"
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self.items.append(item)\n"
            "    def size(self):\n"
            "        # concurrency: allow(REPRO507){reason}\n"
            "        return len(self.items)\n"
        )
        for code, rule in ((blocking, "REPRO502"), (unguarded, "REPRO507")):
            bare = lint_source(code.format(reason=":"), families=["concurrency"])
            assert [f.rule for f in bare] == [rule]
            justified = code.format(reason=": single reader by design")
            assert lint_source(justified, families=["concurrency"]) == []

    def test_injected_out_of_order_handler_is_caught(self):
        # The acceptance scenario: a new client helper in the real
        # protocol module sends `events` straight after the hello,
        # skipping session_open — the declared serving FSM refuses it.
        path = SRC / "repro" / "orchestration" / "remote.py"
        original = path.read_text()
        injected = original + (
            "\n\n"
            "def eager_stream(sock, batch):\n"
            '    send_message(sock, {"type": "serve_hello", "token": None})\n'
            '    send_message(sock, {"type": "events", "events": batch})\n'
        )
        findings = lint_source(injected, str(path), families=["concurrency"])
        # Connection.request's baselined REPRO502s also surface here
        # (lint_source applies no baseline); the FSM check is the point.
        assert [(f.rule, f.symbol) for f in findings if f.rule == "REPRO506"] == [
            ("REPRO506", "eager_stream")
        ]

    def test_ordered_handler_is_clean(self):
        path = SRC / "repro" / "orchestration" / "remote.py"
        injected = path.read_text() + (
            "\n\n"
            "def patient_stream(sock, batch):\n"
            '    send_message(sock, {"type": "serve_hello", "token": None})\n'
            '    send_message(sock, {"type": "session_open", "config": "a"})\n'
            '    send_message(sock, {"type": "events", "events": batch})\n'
        )
        findings = lint_source(injected, str(path), families=["concurrency"])
        assert [f for f in findings if f.rule == "REPRO506"] == []


class TestRealTreeIsClean:
    def test_det_family_clean_on_src(self):
        assert lint_paths([SRC], families=["det"]) == []

    def test_schema_family_clean_on_src(self):
        assert lint_paths([SRC], families=["schema"]) == []

    def test_perf_family_clean_on_src(self):
        # Hot-loop true positives were fixed or pragma-justified in
        # place; the batch kernels' two deliberately sequential replay
        # loops (REPRO407) carry justified baseline entries instead.
        # The gate in run_all_experiments.sh keeps it that way.
        findings = lint_paths([SRC], families=["perf"])
        new, suppressed, stale = load_baseline().split(findings, families=["perf"])
        assert new == []
        assert stale == []
        assert {(f.rule, f.symbol) for f in suppressed} == {
            ("REPRO407", "_PerceptronKernel.run"),
            ("REPRO407", "BFNeuralKernel.run"),
        }

    def test_concurrency_family_clean_on_src(self):
        # No lock-guarded attribute is touched without its lock
        # (REPRO507/508), and the blocking-under-lock true positives were
        # refactored away (telemetry/pool/distserver hoist blocking work
        # out of their critical sections); what remains are the four
        # deliberate request-serialization / sink-I/O patterns, each
        # carried as a justified baseline entry.
        findings = lint_paths([SRC], families=["concurrency"])
        new, suppressed, stale = load_baseline().split(
            findings, families=["concurrency"]
        )
        assert new == []
        assert stale == []
        assert {(f.rule, f.symbol) for f in suppressed} == {
            ("REPRO502", "Connection.request"),
            ("REPRO502", "PredictClient._request"),
            ("REPRO502", "Telemetry.emit"),
            ("REPRO502", "Coordinator._persist"),
        }


class TestCliFamilies:
    def test_family_flag_restricts(self, capsys):
        code = main([str(TAINT), "--no-audit", "--no-baseline", "--family", "det"])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO101" in out and "REPRO004" not in out

    def test_family_flag_hw_only(self, capsys):
        code = main([str(TAINT), "--no-audit", "--no-baseline", "--family", "hw"])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO004" in out and "REPRO101" not in out

    def test_list_rules_covers_all_families(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ("REPRO001", "REPRO101", "REPRO301", "REPRO401", "REPRO507"):
            assert rule in out

    def test_each_family_fails_on_its_fixture(self):
        for family, fixture in (
            ("det", TAINT),
            ("schema", SCHEMA),
            ("perf", PERF),
            ("concurrency", CONC),
            ("concurrency", RACE),
        ):
            code = main(
                [str(fixture), "--no-audit", "--no-baseline", "--family", family]
            )
            assert code == EXIT_FINDINGS, family


class TestJsonLines:
    def run_jsonl(self, capsys, *argv):
        code = main([*argv, "--no-audit", "--format", "json"])
        return code, capsys.readouterr().out

    def test_one_finding_per_line_stable_keys(self, capsys):
        code, out = self.run_jsonl(
            capsys, str(TAINT), "--no-baseline", "--family", "det"
        )
        assert code == EXIT_FINDINGS
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert list(record) == list(JSON_KEYS)
            assert record["status"] == "new"
            assert record["family"] == "det"

    def test_output_is_deterministic(self, capsys):
        _, first = self.run_jsonl(capsys, str(RACE), "--no-baseline")
        _, second = self.run_jsonl(capsys, str(RACE), "--no-baseline")
        assert first == second

    def test_stale_entries_reported(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        write_baseline(
            baseline,
            [Finding(rule="REPRO507", file="gone.py", line=1, symbol="X.y", message="m")],
            Baseline(entries=[]),
        )
        code, out = self.run_jsonl(
            capsys, str(FIXTURES / "clean.py"), "--baseline", str(baseline)
        )
        assert code == EXIT_CLEAN
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert [r["status"] for r in records] == ["stale"]


class TestJsonRoundTrip:
    text = st.text(
        st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
    )

    @given(
        rule=st.sampled_from(sorted(ALL_RULES)),
        file=text,
        line=st.integers(min_value=0, max_value=10**6),
        symbol=text,
        message=text,
        hint=text,
    )
    def test_jsonl_line_round_trips(self, rule, file, line, symbol, message, hint):
        finding = Finding(
            rule=rule, file=file, line=line, symbol=symbol, message=message, hint=hint
        )
        record = json.loads(_jsonl_line("new", finding))
        assert list(record) == list(JSON_KEYS)
        assert record["status"] == "new"
        assert record["family"] == family_of(rule)
        rebuilt = Finding(
            rule=record["rule"],
            file=record["file"],
            line=record["line"],
            symbol=record["symbol"],
            message=record["message"],
            hint=record["hint"],
        )
        assert rebuilt == finding


class TestBaselineHygiene:
    def test_update_baseline_is_sorted_and_byte_stable(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"version": 1, "entries": []}\n')
        argv = [
            str(RACE),
            "--no-audit",
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
        assert main(argv) == EXIT_CLEAN
        first = baseline.read_bytes()
        assert main(argv) == EXIT_CLEAN
        assert baseline.read_bytes() == first
        entries = json.loads(first)["entries"]
        keys = [(e["rule"], e["file"], e["symbol"]) for e in entries]
        assert keys == sorted(keys)
        assert len(entries) == 3

    def test_update_baseline_keeps_justifications(self, tmp_path):
        findings = lint_paths([RACE], families=["concurrency"])
        baseline_path = tmp_path / "b.json"
        previous = Baseline(
            entries=[
                BaselineEntry(
                    rule=findings[0].rule,
                    file=findings[0].file,
                    symbol=findings[0].symbol,
                    justification="intentional, see docs",
                )
            ]
        )
        write_baseline(baseline_path, findings, previous)
        entries = json.loads(baseline_path.read_text())["entries"]
        by_key = {(e["rule"], e["symbol"]): e["justification"] for e in entries}
        assert by_key[(findings[0].rule, findings[0].symbol)] == "intentional, see docs"

    def test_fail_on_stale(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        write_baseline(
            baseline,
            [Finding(rule="REPRO101", file="gone.py", line=1, symbol="f", message="m")],
            Baseline(entries=[]),
        )
        argv = [str(FIXTURES / "clean.py"), "--no-audit", "--baseline", str(baseline)]
        assert main(argv) == EXIT_CLEAN
        assert main([*argv, "--fail-on-stale"]) == EXIT_FINDINGS

    def test_staleness_scoped_to_families_that_ran(self, tmp_path, capsys):
        # A det baseline entry cannot be judged stale by a perf-only run:
        # its rule never executed, so it matched nothing by construction.
        baseline = tmp_path / "b.json"
        write_baseline(
            baseline,
            [Finding(rule="REPRO101", file="gone.py", line=1, symbol="f", message="m")],
            Baseline(entries=[]),
        )
        argv = [
            str(FIXTURES / "clean.py"),
            "--no-audit",
            "--baseline",
            str(baseline),
            "--fail-on-stale",
        ]
        assert main([*argv, "--family", "perf"]) == EXIT_CLEAN
        assert main([*argv, "--family", "det"]) == EXIT_FINDINGS

    def test_repro5xx_staleness_scoped_to_concurrency_runs(self, tmp_path, capsys):
        # Regression: family_of used to misfile REPRO5xx as "hw", so a
        # concurrency-only run could never retire its own entries and an
        # hw-only run wrongly marked them stale.
        baseline = tmp_path / "b.json"
        write_baseline(
            baseline,
            [
                Finding(
                    rule="REPRO502", file="gone.py", line=1, symbol="f", message="m"
                )
            ],
            Baseline(entries=[]),
        )
        argv = [
            str(FIXTURES / "clean.py"),
            "--no-audit",
            "--baseline",
            str(baseline),
            "--fail-on-stale",
        ]
        assert main([*argv, "--family", "hw"]) == EXIT_CLEAN
        assert main([*argv, "--family", "concurrency"]) == EXIT_FINDINGS

    def test_split_keeps_unrun_family_entries_out_of_stale(self):
        # Direct Baseline.split check for both directions of the scoping.
        entries = [
            BaselineEntry(rule="REPRO401", file="a.py", symbol="f", justification="j"),
            BaselineEntry(rule="REPRO502", file="a.py", symbol="g", justification="j"),
        ]
        baseline = Baseline(entries=entries)
        new, suppressed, stale = baseline.split([], families=["concurrency"])
        assert [e.rule for e in stale] == ["REPRO502"]
        new, suppressed, stale = baseline.split([], families=["perf"])
        assert [e.rule for e in stale] == ["REPRO401"]

    def test_unknown_baseline_rule_is_refused(self, tmp_path, capsys):
        # A leftover entry for a retired rule id must fail loudly, naming
        # the rule and the file, instead of never matching anything.
        baseline = tmp_path / "b.json"
        entry = {"rule": "REPRO201", "file": "a.py", "symbol": "C.f", "justification": "j"}
        baseline.write_text(json.dumps({"version": 1, "entries": [entry]}))
        with pytest.raises(ValueError, match=r"b\.json.*REPRO201"):
            load_baseline(baseline)
        argv = [str(FIXTURES / "clean.py"), "--no-audit", "--baseline", str(baseline)]
        assert main(argv) == EXIT_USAGE
        assert "REPRO201" in capsys.readouterr().err


class TestSarifFormat:
    def run_sarif(self, capsys, *argv):
        code = main([*argv, "--no-audit", "--format", "sarif"])
        return code, json.loads(capsys.readouterr().out)

    def test_structure_and_rules(self, capsys):
        code, payload = self.run_sarif(
            capsys, str(PERF), "--no-baseline", "--family", "perf"
        )
        assert code == EXIT_FINDINGS
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        result_rules = {result["ruleId"] for result in run["results"]}
        assert result_rules <= rule_ids
        assert "REPRO401" in result_rules

    def test_locations_are_one_based(self, capsys):
        _, payload = self.run_sarif(
            capsys, str(PERF), "--no-baseline", "--family", "perf"
        )
        for result in payload["runs"][0]["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_baselined_findings_become_suppressions(self, capsys, tmp_path):
        findings = lint_paths([PERF], families=["perf"])
        baseline = tmp_path / "b.json"
        write_baseline(baseline, findings, Baseline(entries=[]))
        code, payload = self.run_sarif(
            capsys, str(PERF), "--family", "perf", "--baseline", str(baseline)
        )
        assert code == EXIT_CLEAN
        results = payload["runs"][0]["results"]
        assert results and all("suppressions" in result for result in results)
