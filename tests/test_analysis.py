"""Tests for the hardware-faithfulness static analyzer (repro.analysis)."""

from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    audit_bf_neural,
    audit_table1,
    lint_paths,
    lint_source,
    load_baseline,
    run_audits,
)
from repro.analysis.baseline import BaselineEntry, write_baseline
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.analysis.findings import canonical_file

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def rules_fired(path: Path) -> list[str]:
    return [finding.rule for finding in lint_paths([path])]


class TestFixtures:
    def test_unbounded_counter_fixture(self):
        findings = lint_paths([FIXTURES / "violation_counter.py"])
        assert [f.rule for f in findings] == ["REPRO001"] * 3
        lines = {f.line for f in findings}
        assert len(lines) == 3  # +=, -=, and the subscript increment
        assert all(f.symbol == "LeakyCounterPredictor.train" for f in findings)

    def test_guard_idioms_not_flagged(self):
        findings = lint_paths([FIXTURES / "violation_counter.py"])
        flagged_symbols = {f.symbol for f in findings}
        assert "LeakyCounterPredictor.bounded_ok" not in flagged_symbols
        assert "LeakyCounterPredictor.post_check_ok" not in flagged_symbols

    def test_config_fixture(self):
        findings = lint_paths([FIXTURES / "violation_config.py"])
        assert [f.rule for f in findings] == ["REPRO002"] * 2
        assert {f.symbol for f in findings} == {
            "SloppyConfig.table_entries",
            "SloppyConfig.wm_rows",
        }

    def test_float_fixture(self):
        findings = lint_paths([FIXTURES / "violation_float.py"])
        assert set(rules_fired(FIXTURES / "violation_float.py")) == {"REPRO003"}
        symbols = {f.symbol for f in findings}
        assert symbols == {
            "AnalogishPredictor.predict",
            "AnalogishPredictor.train",
        }
        # __init__ float and non-predict helpers are allowed.
        assert len(findings) == 3

    def test_nondet_fixture(self):
        findings = lint_paths([FIXTURES / "violation_nondet.py"])
        assert [f.rule for f in findings] == ["REPRO004"] * 3
        messages = " ".join(f.message for f in findings)
        assert "random" in messages
        assert "time" in messages
        assert "os.urandom" in messages

    def test_interface_fixture(self):
        findings = lint_paths([FIXTURES / "violation_interface.py"])
        assert [f.rule for f in findings] == ["REPRO005"]
        finding = findings[0]
        assert finding.symbol == "HalfBaked"
        for member in ("name", "storage_bits", "reset"):
            assert member in finding.message

    def test_snapshot_fixture(self):
        findings = lint_paths([FIXTURES / "violation_snapshot.py"])
        assert [f.rule for f in findings] == ["REPRO006"] * 2
        by_symbol = {f.symbol: f for f in findings}
        assert set(by_symbol) == {"NoSnapshot", "PartialSnapshot.shadow"}
        assert "no snapshot" in by_symbol["NoSnapshot"].message
        assert "self.shadow" in by_symbol["PartialSnapshot.shadow"].message

    def test_clean_fixture(self):
        assert lint_paths([FIXTURES / "clean.py"]) == []

    def test_same_basename_in_two_directories(self, tmp_path):
        # Each a/pred.py and b/pred.py keeps its own module key, so both
        # incomplete predictors are indexed and reported.
        code = (
            "from repro.predictors.base import BranchPredictor\n\n\n"
            "class A(BranchPredictor):\n"
            '    name = "a"\n\n'
            "    def predict(self, pc: int) -> bool:\n"
            "        return True\n\n"
            "    def train(self, pc: int, taken: bool) -> None:\n"
            "        pass\n"
        )
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "pred.py").write_text(code)
        findings = lint_paths([tmp_path / "a", tmp_path / "b"])
        assert [(f.rule, f.symbol) for f in findings] == [("REPRO005", "A")] * 2
        # ... and each is reported, and baselined, under its own file.
        assert sorted(f.file for f in findings) == ["a/pred.py", "b/pred.py"]
        assert len({f.render() for f in findings}) == 2
        assert len({f.baseline_key for f in findings}) == 2
        path = tmp_path / "baseline.json"
        write_baseline(path, findings[:1], Baseline(entries=[]))
        new, suppressed, stale = load_baseline(path).split(findings)
        assert (new, suppressed, stale) == (findings[1:], findings[:1], [])


class TestRuleEdgeCases:
    def test_enclosing_while_guard(self):
        code = (
            "class P:\n"
            "    def step(self):\n"
            "        while self.age < 10:\n"
            "            self.age += 1\n"
        )
        assert lint_source(code) == []

    def test_local_variables_exempt(self):
        code = "def f():\n    count = 0\n    count += 1\n    return count\n"
        assert lint_source(code) == []

    def test_augassign_by_two_exempt(self):
        # Only the canonical counter idiom (step of 1) is policed.
        code = "class P:\n    def step(self):\n        self.x += 2\n"
        assert lint_source(code) == []

    def test_log2_fields_exempt(self):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class XConfig:\n"
            "    log2_entries: int = 10\n"
            "    tag_bits: int = 7\n"
        )
        assert lint_source(code) == []

    def test_nonconfig_dataclass_exempt(self):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Stats:\n"
            "    sample_entries: int = 1000\n"
        )
        assert lint_source(code) == []

    def test_abstract_predictor_exempt(self):
        code = (
            "from abc import abstractmethod\n"
            "from repro.core.base import BranchPredictor\n"
            "class Partial(BranchPredictor):\n"
            "    @abstractmethod\n"
            "    def flush(self): ...\n"
        )
        assert lint_source(code) == []

    def test_snapshot_in_base_covers_subclass(self):
        # A subclass whose chain serializes the attr is covered even when
        # the _state_payload lives in the parent.
        code = (
            "from repro.core.base import BranchPredictor\n"
            "class Base(BranchPredictor):\n"
            "    name = 'b'\n"
            "    def __init__(self): self.table = [0] * 8\n"
            "    def predict(self, pc): return True\n"
            "    def train(self, pc, taken): pass\n"
            "    def storage_bits(self): return 0\n"
            "    def reset(self): pass\n"
            "    def _state_payload(self): return {'table': list(self.table)}\n"
            "    def _restore_payload(self, p): self.table = list(p['table'])\n"
            "class Child(Base):\n"
            "    name = 'c'\n"
        )
        assert lint_source(code) == []

    def test_config_construction_not_mutable_state(self):
        # *Config construction is configuration, not snapshot-worthy state.
        code = (
            "from repro.core.base import BranchPredictor\n"
            "class XConfig:\n"
            "    pass\n"
            "class P(BranchPredictor):\n"
            "    name = 'p'\n"
            "    def __init__(self): self.config = XConfig()\n"
            "    def predict(self, pc): return True\n"
            "    def train(self, pc, taken): pass\n"
            "    def storage_bits(self): return 0\n"
            "    def reset(self): pass\n"
        )
        assert lint_source(code) == []

    def test_inherited_members_satisfy_interface(self):
        code = (
            "from repro.core.base import BranchPredictor\n"
            "class Full(BranchPredictor):\n"
            "    name = 'full'\n"
            "    def predict(self, pc): return True\n"
            "    def train(self, pc, taken): pass\n"
            "    def storage_bits(self): return 0\n"
            "    def reset(self): pass\n"
            "class Child(Full):\n"
            "    name = 'child'\n"
        )
        assert lint_source(code) == []


class TestRepoIsClean:
    def test_src_lint_matches_baseline(self):
        findings = lint_paths([ROOT / "src"])
        baseline = load_baseline(ROOT / "analysis" / "baseline.json")
        new, suppressed, stale = baseline.split(findings)
        assert [f.render() for f in new] == []
        assert stale == []
        assert suppressed  # the justified exemptions are still present

    def test_baseline_entries_are_justified(self):
        baseline = load_baseline(ROOT / "analysis" / "baseline.json")
        assert baseline.unjustified() == []


class TestBaselineMechanics:
    def test_split_and_stale(self):
        findings = lint_paths([FIXTURES / "violation_config.py"])
        entry = BaselineEntry(
            rule="REPRO002",
            file="violation_config.py",
            symbol="SloppyConfig.table_entries",
            justification="test",
        )
        ghost = BaselineEntry(
            rule="REPRO001", file="gone.py", symbol="X.y", justification="test"
        )
        baseline = Baseline(entries=[entry, ghost])
        new, suppressed, stale = baseline.split(findings)
        assert [f.symbol for f in new] == ["SloppyConfig.wm_rows"]
        assert [f.symbol for f in suppressed] == ["SloppyConfig.table_entries"]
        assert stale == [ghost]

    def test_write_and_reload_roundtrip(self, tmp_path):
        findings = lint_paths([FIXTURES / "violation_config.py"])
        path = tmp_path / "baseline.json"
        write_baseline(path, findings, Baseline(entries=[]))
        baseline = load_baseline(path)
        new, suppressed, stale = baseline.split(findings)
        assert new == [] and stale == []
        assert len(suppressed) == len(findings)

    def test_missing_default_is_empty(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert load_baseline(None).entries == []

    def test_missing_explicit_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_baseline(tmp_path / "nope.json")

    def test_canonical_file_strips_to_src(self):
        assert canonical_file("/abs/prefix/src/repro/core/bst.py") == (
            "src/repro/core/bst.py"
        )
        assert canonical_file("tests/fixtures/analysis/clean.py") == "clean.py"


class TestStorageAudit:
    def test_table1_within_one_percent(self):
        result = audit_table1()
        assert result.ok
        deviation = abs(result.compare_total_bytes - result.budget_bytes)
        assert deviation / result.budget_bytes <= 0.01

    def test_table1_rows_sum_to_storage_bits(self):
        result = audit_table1()
        from repro.core.bftage import BFTage, BFTageConfig

        predictor = BFTage(BFTageConfig.for_tables(10))
        assert sum(r.model_bytes for r in result.rows) * 8 == predictor.storage_bits()

    def test_bf_neural_presets_within_budget(self):
        for name, kib in (("64", 64), ("32", 32)):
            result = audit_bf_neural(f"BF-Neural {name} KB", kib)
            assert result.ok, result.detail

    def test_component_mismatch_detected(self):
        from repro.core.configs import bf_neural_32kb

        predictor = bf_neural_32kb()
        honest = predictor.storage_bits
        predictor.storage_bits = lambda: honest() + 1024  # hide 128 bytes
        result = audit_bf_neural("tampered", 32, predictor=predictor)
        assert not result.ok
        assert "unaccounted" in result.detail

    def test_run_audits_all_ok(self):
        assert all(result.ok for result in run_audits())


class TestCli:
    def test_violations_exit_nonzero(self, capsys):
        code = main(
            [str(FIXTURES / "violation_counter.py"), "--no-audit", "--no-baseline"]
        )
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO001" in out

    def test_src_with_baseline_exits_clean(self, capsys):
        code = main(
            [
                str(ROOT / "src"),
                "--baseline",
                str(ROOT / "analysis" / "baseline.json"),
                "--no-audit",
            ]
        )
        assert code == EXIT_CLEAN
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_audit_only(self, capsys):
        assert main(["--audit-only"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in (
            "REPRO001",
            "REPRO002",
            "REPRO003",
            "REPRO004",
            "REPRO005",
            "REPRO006",
        ):
            assert rule_id in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        target = str(FIXTURES / "violation_float.py")
        baseline_path = tmp_path / "b.json"
        assert (
            main([target, "--no-audit", "--write-baseline", str(baseline_path)])
            == EXIT_CLEAN
        )
        assert (
            main([target, "--no-audit", "--baseline", str(baseline_path)])
            == EXIT_CLEAN
        )

    def test_json_output(self, capsys):
        import json

        code = main(
            [
                str(FIXTURES / "violation_nondet.py"),
                "--no-audit",
                "--no-baseline",
                "--json",
            ]
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"REPRO004"}


class TestStorageTableRegression:
    def test_rows_sum_exactly_to_total(self):
        from repro.core.configs import bf_tage_storage_table

        rows = dict(bf_tage_storage_table(10))
        total = rows.pop("Total")
        assert sum(rows.values()) == total  # exact, not approximate

    def test_bits_rows_match_predictor(self):
        from repro.core.bftage import BFTage, BFTageConfig
        from repro.core.configs import bf_tage_storage_bits

        predictor = BFTage(BFTageConfig.for_tables(10))
        assert sum(b for _, b in bf_tage_storage_bits(10)) == predictor.storage_bits()

    def test_results_file_is_current(self):
        from repro.experiments import table1_storage

        recorded = (ROOT / "results" / "table1.txt").read_text()
        assert recorded.strip() == table1_storage.run(None).strip()


@pytest.mark.skipif(
    __import__("shutil").which("ruff") is None,
    reason="ruff not installed in this environment",
)
class TestRuffConfig:
    def test_ruff_clean(self):
        import subprocess

        result = subprocess.run(
            ["ruff", "check", "src", "tests", "examples", "scripts"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestReset:
    @staticmethod
    def _exercise(predictor, branches=400):
        state = 0x9E3779B97F4A7C15
        for i in range(branches):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            pc = (state >> 20) & 0xFFFF
            taken = bool((state >> 13) & 1)
            predictor.predict(pc)
            predictor.train(pc, taken)

    def _assert_reset_restores(self, make):
        trained = make()
        fresh = make()
        self._exercise(trained)
        trained.reset()
        probes = [4 * i + 1 for i in range(256)]
        assert [trained.predict(pc) for pc in probes] == [
            fresh.predict(pc) for pc in probes
        ]
        assert trained.storage_bits() == fresh.storage_bits()

    def test_gshare_reset(self):
        from repro.predictors.gshare import GShare

        self._assert_reset_restores(lambda: GShare(entries=1024, history_bits=8))

    def test_perceptron_reset(self):
        from repro.predictors.perceptron import GlobalPerceptron

        self._assert_reset_restores(
            lambda: GlobalPerceptron(rows=64, history_length=12)
        )

    def test_loop_reset(self):
        from repro.predictors.loop import LoopOnly

        self._assert_reset_restores(LoopOnly)

    def test_bfneural_reset(self):
        from repro.core.configs import bf_neural_32kb

        self._assert_reset_restores(bf_neural_32kb)

    def test_reset_lives_in_every_shipping_predictor(self):
        # The REPRO005 sweep over src/ is the authoritative check; assert
        # it finds no interface gaps at all (baseline has no REPRO005).
        findings = [
            f for f in lint_paths([ROOT / "src"]) if f.rule == "REPRO005"
        ]
        assert findings == []
