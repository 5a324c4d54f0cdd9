"""Baseline handling: justified pre-existing violations.

The baseline file (``analysis/baseline.json`` at the repo root) lists
violations that predate the analyzer or are intrinsic to what a module
models (e.g. OH-SNAP's analog float summation).  Each entry must carry a
justification; findings matching an entry are suppressed, anything else
fails the run, and entries that no longer match anything are reported as
stale so the baseline only ever shrinks.

Matching is by ``(rule, canonical file, symbol)`` — deliberately not by
line number, so edits elsewhere in a file do not invalidate entries.
An entry naming a rule id no family reports (a retired or mistyped id)
is refused on load rather than silently never matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path, PurePath

from repro.analysis.families import ALL_RULES, family_of
from repro.analysis.findings import Finding, canonical_file

#: Default baseline location, relative to the repository root / CWD.
DEFAULT_BASELINE = Path("analysis") / "baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    file: str
    symbol: str
    justification: str

    @property
    def key(self) -> tuple[str, str, str]:
        # Package paths are respelled from ``src/``; any other file is
        # matched as written, the spelling its finding was reported with.
        keep = len(PurePath(self.file).parts)
        return (self.rule, canonical_file(self.file, keep=keep), self.symbol)


@dataclass
class Baseline:
    """A set of suppressed findings plus bookkeeping for staleness."""

    path: Path | None = None
    entries: list[BaselineEntry] = field(default_factory=list)

    def split(
        self, findings: list[Finding], families: list[str] | None = None
    ) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
        """Partition findings into (new, suppressed) and list stale entries.

        ``families`` names the rule families that actually ran; entries
        belonging to a family that was not run cannot be judged stale
        (their rules produced no findings by construction).
        """
        by_key = {entry.key: entry for entry in self.entries}
        new: list[Finding] = []
        suppressed: list[Finding] = []
        matched: set[tuple[str, str, str]] = set()
        for finding in findings:
            entry = by_key.get(finding.baseline_key)
            if entry is None:
                new.append(finding)
            else:
                suppressed.append(finding)
                matched.add(entry.key)
        stale = [
            entry
            for entry in self.entries
            if entry.key not in matched
            and (families is None or family_of(entry.rule) in families)
        ]
        return new, suppressed, stale

    def unjustified(self) -> list[BaselineEntry]:
        return [entry for entry in self.entries if not entry.justification.strip()]


def load_baseline(path: Path | str | None = None) -> Baseline:
    """Load a baseline file; a missing default baseline is simply empty.

    Raises ``ValueError`` when an entry names a rule id that no family
    reports.
    """
    explicit = path is not None
    path = Path(path) if path is not None else DEFAULT_BASELINE
    if not path.exists():
        if explicit:
            raise FileNotFoundError(f"baseline file not found: {path}")
        return Baseline(path=None, entries=[])
    data = json.loads(path.read_text())
    entries = [
        BaselineEntry(
            rule=item["rule"],
            file=item["file"],
            symbol=item["symbol"],
            justification=item.get("justification", ""),
        )
        for item in data.get("entries", [])
    ]
    for entry in entries:
        if entry.rule not in ALL_RULES:
            raise ValueError(
                f"baseline {path}: entry for {entry.file} {entry.symbol} names "
                f"unknown rule {entry.rule}"
            )
    return Baseline(path=path, entries=entries)


def write_baseline(path: Path | str, findings: list[Finding], previous: Baseline) -> None:
    """Regenerate a baseline from current findings, keeping justifications.

    The output is *byte-stable*: entries are sorted by
    ``(rule, file, symbol)`` with a fixed key order, so regenerating an
    unchanged baseline produces identical bytes (clean diffs, honest
    pre-commit hooks).
    """
    kept = {entry.key: entry.justification for entry in previous.entries}
    seen: set[tuple[str, str, str]] = set()
    entries = []
    for finding in sorted(findings, key=lambda f: f.baseline_key):
        key = finding.baseline_key
        if key in seen:
            continue
        seen.add(key)
        entries.append(
            {
                "rule": finding.rule,
                "file": finding.file,
                "symbol": finding.symbol,
                "justification": kept.get(key, "TODO: justify or fix"),
            }
        )
    payload = {"version": 1, "entries": entries}
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
