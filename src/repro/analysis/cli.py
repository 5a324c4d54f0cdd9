"""Command line driver: ``python -m repro.analysis`` / ``repro-lint``.

Exit codes: 0 clean, 1 new lint findings, 2 storage-audit failure.

The CLI runs every rule family by default (``hw``, ``det``,
``schema``, ``perf``, ``concurrency``); ``--family`` restricts the run.
``--format json`` emits one finding per line with a stable key order so
downstream tools can diff or stream the output; ``--format sarif``
emits a SARIF 2.1.0 log (baselined findings become suppressed results)
for code-scanning UIs; the older ``--json`` aggregate payload is kept for
``run_all_experiments.sh`` consumers.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.baseline import DEFAULT_BASELINE, load_baseline, write_baseline
from repro.analysis.families import ALL_RULES, FAMILIES, family_of, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.storage_audit import format_audits, run_audits

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_AUDIT = 2
#: Bad invocation (unknown path, missing baseline); argparse also uses 2
#: for usage errors, so CI only needs "nonzero means not clean".
EXIT_USAGE = 2

#: Key order for ``--format json`` lines; fixed so output is byte-stable.
JSON_KEYS = ("status", "family", "rule", "file", "line", "symbol", "message", "hint")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis for the repro tree: hardware "
        "faithfulness, determinism taint, schema drift, hot-path cost and "
        "concurrency (lock discipline, lock order, protocol FSMs), plus "
        "the storage-budget audit",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--family",
        action="append",
        choices=sorted(FAMILIES),
        default=None,
        help="run only this rule family (repeatable; default: all families)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file of justified violations (default: "
        f"{DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="write current findings as the new baseline and exit",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the active baseline in place (sorted, justifications "
        "kept, matched against current findings) and exit",
    )
    parser.add_argument(
        "--fail-on-stale",
        action="store_true",
        help="exit nonzero when the baseline has stale entries",
    )
    parser.add_argument(
        "--no-audit", action="store_true", help="skip the storage-budget audit"
    )
    parser.add_argument(
        "--audit-only", action="store_true", help="run only the storage-budget audit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format; json emits one finding per line (JSONL), "
        "sarif emits a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one aggregate JSON payload (legacy format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the REPRO rule ids and exit"
    )
    return parser


def _jsonl_line(status: str, finding: Finding) -> str:
    record = {
        "status": status,
        "family": family_of(finding.rule),
        "rule": finding.rule,
        "file": finding.file,
        "line": finding.line,
        "symbol": finding.symbol,
        "message": finding.message,
        "hint": finding.hint,
    }
    return json.dumps({key: record[key] for key in JSON_KEYS})


def _sarif_result(finding: Finding, suppressed: bool) -> dict:
    text = finding.message
    if finding.hint:
        text = f"{text} — {finding.hint}"
    record = {
        "ruleId": finding.rule,
        "level": "warning",
        "message": {"text": text},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.file},
                    "region": {"startLine": max(1, finding.line)},
                }
            }
        ],
        "properties": {
            "family": family_of(finding.rule),
            "symbol": finding.symbol,
        },
    }
    if suppressed:
        record["suppressions"] = [
            {"kind": "external", "justification": "justified in the analysis baseline"}
        ]
    return record


def _sarif_payload(new: list[Finding], suppressed: list[Finding]) -> dict:
    referenced = sorted({finding.rule for finding in (*new, *suppressed)})
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": ALL_RULES[rule_id]},
            "properties": {"family": family_of(rule_id)},
        }
        for rule_id in referenced
        if rule_id in ALL_RULES
    ]
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": rules,
                    }
                },
                "results": [
                    *(_sarif_result(finding, False) for finding in new),
                    *(_sarif_result(finding, True) for finding in suppressed),
                ],
            }
        ],
    }


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, title in sorted(ALL_RULES.items()):
            print(f"{rule_id}  [{family_of(rule_id)}]  {title}")
        return EXIT_CLEAN

    try:
        findings = (
            [] if args.audit_only else lint_paths(args.paths, families=args.family)
        )

        baseline = None
        if not args.no_baseline and not args.audit_only:
            baseline = load_baseline(args.baseline)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.update_baseline:
        target = baseline.path if baseline is not None and baseline.path else None
        if target is None:
            target = args.baseline if args.baseline is not None else DEFAULT_BASELINE
        previous = baseline if baseline is not None else load_baseline(None)
        write_baseline(target, findings, previous)
        print(f"[baseline updated at {target}: {len(findings)} entries]")
        return EXIT_CLEAN

    if args.write_baseline is not None:
        previous = baseline if baseline is not None else load_baseline(None)
        write_baseline(args.write_baseline, findings, previous)
        print(f"[baseline written to {args.write_baseline}: {len(findings)} entries]")
        return EXIT_CLEAN

    if baseline is not None:
        new, suppressed, stale = baseline.split(findings, families=args.family)
    else:
        new, suppressed, stale = findings, [], []

    audits = [] if (args.no_audit and not args.audit_only) else run_audits()
    audits_ok = all(result.ok for result in audits)

    if args.json:
        payload = {
            "findings": [finding.to_dict() for finding in new],
            "suppressed": [finding.to_dict() for finding in suppressed],
            "stale_baseline": [
                {"rule": e.rule, "file": e.file, "symbol": e.symbol} for e in stale
            ],
            "audits": [
                {
                    "name": result.name,
                    "ok": result.ok,
                    "model_total_bytes": result.model_total_bytes,
                    "budget_bytes": result.budget_bytes,
                    "detail": result.detail,
                }
                for result in audits
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(json.dumps(_sarif_payload(new, suppressed), indent=2))
    elif args.format == "json":
        for finding in new:
            print(_jsonl_line("new", finding))
        for finding in suppressed:
            print(_jsonl_line("baselined", finding))
        for entry in stale:
            record = {
                "status": "stale",
                "family": family_of(entry.rule),
                "rule": entry.rule,
                "file": entry.file,
                "line": 0,
                "symbol": entry.symbol,
                "message": "baseline entry matches no current finding",
                "hint": "remove it (or run --update-baseline)",
            }
            print(json.dumps({key: record[key] for key in JSON_KEYS}))
    else:
        for finding in new:
            print(finding.render())
        if suppressed:
            print(f"[{len(suppressed)} finding(s) suppressed by baseline]")
        for entry in stale:
            print(
                f"[stale baseline entry: {entry.rule} {entry.file} "
                f"{entry.symbol} — remove it]"
            )
        if baseline is not None:
            for entry in baseline.unjustified():
                print(
                    f"[unjustified baseline entry: {entry.rule} {entry.file} "
                    f"{entry.symbol} — add a justification]"
                )
        if audits:
            print(format_audits(audits))
        summary = (
            f"{len(new)} new finding(s), {len(suppressed)} baselined, "
            f"{len(stale)} stale baseline entr(ies)"
        )
        if audits:
            summary += f"; storage audit {'OK' if audits_ok else 'FAILED'}"
        print(summary)

    if new:
        return EXIT_FINDINGS
    if args.fail_on_stale and stale:
        return EXIT_FINDINGS
    if not audits_ok:
        return EXIT_AUDIT
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
