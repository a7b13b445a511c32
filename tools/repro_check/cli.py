"""Command-line front end: ``python -m tools.repro_check [paths...]``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from .core import (
    DEFAULT_BASELINE,
    CheckResult,
    Violation,
    apply_baseline,
    check_paths,
    load_baseline,
    write_baseline,
)
from .project_rules import PROJECT_RULES, PROJECT_RULES_BY_CODE
from .rules import ALL_RULES, RULES_BY_CODE

#: Per-file rules first, then the whole-program passes.
EVERY_RULE: tuple[object, ...] = tuple(ALL_RULES) + tuple(PROJECT_RULES)
EVERY_RULE_BY_CODE = {**RULES_BY_CODE, **PROJECT_RULES_BY_CODE}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Domain-invariant static analysis for the repro codebase "
            "(per-file RPR001-RPR008, RPR004 retired, and whole-program "
            "RPR009-RPR012); see docs/STATIC_ANALYSIS.md for the catalog."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule violation count (text format)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        nargs="?",
        const=DEFAULT_BASELINE,
        help=(
            "drop findings recorded in the given baseline file "
            f"(default when given without a value: {DEFAULT_BASELINE})"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        nargs="?",
        const=DEFAULT_BASELINE,
        help="write the run's findings as the new baseline and exit 0",
    )
    return parser


def _selected_rules(spec: str | None) -> list[object]:
    if spec is None:
        return list(EVERY_RULE)
    codes = [code.strip().upper() for code in spec.split(",") if code.strip()]
    unknown = [code for code in codes if code not in EVERY_RULE_BY_CODE]
    if unknown:
        raise SystemExit(
            f"repro-check: unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(EVERY_RULE_BY_CODE))}"
        )
    return [EVERY_RULE_BY_CODE[code] for code in codes]


def _render_text(result: CheckResult, statistics: bool) -> str:
    lines = [violation.render() for violation in result.all_violations]
    total = len(result.all_violations)
    if statistics and total:
        counts: dict[str, int] = {}
        for violation in result.all_violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        lines.append("")
        lines.extend(
            f"{code}: {count}" for code, count in sorted(counts.items())
        )
    summary = (
        f"repro-check: {result.files_checked} files, {total} violation(s)"
        + (f", {result.suppressed} suppressed" if result.suppressed else "")
        + (f", {result.baselined} baselined" if result.baselined else "")
    )
    lines.append(summary)
    return "\n".join(lines)


def _render_github(result: CheckResult) -> str:
    """GitHub Actions workflow-command annotations, one per finding."""
    lines = []
    for violation in result.all_violations:
        message = violation.message.replace("%", "%25").replace(
            "\n", "%0A"
        )
        lines.append(
            f"::error file={violation.path},line={violation.line},"
            f"col={violation.col},title={violation.code}::{message}"
        )
    lines.append(
        f"repro-check: {result.files_checked} files, "
        f"{len(result.all_violations)} violation(s)"
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in EVERY_RULE:
            print(f"{rule.code}  {rule.summary}")
        return 0
    rules = _selected_rules(args.select)
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"repro-check: path(s) not found: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    result = check_paths(args.paths, rules)
    if args.write_baseline:
        count = write_baseline(result, args.write_baseline)
        print(
            f"repro-check: wrote {count} finding(s) to {args.write_baseline}"
        )
        return 0
    stale: list[Violation] = []
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(
                f"repro-check: baseline not found: {args.baseline}",
                file=sys.stderr,
            )
            return 2
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            print(
                f"repro-check: bad baseline {args.baseline}: {error}",
                file=sys.stderr,
            )
            return 2
        stale = apply_baseline(result, baseline)
    if args.format == "json":
        payload = result.as_dict()
        if stale:
            payload["stale_baseline"] = [v.as_dict() for v in stale]
        print(json.dumps(payload, indent=2))
    elif args.format == "github":
        print(_render_github(result))
    else:
        print(_render_text(result, args.statistics))
        for violation in stale:
            print(f"note: stale baseline entry: {violation.render()}")
    return result.exit_code
