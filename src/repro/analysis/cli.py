"""The ``repro check`` subcommand.

Exit codes are part of the stable interface (CI keys off them):

* ``0`` — every selected rule passed over the checked tree;
* ``1`` — one or more diagnostics (printed as
  ``file:line:col: RULE message``, or as the JSON/SARIF report);
* ``2`` — usage or input error (unknown rule id, missing root,
  syntax error in a checked file).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .base import ALL_RULES, get_rule
from .model import AnalysisError
from .runner import run_analysis
from .sarif import to_sarif

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the check options to a (sub)parser."""
    parser.add_argument("root", nargs="?", type=Path, default=None,
                        help="directory to check "
                             "(default: the repro package tree)")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="ID", dest="rule_ids",
                        help="run only this rule id (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--debt", type=Path, default=None,
                        metavar="PATH",
                        help="pragma-debt ledger for PA004 "
                             "(default: lint_debt.json found from the "
                             "root upward)")
    parser.add_argument("--sarif-base-uri", default=None,
                        metavar="URL", dest="sarif_base_uri",
                        help="prefix rule helpUris with this URL in "
                             "SARIF output (e.g. a repository blob "
                             "URL)")


def run_check_command(args: argparse.Namespace) -> int:
    """Execute the check subcommand; returns the process exit code."""
    if args.list_rules:
        for cls in ALL_RULES():
            print("%s  %s" % (cls.rule_id, cls.title))
        return EXIT_CLEAN
    rule_classes = None
    if args.rule_ids:
        try:
            rule_classes = [get_rule(rule_id.upper())
                            for rule_id in args.rule_ids]
        except KeyError as exc:
            print("error: unknown rule id %s (try --list-rules)" % exc)
            return EXIT_ERROR
    try:
        report = run_analysis(root=args.root, rule_classes=rule_classes,
                              debt_path=args.debt)
    except AnalysisError as exc:
        print("error: %s" % exc)
        return EXIT_ERROR
    if args.output_format == "json":
        print(report.to_json())
    elif args.output_format == "sarif":
        print(to_sarif(report, base_uri=args.sarif_base_uri))
    else:
        print(report.render_text())
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Static checker for the repro codebase: file-local "
                    "invariants and whole-program contracts "
                    "(see docs/STATIC_ANALYSIS.md)")
    add_check_arguments(parser)
    return run_check_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - via `repro check`
    import sys
    sys.exit(main())
