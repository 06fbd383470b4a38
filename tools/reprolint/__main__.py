"""Command line for reprolint.

::

    python -m tools.reprolint src benchmarks tests      # lint
    python -m tools.reprolint --list-rules              # catalogue

Exit status: 0 clean, 1 findings, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint import config
from tools.reprolint.engine import all_rules, run_lint


def _repo_root() -> Path:
    # tools/reprolint/__main__.py -> repo root is two levels up.
    return Path(__file__).resolve().parent.parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Lint the tree against the repro invariant rules.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--no-project-rules", action="store_true",
                        help="skip cross-file rules (RPL3xx)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: autodetected)")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.list_rules:
        for info in all_rules().values():
            kind = "project" if info.project else "file"
            print(f"{info.code}  {info.name:26s} [{kind}] "
                  f"{info.description}")
        return 0
    root = Path(args.root).resolve() if args.root else _repo_root()
    paths = args.paths or ["src"]
    try:
        findings = run_lint(paths, root=root, scopes=config.RULE_SCOPES,
                            project_rules=not args.no_project_rules)
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
