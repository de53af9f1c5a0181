"""Symbolic flow-analysis CLI: ``python -m repro.flow``.

Proves no-escape, isolation, blackhole-freedom, and loop-freedom over
the shipped example topologies (default), named examples
(``--topology``), or declarative spec files (``--spec``).  Exit status
is 0 only when every property holds for every spec — CI runs this as
the static data-plane gate.

Examples::

    python -m repro.flow                          # all example topologies
    python -m repro.flow --topology mesh6
    python -m repro.flow --spec tests/flow/fixtures/loop.json
    python -m repro.flow --format json --out flow.json
    python -m repro.flow --list
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.errors import ConfigurationError
from .examples import EXAMPLE_SPECS, example_spec
from .properties import analyze_all
from .spec import FlowSpec


def _load_specs(args: argparse.Namespace) -> list[FlowSpec]:
    specs: list[FlowSpec] = []
    for name in args.topology or []:
        specs.append(example_spec(name))
    for path in args.spec or []:
        specs.append(FlowSpec.from_file(path))
    if not specs:
        specs = [example_spec(name) for name in sorted(EXAMPLE_SPECS)]
    names = [spec.name for spec in specs]
    if len(names) != len(set(names)):
        raise ConfigurationError(f"duplicate spec names in {names}")
    return specs


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.flow",
        description=(
            "Symbolic data-plane analysis: push packet sets through "
            "installed FIBs to prove no-escape, isolation, "
            "blackhole-freedom, and loop-freedom."
        ),
    )
    parser.add_argument(
        "--topology",
        action="append",
        metavar="NAME",
        help="analyze a shipped example topology (repeatable; "
        "default: all of them)",
    )
    parser.add_argument(
        "--spec",
        action="append",
        metavar="FILE.json",
        help="analyze a declarative flow-spec file (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the example topologies, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(EXAMPLE_SPECS):
            spec = example_spec(name)
            print(
                f"{name:<12} {len(spec.nodes)} nodes, "
                f"{len(spec.edges) // 2} links, "
                f"{len(spec.zones)} zones, {len(spec.tenants)} tenants"
            )
        return 0

    try:
        specs = _load_specs(args)
        reports = analyze_all(specs)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passed = all(report.passed for report in reports.values())
    document = {
        "passed": passed,
        "specs": {name: report.as_dict() for name, report in reports.items()},
    }

    if args.format == "json":
        rendered = json.dumps(document, indent=1, sort_keys=True) + "\n"
    else:
        lines = []
        for name, report in reports.items():
            verdict = "PROVED" if report.passed else "REFUTED"
            stats = report.stats
            lines.append(
                f"{name:<12} {verdict:<8} "
                f"({stats.get('nodes', '?')} nodes, "
                f"{stats.get('classes', '?')} destination classes)"
            )
            for violation in report.violations:
                lines.append(f"  {violation.format()}")
        lines.append(
            "all properties hold" if passed else "PROPERTY VIOLATIONS"
        )
        rendered = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(rendered)
        if args.format == "text":
            sys.stdout.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
