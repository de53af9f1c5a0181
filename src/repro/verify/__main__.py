"""``python -m repro.verify`` — prove framing lemma libraries from the shell.

Builds the Section-4.1 lemma library for each requested stuffing rule
and proves them all through :func:`repro.verify.lemma.prove_libraries`.
The report JSON is canonical — no wall-clock fields, results sorted by
lemma name — so two runs of the same command produce identical bytes.

Examples::

    python -m repro.verify                         # HDLC + low-overhead
    python -m repro.verify --rule hdlc --max-len 10
    python -m repro.verify --rule 00000010:0000001:1

Exit status is 0 iff every lemma of every library proved.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from ..core.bits import Bits
from ..datalink.framing.lemmas import build_framing_library
from ..datalink.framing.rules import HDLC_RULE, LOW_OVERHEAD_RULE, StuffingRule
from .lemma import prove_libraries

#: Named rules accepted by ``--rule``.
NAMED_RULES: dict[str, StuffingRule] = {
    "hdlc": HDLC_RULE,
    "low-overhead": LOW_OVERHEAD_RULE,
}


def parse_rule(spec: str) -> StuffingRule:
    """Parse a ``--rule`` value: a name or a ``flag:trigger:stuff`` triple."""
    if spec in NAMED_RULES:
        return NAMED_RULES[spec]
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"rule must be one of {sorted(NAMED_RULES)} or "
            f"'flag:trigger:stuff_bit' (e.g. 01111110:11111:0), got {spec!r}"
        )
    flag, trigger, stuff = parts
    try:
        return StuffingRule(
            flag=Bits.from_string(flag),
            trigger=Bits.from_string(trigger),
            stuff_bit=int(stuff),
        )
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"bad rule {spec!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.verify`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Prove the Section-4.1 framing lemma libraries."
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        type=parse_rule,
        metavar="RULE",
        help=(
            "stuffing rule to verify: a name (hdlc, low-overhead) or a "
            "flag:trigger:stuff_bit triple; repeatable "
            "(default: hdlc and low-overhead)"
        ),
    )
    parser.add_argument(
        "--max-len",
        type=int,
        default=9,
        help="bound for the exhaustive bit-string domains (default: 9)",
    )
    parser.add_argument(
        "--out",
        type=argparse.FileType("w"),
        default=sys.stdout,
        help="write the JSON report here (default: stdout)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    rules = args.rule or [HDLC_RULE, LOW_OVERHEAD_RULE]

    libraries = [
        build_framing_library(rule, max_len=args.max_len) for rule in rules
    ]
    reports = prove_libraries(libraries)

    payload = {
        "max_len": args.max_len,
        "proved": all(report.proved for report in reports.values()),
        "libraries": {name: report.as_dict() for name, report in reports.items()},
    }

    json.dump(payload, args.out, indent=1, sort_keys=True)
    args.out.write("\n")
    return 0 if payload["proved"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
