"""The T4/T5 bridge: symbolic flow analysis as staticcheck rules.

``--flow`` extends the checker's scope from the *source* discipline
(T1–T3, decided over ASTs) to the *data-plane* discipline: the
``repro.flow`` engine proves no-escape, blackhole-freedom, and
loop-freedom (rule ``flow-reachability``, litmus T4) and tenant
isolation (rule ``flow-isolation``, litmus T5) over forwarding-plane
snapshots — the shipped example topologies by default, plus any
declarative spec files the caller names.  Each refuted property becomes
one ordinary :class:`~repro.staticcheck.report.Violation`, so every
downstream consumer (text/json/github emitters, CI, ``require()``)
handles static and symbolic findings identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..flow.examples import EXAMPLE_SPECS, example_spec
from ..flow.properties import analyze_all
from ..flow.report import FlowViolation
from ..flow.spec import FlowSpec
from .report import ERROR, Violation

#: property -> staticcheck rule (the T4 family vs the T5 rule).
PROPERTY_RULES: dict[str, str] = {
    "no-escape": "flow-reachability",
    "blackhole-freedom": "flow-reachability",
    "loop-freedom": "flow-reachability",
    "isolation": "flow-isolation",
}


def flow_violation_to_static(
    violation: FlowViolation, path: str
) -> Violation:
    """One refuted property as an ordinary staticcheck finding.

    ``path`` anchors the finding at what the analyzer actually read —
    the spec file, or a ``topology:<name>`` pseudo-path for built-in
    examples (line 0: properties are spec-wide, not positional).
    """
    where = (
        f"node {violation.node}" if violation.node is not None else "spec"
    )
    return Violation(
        rule=PROPERTY_RULES[violation.property],
        severity=ERROR,
        module=violation.spec,
        path=path,
        line=0,
        message=f"[{violation.property}] {where}: {violation.message}",
    )


def check_flow_properties(
    topologies: Iterable[str] | None = None,
    spec_files: Iterable[str | Path] = (),
) -> list[Violation]:
    """Run the symbolic engine; return T4/T5 findings as violations.

    ``topologies`` names example specs (default: all of them);
    ``spec_files`` adds declarative snapshots from disk.
    """
    names = sorted(EXAMPLE_SPECS) if topologies is None else list(topologies)
    sources: list[tuple[FlowSpec, str]] = []
    for name in names:
        sources.append((example_spec(name), f"topology:{name}"))
    for file in spec_files:
        sources.append((FlowSpec.from_file(file), str(file)))

    paths = {spec.name: path for spec, path in sources}
    reports = analyze_all([spec for spec, _ in sources])
    violations: list[Violation] = []
    for name, report in reports.items():
        for violation in report.violations:
            violations.append(
                flow_violation_to_static(violation, paths[name])
            )
    return violations
