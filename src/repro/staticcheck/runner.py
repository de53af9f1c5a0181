"""Orchestration: run every static rule over a package and report.

``run_staticcheck`` is the library entry point (the CLI in
``__main__`` is a thin wrapper): load the corpus, build the model, run
the seven AST rules — plus, with ``flow=True``, the two symbolic
data-plane rules (T4/T5) — and fold the findings into a
:class:`~repro.staticcheck.report.StaticReport`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .batchparity import check_batch_parity
from .config import StaticCheckConfig
from .imports import check_import_cycles, check_layer_order, collect_imports
from .isolation import check_foreign_header_fields, check_state_reach
from .loader import load_package
from .model import build_model
from .narrowness import check_interface_widths, check_undeclared_primitives
from .report import ALL_RULES, FLOW_RULES, StaticReport, Violation, build_report


def run_staticcheck(
    root_dir: str | Path,
    config: StaticCheckConfig | None = None,
    base_dir: str | Path | None = None,
    flow: bool = False,
    flow_topologies: Iterable[str] | None = None,
    flow_specs: Iterable[str | Path] = (),
) -> StaticReport:
    """Run all seven static rules over the package at ``root_dir``.

    ``flow=True`` (or any ``flow_specs``) also runs the symbolic
    reachability/isolation analysis and reports its findings under the
    ``flow-reachability`` / ``flow-isolation`` rules.
    """
    config = config if config is not None else StaticCheckConfig()
    corpus = load_package(root_dir)
    edges = collect_imports(corpus)
    model = build_model(corpus)
    violations: list[Violation] = []
    violations += check_layer_order(corpus, edges, config)
    violations += check_import_cycles(corpus, edges)
    violations += check_state_reach(model)
    violations += check_foreign_header_fields(model)
    violations += check_undeclared_primitives(model)
    violations += check_interface_widths(model, config)
    violations += check_batch_parity(model)
    rules = ALL_RULES
    flow_specs = list(flow_specs)
    if flow or flow_specs:
        # Imported here so a plain T1-T3 run never touches the engine.
        from .flowcheck import check_flow_properties

        violations += check_flow_properties(
            # --flow-spec alone analyzes just those files; --flow adds
            # the example topologies (all of them unless named).
            topologies=(flow_topologies if flow else []),
            spec_files=flow_specs,
        )
        rules = ALL_RULES + FLOW_RULES
    return build_report(
        violations,
        checked_modules=len(corpus.modules),
        strict=config.strict,
        base_dir=base_dir,
        rules=rules,
    )
