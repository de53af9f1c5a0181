"""Local mirror of CI's ruff D1xx gate over the public-API modules.

CI runs ``ruff check --select D100,D101,D102,D103`` over the modules
listed below; ruff is not a runtime dependency, so
this test enforces the same contract with ``ast`` and keeps the gate
honest in environments without ruff installed.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: The documented public-API surface (keep in sync with the ruff
#: invocation in .github/workflows/ci.yml).
SCOPED_MODULES = [
    "src/repro/core/stack.py",
    "src/repro/core/sublayer.py",
    "src/repro/compose/builder.py",
    "src/repro/verify/lemma.py",
    "src/repro/verify/__main__.py",
    "src/repro/faults/schedule.py",
    "src/repro/faults/scenarios.py",
    "src/repro/faults/__main__.py",
    "src/repro/topo/campaign.py",
    "src/repro/flow/sets.py",
    "src/repro/flow/spec.py",
    "src/repro/flow/transfer.py",
    "src/repro/flow/reach.py",
    "src/repro/flow/properties.py",
    "src/repro/flow/report.py",
]


def is_public(name):
    return not name.startswith("_") or name == "__init__"


def missing_docstrings(path):
    """(code, qualname) pairs for every D100–D103 violation in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append(("D100", path.name))

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if is_public(child.name) and ast.get_docstring(child) is None:
                    problems.append(("D101", f"{prefix}{child.name}"))
                visit(child, f"{prefix}{child.name}.", in_class=True)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if is_public(child.name) and ast.get_docstring(child) is None:
                    code = "D102" if in_class else "D103"
                    problems.append((code, f"{prefix}{child.name}"))
                visit(child, f"{prefix}{child.name}.", in_class=False)

    visit(tree, "", in_class=False)
    return problems


@pytest.mark.parametrize("module", SCOPED_MODULES)
def test_public_api_fully_docstringed(module):
    problems = missing_docstrings(REPO / module)
    assert not problems, (
        f"{module}: missing docstrings (pydocstyle D1xx): {problems}"
    )


def test_scope_list_is_current():
    for module in SCOPED_MODULES:
        assert (REPO / module).exists(), f"stale scope entry: {module}"
