"""Size ratchet: the Python line count under ``src/`` is a committed number.

``src_lines.json`` beside this file records the total line count of
every ``*.py`` file under ``src/`` (what ``wc -l`` reports), and the
same count per package: ``repro`` for the modules directly in
``src/repro/``, ``repro.<name>`` for everything under each
subpackage.  Each test fails when the tree has *more* lines than the
budget, and also when it has *fewer*: a deletion must lower the
committed numbers in the same change, so the budget can only ratchet
down unless a change raises it on purpose.

Recount after an intentional change with::

    PYTHONPATH=src python -m tests.budget.test_src_lines
"""

import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BUDGET = Path(__file__).with_name("src_lines.json")


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def count_src_lines() -> int:
    """Total newline count over every ``*.py`` file under ``src/``."""
    return sum(_lines(path) for path in (REPO / "src").rglob("*.py"))


def count_package_lines() -> dict[str, int]:
    """Newline count per top-level package of ``src/repro``."""
    root = REPO / "src" / "repro"
    counts: dict[str, int] = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).parts
        package = "repro" if len(parts) == 1 else f"repro.{parts[0]}"
        counts[package] = counts.get(package, 0) + _lines(path)
    return dict(sorted(counts.items()))


def test_src_line_count_matches_budget():
    budget = json.loads(BUDGET.read_text())["src_python_lines"]
    actual = count_src_lines()
    assert actual == budget, (
        f"src/ has {actual} Python lines, budget says {budget}; "
        f"update {BUDGET.name} in the same change "
        f"({'a deletion lowers' if actual < budget else 'growth raises'} it)"
    )


def test_package_line_counts_match_budget():
    budget = json.loads(BUDGET.read_text())["packages"]
    actual = count_package_lines()
    drift = {
        package: (budget.get(package), actual.get(package))
        for package in sorted(set(budget) | set(actual))
        if budget.get(package) != actual.get(package)
    }
    assert not drift, (
        f"package line counts differ from {BUDGET.name} "
        f"(package: (budget, actual)): {drift}; update it in the same change"
    )


if __name__ == "__main__":
    BUDGET.write_text(
        json.dumps(
            {
                "src_python_lines": count_src_lines(),
                "packages": count_package_lines(),
            },
            indent=1,
        )
        + "\n"
    )
    print(BUDGET.read_text(), end="")
