"""Size ratchet: the Python line count under ``src/`` is a committed number.

``src_lines.json`` beside this file records the total line count of
every ``*.py`` file under ``src/`` (what ``wc -l`` reports).  The test
fails when the tree has *more* lines than the budget, and also when it
has *fewer*: a deletion must lower the committed number in the same
change, so the budget can only ratchet down unless a change raises it
on purpose.

Recount after an intentional change with::

    PYTHONPATH=src python -m tests.budget.test_src_lines
"""

import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BUDGET = Path(__file__).with_name("src_lines.json")


def count_src_lines() -> int:
    """Total newline count over every ``*.py`` file under ``src/``."""
    return sum(
        path.read_bytes().count(b"\n") for path in (REPO / "src").rglob("*.py")
    )


def test_src_line_count_matches_budget():
    budget = json.loads(BUDGET.read_text())["src_python_lines"]
    actual = count_src_lines()
    assert actual == budget, (
        f"src/ has {actual} Python lines, budget says {budget}; "
        f"update {BUDGET.name} in the same change "
        f"({'a deletion lowers' if actual < budget else 'growth raises'} it)"
    )


if __name__ == "__main__":
    BUDGET.write_text(
        json.dumps({"src_python_lines": count_src_lines()}, indent=1) + "\n"
    )
    print(BUDGET.read_text(), end="")
