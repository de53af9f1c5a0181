"""Mechanism census: how many parallel mechanisms ``src/`` still carries.

``census.json`` beside this file records one exact count per entry.
Like the line ratchet in ``test_src_lines.py``, each entry fails when
the tree has *more* than the committed count and also when it has
*fewer*: deleting a mechanism lowers its count in the same change, and
raising one is a deliberate edit of the JSON.

Each entry's definition is the function of the same name below; all of
them read ``src/`` with :mod:`ast` (or plain line counts), never by
importing it.

Recount after an intentional change with::

    PYTHONPATH=src python -m tests.budget.test_census
"""

import ast
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CENSUS = Path(__file__).with_name("census.json")

#: Names of the vector / fused hop mechanisms.
_BATCH_DEF = re.compile(r"(_batch$|^_coalesced$|^fuse_)")
#: Class-name suffixes of the statistics vocabulary.
_STATS_CLASS = re.compile(r"(Counter|Counters|Stats|Meter|Histogram)$")


def _trees(root: Path = SRC):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _has_behaviour(node: ast.ClassDef) -> bool:
    """True if the class defines a method besides dunders and ``as_dict``."""
    return any(
        isinstance(item, ast.FunctionDef)
        and not item.name.startswith("__")
        and item.name != "as_dict"
        for item in node.body
    )


def batch_defs() -> int:
    """Function defs anywhere under ``src/`` named ``*_batch``,
    ``_coalesced`` or ``fuse_*``."""
    return sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and bool(_BATCH_DEF.search(node.name))
        for _, tree in _trees()
        for node in ast.walk(tree)
    )


def topo_conductors() -> int:
    """Module-level ``_run_*`` functions in ``repro/topo/runner.py``."""
    tree = ast.parse((SRC / "repro" / "topo" / "runner.py").read_text())
    return sum(
        isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")
        for node in tree.body
    )


def statistics_classes() -> int:
    """Classes under ``src/`` whose name ends in ``Counter``,
    ``Counters``, ``Stats``, ``Meter`` or ``Histogram`` and that feed or
    query samples: a field record that can only serialise itself
    (``LinkStats``, ``MediumStats``) is one component's books, not a
    statistics type."""
    return sum(
        isinstance(node, ast.ClassDef)
        and bool(_STATS_CLASS.search(node.name))
        and _has_behaviour(node)
        for _, tree in _trees()
        for node in ast.walk(tree)
    )


def scenario_classes() -> int:
    """Classes under ``src/`` whose name ends in ``Scenario``."""
    return sum(
        isinstance(node, ast.ClassDef) and node.name.endswith("Scenario")
        for _, tree in _trees()
        for node in ast.walk(tree)
    )


def main_lines() -> int:
    """Total newline count over every ``__main__.py`` under ``src/``."""
    return sum(
        path.read_bytes().count(b"\n") for path in SRC.rglob("__main__.py")
    )


def acting_as_calls() -> int:
    """Call expressions under ``src/`` whose callee is named ``acting_as``."""
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "acting_as"
        for _, tree in _trees()
        for node in ast.walk(tree)
    )


ENTRIES = {
    fn.__name__: fn
    for fn in (
        batch_defs,
        topo_conductors,
        statistics_classes,
        scenario_classes,
        main_lines,
        acting_as_calls,
    )
}


def test_census_covers_every_entry():
    assert sorted(json.loads(CENSUS.read_text())) == sorted(ENTRIES)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_census_entry_matches(entry):
    committed = json.loads(CENSUS.read_text())[entry]
    actual = ENTRIES[entry]()
    assert actual == committed, (
        f"{entry}: src/ has {actual}, {CENSUS.name} says {committed}; "
        "update it in the same change"
    )


if __name__ == "__main__":
    CENSUS.write_text(
        json.dumps({name: fn() for name, fn in ENTRIES.items()}, indent=1) + "\n"
    )
    print(CENSUS.read_text(), end="")
