"""Dead-surface check: every name ``src/dta`` defines must be read somewhere.

Each function, class and method defined in ``src/dta/*.py`` (dunders aside)
has to appear as a whole word at least twice across the Python files of
``src/``, ``bench/`` and ``scripts/``: once where it is defined and once where
something uses it.  A name read only by tests is surface kept for the tests'
sake; delete it, or list it in ``KEPT`` with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from dta import counters, hashing, keywrite, memstore, postcarding, sim, wire

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "staged_count": "append batches left staged at the end of a run will read it",
    "occupancy": "postcard rows left cached at the end of a run will read it",
}


def defined_names() -> dict[str, str]:
    """Function, class and method names of ``src/dta`` -> the file defining each."""
    names = {}
    for path in sorted((ROOT / "src" / "dta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.setdefault(node.name, path.name)
    return names


def word_counts() -> Counter:
    counts = Counter()
    for top in ("src", "bench", "scripts"):
        for path in (ROOT / top).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def test_every_defined_name_is_read_outside_tests():
    counts = word_counts()
    unread = {name: where for name, where in defined_names().items()
              if counts[name] < 2 and name not in KEPT}
    assert unread == {}


def test_kept_names_are_defined_and_still_unread():
    """A kept name that gains a reader, or goes, leaves ``KEPT``."""
    counts = word_counts()
    assert set(KEPT) <= set(defined_names())
    assert [name for name in KEPT if counts[name] >= 2] == []


ENUMS = {"Kind", "Outcome", "QueryPolicy", "EmissionReason", "Domain"}


@pytest.mark.parametrize("fn", [
    wire.encode, wire.decode, memstore.apply_verb, sim.Collector.apply, sim.Translator.receive,
    sim.Translator.apply, sim.Translator._apply, counters.ki_increment, keywrite.kw_query,
    hashing.HashFamily.key_checksum, hashing.HashFamily.cache_slot, postcarding.pc_ingest,
    postcarding.pc_query,
], ids=lambda fn: fn.__qualname__)
def test_per_report_paths_read_no_enum_member(fn):
    """On Python 3.11 reading an enum member costs about 100 ns; these read module constants."""
    assert ENUMS.isdisjoint(fn.__code__.co_names)
