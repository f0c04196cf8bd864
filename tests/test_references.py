"""Every top-level function and class in ``src/qhbm`` has a program caller.

A definition that only tests reach belongs in ``tests/oracles.py``.  The
walk counts, over the program files in ``src``, ``bench`` and
``scripts``, every ``Name`` and ``Attribute`` node, every import alias,
and every string constant that is an identifier, so that a name the
bench tracer binds through its ``HOOKS`` tuples counts as reached.  The
definition itself is not a reference.  The CLI's ``cmd_*`` functions are
reached through ``main``'s ``globals()`` lookup.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qhbm"
PROGRAM_DIRS = ("src", "bench", "scripts")


def top_level_definitions(tree):
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def referenced_names(tree):
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names[node.value] += 1
    return names


def unreached_definitions():
    """``module.name`` of each top-level definition in the package that no program file names."""
    references = Counter()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            references.update(referenced_names(ast.parse(path.read_text(), str(path))))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in top_level_definitions(ast.parse(path.read_text(), str(path))):
            if path.stem == "cli" and name.startswith("cmd_"):
                continue
            if not references[name]:
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_package_definition_has_a_program_caller():
    assert unreached_definitions() == []


def test_walk_counts_each_kind_of_reference():
    tree = ast.parse(
        "import a.used_by_import as alias\n"
        "from b import used_by_from\n"
        "used_by_name()\n"
        "module.used_by_attribute\n"
        "HOOKS = (('m', 'used_by_string'), 'not.an_identifier')\n"
        "def defined_only(): pass\n"
    )
    names = referenced_names(tree)
    for name in ("used_by_import", "used_by_from", "used_by_name", "used_by_attribute", "used_by_string"):
        assert names[name] == 1, name
    assert names["an_identifier"] == 0
    assert names["defined_only"] == 0
    assert top_level_definitions(tree) == ["defined_only"]
