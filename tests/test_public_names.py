"""Every name the package re-exports has a user outside the tests.

A name that only tests load is test scaffolding, not API; it belongs in
tests/helpers.py. A user is a module of the package other than
`__init__.py`, or a module of the benchmark in `perfbench/`, that loads the
name as a plain name or as an attribute.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "velofusion"


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _loaded(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    assert len(users) > 2 and len(_exported()) > 10  # both globs found their files
    loaded = set().union(*(_loaded(p) for p in users))
    assert sorted(_exported() - loaded) == []
