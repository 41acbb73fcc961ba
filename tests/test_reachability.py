"""The package holds what a run executes: every definition in ``src/dbac_lab``
is reached from the ``dbac-lab`` entry point, ``cli.main``, or from a
module-level statement, which runs on import.

Definitions are the module-level functions, classes and assigned names of each
module but ``__init__``, and the public methods and properties of its classes.
A reached definition reaches, by name, what its body reads: a module-level
name by a ``Name`` or an ``Attribute``, a method only by an ``Attribute``.
Names are matched across modules and classes, so the walk over-approximates
and never misses a caller."""

import ast
from pathlib import Path

import dbac_lab

SRC = Path(dbac_lab.__file__).parent


def _graph():
    """The definitions, as {qualified name: (name, is a method, nodes its
    reaching walks)}, and the root nodes."""
    defs, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                body = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    public = [f for f in stmt.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
                    body = stmt.decorator_list + stmt.bases + [f for f in stmt.body if f not in public]
                    for f in public:
                        defs[f"{path.stem}.{stmt.name}.{f.name}"] = (f.name, True, [f])
                defs[f"{path.stem}.{stmt.name}"] = (stmt.name, False, body)
                if path.stem == "cli" and stmt.name == "main":
                    roots.append(stmt)
                continue
            roots.append(stmt)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name):
                    defs[f"{path.stem}.{t.id}"] = (t.id, False, [])
    return defs, roots


def unreached() -> list[str]:
    """The qualified names of the definitions that no walk reaches."""
    defs, todo = _graph()
    names, attrs, left = set(), set(), dict(defs)
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        for key, (name, method, body) in list(left.items()):
            if name in attrs or (not method and name in names):
                del left[key]
                todo += body
    return sorted(left)


def test_every_definition_is_reached_from_the_entry_point():
    assert unreached() == []
