"""The package holds what a run executes and computes only what a run reads:
every definition in ``src/dbac_lab`` is reached from the ``dbac-lab`` entry
point, ``cli.main``, or from a module-level statement, which runs on import,
every field of its dataclasses and ``NamedTuple`` classes is read by reached
code, and every option of reached code is set by a reached call.

Definitions are the module-level functions, classes and assigned names of each
module but ``__init__``, and the public methods and properties of its classes.
A reached definition reaches, by name, what its body reads: a module-level
name by a ``Name`` or an ``Attribute``, a method only by an ``Attribute``.
Names are matched across modules and classes, so the walk over-approximates
and never misses a caller.

Fields are the annotated names in the body of a class decorated with
``dataclass`` or derived from ``NamedTuple``.  A field is read when reached
code loads it as an ``Attribute``, matched by name as above, outside its own
class's ``__post_init__``: a field that only its validation reads is computed
for nothing.

Options are the parameters with a default of the module-level functions and
the methods of each class, dunder methods aside (their calls go through
instances, not names), and the fields with a default of its dataclasses and
``NamedTuple`` classes.  An option of reached code is set when a reached call,
matched by name as above, passes it by keyword or by position, or passes
``*`` or ``**`` arguments: an option that no run sets holds one value, a
constant.

Statements are those of function bodies, docstrings aside.  A child process
traces ``cli.main`` from before ``dbac_lab`` is imported, so that what runs on
import counts, over every run that CI makes, the list in ``tests/runs.py``:
every experiment at its default config, every config it reruns and every case
it rejects.  A statement runs when a line of it, decorators included, runs; a
``raise`` is a guard and need not run."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import dbac_lab

import runs

SRC = Path(dbac_lab.__file__).resolve().parent

# fields no run reads, each kept for the reason given
UNREAD_BY_DESIGN = {
    "cli.ExperimentConfig.workers": "perfbench writes `workers = 1` into every config it runs",
}

# options no run sets, each kept for the reason given
UNSET_BY_DESIGN = {
    "cli.main(argv)": "the console script passes none, and the tests pass one",
}

# statements no run executes, each kept for the reason given
UNRUN_BY_DESIGN = {
    "cli._environment: blas = {}": "numpy < 1.26 only prints its config, and pyproject.toml allows numpy >= 1.24",
}


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated with ``dataclass`` or derives from ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases
    )


def _parameter_options(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each parameter of ``fn`` with a default,
    the position counted among a call's positional arguments: for a method
    that is not static, after ``self`` or ``cls``."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], first - skip):
        yield arg.arg, i
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _graph():
    """The definitions, as {qualified name: (name, is a method, nodes its
    reaching walks)}; the fields, as {qualified name: name}; the options, as
    {qualified name: (the definition whose reaching makes it count, the name
    its callers call, its name, its position)}; each record class's
    ``__post_init__`` node, mapped to the class's qualified name; and the root
    nodes."""
    defs, fields, options, post_inits, roots = {}, {}, {}, {}, []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                qualified = f"{path.stem}.{stmt.name}"
                body = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    public = [f for f in stmt.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
                    body = stmt.decorator_list + stmt.bases + [f for f in stmt.body if f not in public]
                    for f in public:
                        defs[f"{qualified}.{f.name}"] = (f.name, True, [f])
                    record = _is_record(stmt)
                    for f in stmt.body:
                        if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__")):
                            owner = f"{qualified}.{f.name}" if f in public else qualified
                            for name, pos in _parameter_options(f, method=True):
                                options[f"{qualified}.{f.name}({name})"] = (owner, f.name, name, pos)
                        elif record and isinstance(f, ast.FunctionDef) and f.name == "__post_init__":
                            post_inits[f] = qualified
                    annotated = [f for f in stmt.body if isinstance(f, ast.AnnAssign)] if record else []
                    for pos, f in enumerate(f for f in annotated if isinstance(f.target, ast.Name)):
                        fields[f"{qualified}.{f.target.id}"] = f.target.id
                        if f.value is not None:
                            options[f"{qualified}.{f.target.id}"] = (qualified, stmt.name, f.target.id, pos)
                else:
                    for name, pos in _parameter_options(stmt, method=False):
                        options[f"{qualified}({name})"] = (qualified, stmt.name, name, pos)
                defs[qualified] = (stmt.name, False, body)
                if path.stem == "cli" and stmt.name == "main":
                    roots.append(stmt)
                continue
            roots.append(stmt)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name):
                    defs[f"{path.stem}.{t.id}"] = (t.id, False, [])
    return defs, fields, options, post_inits, roots


def _sets(call: ast.Call, name: str, pos) -> bool:
    """Whether ``call`` passes the option ``name``, at position ``pos``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, name) for k in call.keywords):
        return True
    return pos is not None and len(call.args) > pos


def _walk() -> tuple[list[str], list[str], list[str]]:
    """The qualified names of the definitions that no walk reaches, of the
    fields that no reached code outside their class's ``__post_init__`` loads,
    and of the options of reached code that no reached call sets."""
    defs, fields, options, post_inits, todo = _graph()
    names, attrs, loads, calls, left = set(), set(), {}, {}, dict(defs)
    while todo:
        node = todo.pop()
        owner = post_inits.get(node)  # loads here do not read the owner's fields
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
                if isinstance(n.ctx, ast.Load):
                    loads.setdefault(n.attr, set()).add(owner)
            elif isinstance(n, ast.Call):
                callee = getattr(n.func, "id", getattr(n.func, "attr", None))
                calls.setdefault(callee, []).append(n)
        for key, (name, method, body) in list(left.items()):
            if name in attrs or (not method and name in names):
                del left[key]
                todo += body
    unread = [key for key, name in fields.items() if not loads.get(name, set()) - {key.rsplit(".", 1)[0]}]
    unset = [
        key
        for key, (owner, callee, name, pos) in options.items()
        if owner not in left and not any(_sets(c, name, pos) for c in calls.get(callee, ()))
    ]
    return sorted(left), sorted(unread), sorted(unset)


def test_every_definition_is_reached_from_the_entry_point():
    assert _walk()[0] == []


def test_every_field_is_read_by_a_run():
    assert _walk()[1] == sorted(UNREAD_BY_DESIGN)


def test_every_option_is_set_by_a_run():
    assert _walk()[2] == sorted(UNSET_BY_DESIGN)


# the child: traces the package's lines from before its import, makes each run
# and prints its exit code and stderr, then the lines that ran
_TRACED_RUNS = """
import json, sys
import numpy, runs  # not the package: untraced
src, argvs = json.load(sys.stdin)
hits = set()
def line(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return line
def call(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(src) else None
sys.settrace(call)
ends = runs.in_process(argvs)
sys.settrace(None)
json.dump([ends, sorted(hits)], sys.stdout)
"""


def _function_statements(tree: ast.Module):
    """(qualified name of its function, statement) for every statement of a
    function body in ``tree``, docstrings aside."""
    docstrings = {
        id(n.body[0])
        for n in ast.walk(tree)
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant)
        and isinstance(n.body[0].value.value, str)
    }

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and id(child) not in docstrings:
                yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}", in_function or isinstance(child, ast.FunctionDef))
            else:
                yield from visit(child, scope, in_function)

    yield from visit(tree, "", False)


def test_every_statement_runs(tmp_path):
    runs.prepare(tmp_path)
    spec = [str(SRC), [run.argv for run in runs.RUNS]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(Path(runs.__file__).parent)]))
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS], input=json.dumps(spec), cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    ends, hits = json.loads(child.stdout)
    for run, (got, err) in zip(runs.RUNS, ends, strict=True):  # each run ends as CI requires
        assert got == run.status and re.match(run.stderr, err), (run.argv, err)
    ran = {(Path(f).stem, n) for f, n in hits}
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for scope, stmt in _function_statements(ast.parse("\n".join(lines))):
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            if not isinstance(stmt, ast.Raise) and not any(
                (path.stem, n) in ran for n in range(first, stmt.end_lineno + 1)
            ):
                unrun.append(f"{path.stem}{scope}: {lines[stmt.lineno - 1].strip()}")
    assert unrun == sorted(UNRUN_BY_DESIGN)
