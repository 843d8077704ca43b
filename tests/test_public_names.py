"""Every public name of the library has a user.

A public name is a module-level function, class or constant of
``src/preqlat/``, or a method or property of a public class, whose name
does not start with an underscore.  It is reached when it is read (as a
name or an attribute; importing or assigning it is not a read) in
``cli.py``, in the README's library example, in the module-level code of
a library module, or in the body of a function or class that is itself
reached; the dunder methods of a reached class run implicitly.  Names match by their last component, so two functions of
one name reach each other's callers: the guard errs towards passing.
A name that no such path reaches is dead or test-only code and must go,
to ``tests/util.py`` if tests need it, unless it is listed below with
its reason.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "preqlat")

# the names bench/tracer.py looks up by name, and what only they use
EXCEPTIONS = {
    "intlinalg.solve_in_lattice": "bench/tracer.py LAYERS wraps it; no library caller",
    "intlinalg.int_inverse": "bench/tracer.py LAYERS wraps it; no library caller",
    "intlinalg.mat_vec": "only solve_in_lattice calls it",
    "intlinalg.SmithDecomposition.uinv": "the tracer's Smith hook and int_inverse read it",
    "cohomring.DegreeData.torsion_reps":
        "the tracer's integral_cohomology hook reads it for rep_max_bits",
    "toruscalc.trig.TrigPoly.diff": "bench/tracer.py LAYERS wraps it; no library caller",
}


def _uses(nodes):
    """Names and attributes read in the given nodes.  An import or an
    assignment target is not a read, so a re-export or a constant that
    nothing reads reaches nothing."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
    return out


def _modules():
    out = {}
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                dotted = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
                with open(path) as fh:
                    out[dotted.removesuffix(".__init__")] = ast.parse(fh.read())
    return out


def _readme_example():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    return re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)


def _public_and_reached(modules):
    public = {}             # "module.Name" or "module.Class.name" -> last component
    bodies = {}             # last component -> the nodes its use reaches
    roots = _uses([ast.parse(_readme_example())])
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if mod == "cli":
                    roots |= _uses([node])
                if not node.name.startswith("_"):
                    public[f"{mod}.{node.name}"] = node.name
                reach = [node] if isinstance(node, ast.FunctionDef) else [
                    *node.bases, *node.decorator_list,
                    *(sub for sub in node.body
                      if not isinstance(sub, ast.FunctionDef) or sub.name.startswith("__"))]
                bodies.setdefault(node.name, []).extend(reach)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef):
                            if not (node.name.startswith("_") or sub.name.startswith("_")):
                                public[f"{mod}.{node.name}.{sub.name}"] = sub.name
                            bodies.setdefault(sub.name, []).append(sub)
            else:
                roots |= _uses([node])
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        public[f"{mod}.{target.id}"] = target.id
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_uses(bodies.get(name, ())) - reached)
    return public, reached


def test_every_public_name_is_reached():
    public, reached = _public_and_reached(_modules())
    unreached = {qual for qual, name in public.items() if name not in reached}
    assert unreached - set(EXCEPTIONS) == set(), "unreached public names"
    # every exception names a public name that still needs it
    assert set(EXCEPTIONS) <= set(public)
    assert set(EXCEPTIONS) <= unreached, "listed, but reached"


def test_guard_sees_a_test_only_name():
    """A public function that only a test would call is caught, even
    when a package re-exports it, and so is a constant nothing reads; one
    called from a reached function is not."""
    modules = _modules()
    modules["extra"] = ast.parse(
        "def only_tests():\n    return 1\n\n"
        "def helper():\n    return 2\n\n"
        "UNREAD = (1, 2)\n")
    modules["extra_package"] = ast.parse("from .extra import only_tests\n")
    modules["cli"].body.append(ast.parse("def entry():\n    return helper()\n").body[0])
    public, reached = _public_and_reached(modules)
    assert "only_tests" not in reached and "UNREAD" not in reached
    assert public["extra.UNREAD"] == "UNREAD"
    assert "helper" in reached and "entry" in reached
