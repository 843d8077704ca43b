"""Every public name of the library has a user.

A public name is a module-level function, class or constant of
``src/preqlat/``, or a method or property of a public class, whose name
does not start with an underscore.  It is reached when it is read (as a
name or an attribute; importing or assigning it is not a read) in
``cli.py``, in the README's library example, in the module-level code of
a library module, or in the body of a function or class that is itself
reached; the dunder methods of a reached class run implicitly.

A read of a module-level name resolves through the reading module: to
its own definition of that name, or through its imports (``from .x
import f``, and ``lin.f`` for a module imported as ``lin``) to the
module that defines it, so two modules' functions of one name do not
reach each other's callers.  A name that resolves to no module-level
definition (a local variable, a builtin) reaches nothing, so a local
``d`` does not reach a method ``d``.  Methods and properties are read as
attributes of values the guard cannot type, so they match by their last
component: there the guard errs towards passing.  A name that no such
path reaches is dead or test-only code and must go, to
``tests/util.py`` if tests need it, unless it is listed below with its
reason.

Every parameter with a default is passed, positionally or by keyword,
by some call in the library or in the README's library example, so no
knob has only one value in use.  Calls match functions by their last
name component, and ``C(...)`` matches ``C.__init__``; there too the
guard errs towards passing.  The same rule holds for the helpers of
``tests/util.py``, against the calls in ``tests/``.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "preqlat")
PACKAGE = "preqlat"
ROOT_MODULE = "__init__"    # the key of the package's own __init__.py

# the names bench/tracer.py looks up by name, and what only they use
EXCEPTIONS = {
    "intlinalg.solve_in_lattice": "bench/tracer.py LAYERS wraps it; no library caller",
    "intlinalg.int_inverse": "bench/tracer.py LAYERS wraps it; no library caller",
    "intlinalg.mat_vec": "only solve_in_lattice calls it",
    "intlinalg.SmithDecomposition.uinv": "the tracer's Smith hook and int_inverse read it",
    "intlinalg.SmithDecomposition.d": "bench/tracer.py's Smith hook reads it",
    "intlinalg.SmithDecomposition.u": "bench/tracer.py's Smith hook reads it",
    "intlinalg.SmithDecomposition.v": "bench/tracer.py's Smith hook reads it",
    "cohomring.DegreeData.torsion_reps":
        "the tracer's integral_cohomology hook reads it for rep_max_bits",
}


# parameters with a default that no library call passes, with the reason
UNPASSED_DEFAULTS = {
    "cli.main(argv)": "main is the entry point; the console script passes no argv",
}


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


class _Scopes:
    """What each module's names mean: its own module-level definitions,
    the names it imports from library modules, and its module aliases."""

    def __init__(self, modules):
        self.modules = modules
        self.defined = {mod: _definitions(tree) for mod, tree in modules.items()}
        self.imported = {}      # module -> {local name: (source module, name)}
        self.aliases = {}       # module -> {local name: module}
        for mod, tree in modules.items():
            self.add_imports(mod, tree)

    def add_imports(self, mod, tree):
        imported, aliases = self.imported.setdefault(mod, {}), self.aliases.setdefault(mod, {})
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = self._base(mod, node)
            if base is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                sub = f"{base}.{alias.name}".lstrip(".")
                if sub in self.modules:
                    aliases[local] = sub
                else:
                    imported[local] = (base or ROOT_MODULE, alias.name)

    def _base(self, mod, node):
        """The dotted library module an import reads from ("" for the
        package itself), or None for a module outside the library."""
        if node.level == 0:
            name = node.module or ""
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                return None
            return name[len(PACKAGE) + 1:]
        if mod == ROOT_MODULE:
            package = ""
        elif any(other.startswith(mod + ".") for other in self.modules):
            package = mod
        else:
            package = mod.rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return f"{package}.{node.module}".strip(".") if node.module else package

    def resolve(self, mod, name):
        """"module.name" of the module-level definition that ``name`` means
        in ``mod``, or None for a local, a builtin or an outside name."""
        for _ in range(len(self.modules) + 1):      # an import chain ends
            if name in self.defined.get(mod, ()):
                return f"{mod}.{name}"
            if name not in self.imported.get(mod, {}):
                return None
            mod, name = self.imported[mod][name]
        return None

    def uses(self, mod, nodes):
        """What the given nodes of ``mod`` read: "module.name" for a
        module-level name, the bare name for an attribute; any other name
        (a local, a builtin) reads nothing the guard tracks."""
        out = set()
        aliases = self.aliases.get(mod, {})
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    out.add(self.resolve(mod, sub.id))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                    if owner in aliases:
                        out.add(self.resolve(aliases[owner], sub.attr))
                    else:
                        out.add(sub.attr)
        out.discard(None)
        return out


def _definitions(tree):
    """The names a module defines at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _public_and_reached(modules):
    """The public names, each with the key a read of it adds ("module.name"
    at module level, the bare name for a method), and the keys reached."""
    scopes = _Scopes(modules)
    public = {}             # "module.Name" or "module.Class.name" -> key
    bodies = {}             # key -> [(module, nodes its use reaches)]
    readme = ast.parse(_readme_example())
    scopes.add_imports("<readme>", readme)
    roots = scopes.uses("<readme>", [readme])
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{mod}.{node.name}"
                if mod == "cli":
                    roots |= scopes.uses(mod, [node])
                if not node.name.startswith("_"):
                    public[key] = key
                reach = [node] if isinstance(node, ast.FunctionDef) else [
                    *node.bases, *node.decorator_list,
                    *(sub for sub in node.body
                      if not isinstance(sub, ast.FunctionDef) or sub.name.startswith("__"))]
                bodies.setdefault(key, []).append((mod, reach))
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef):
                            if not (node.name.startswith("_") or sub.name.startswith("_")):
                                public[f"{key}.{sub.name}"] = sub.name
                            bodies.setdefault(sub.name, []).append((mod, [sub]))
            else:
                roots |= scopes.uses(mod, [node])
                for name in _definitions(ast.Module(body=[node], type_ignores=[])):
                    if not name.startswith("_"):
                        public[f"{mod}.{name}"] = f"{mod}.{name}"
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            for mod, nodes in bodies.get(key, ()):
                todo.extend(scopes.uses(mod, nodes) - reached)
    return public, reached


def test_every_public_name_is_reached():
    public, reached = _public_and_reached(_modules())
    unreached = {qual for qual, key in public.items() if key not in reached}
    assert unreached - set(EXCEPTIONS) == set(), "unreached public names"
    # every exception names a public name that still needs it
    assert set(EXCEPTIONS) <= set(public)
    assert set(EXCEPTIONS) <= unreached, "listed, but reached"


def test_guard_sees_a_test_only_name():
    """A public function that only a test would call is caught, even
    when a package re-exports it, and so is a constant nothing reads and
    a method whose name only a local variable shares; a function called
    from a reached function is not, and its namesake in another module is
    not reached by that call."""
    modules = _modules()
    modules["extra"] = ast.parse(
        "def only_tests():\n    return 1\n\n"
        "def helper():\n    return 2\n\n"
        "class Box:\n    def peek(self):\n        return 4\n\n"
        "UNREAD = (1, 2)\n")
    modules["extra_package"] = ast.parse("from .extra import only_tests\n")
    modules["extra_twin"] = ast.parse("def helper():\n    return 3\n")
    modules["cli"].body.extend(ast.parse(
        "from .extra import Box, helper\n\n"
        "def entry():\n    peek = helper()\n    return Box, peek\n").body)
    public, reached = _public_and_reached(modules)
    assert "extra.only_tests" not in reached and "extra.UNREAD" not in reached
    assert public["extra.UNREAD"] == "extra.UNREAD"
    assert "extra.helper" in reached and "cli.entry" in reached
    assert "extra_twin.helper" not in reached
    assert "extra.Box" in reached and public["extra.Box.peek"] not in reached



def _defaulted(owner, node):
    """(parameter, the position a call passes it at, or None) of each
    parameter of a function with a default; positions skip ``self`` or
    ``cls`` of a method."""
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    skip = 1 if owner and not static else 0
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    return out + [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _unpassed_defaults(modules):
    """"module.function(param)" of every parameter with a default that no
    call in the library or the README example passes.  An argument that
    is a defaulted parameter of the calling function forwards it, and
    passes a value only when that parameter is passed itself."""
    params = {}         # key -> (call name, position, parameter)
    calls = {}          # call name -> [(sources by position, sources by keyword)]

    def visit(mod, node, owner, scope):
        def source(arg):
            # the key of the parameter an argument forwards, None for any
            # other value
            return scope.get(arg.id) if isinstance(arg, ast.Name) else None

        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(mod, sub, sub.name, {})
            elif isinstance(sub, ast.FunctionDef):
                qual = f"{mod}.{owner + '.' if owner else ''}{sub.name}"
                name = owner if owner and sub.name == "__init__" else sub.name
                inner = {}
                for param, index in _defaulted(owner, sub):
                    inner[param] = f"{qual}({param})"
                    params[inner[param]] = (name, index, param)
                visit(mod, sub, None, inner)
            else:
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    # ast.Starred marks a *args, which fills every later position
                    args = [ast.Starred if isinstance(a, ast.Starred) else source(a)
                            for a in sub.args]
                    kws = {k.arg: source(k.value) for k in sub.keywords}
                    calls.setdefault(name, []).append((args, kws))
                visit(mod, sub, owner, scope)

    for mod, tree in modules.items():
        visit(mod, tree, None, {})
    visit("<readme>", ast.parse(_readme_example()), None, {})

    def sources(name, index, param):
        for args, kws in calls.get(name, ()):
            if index is not None:
                if ast.Starred in args[:index + 1]:
                    yield None
                elif index < len(args):
                    yield args[index]
            if param in kws:
                yield kws[param]
            if None in kws:                 # **kwargs
                yield None

    passed, grew = set(), True
    while grew:
        grew = False
        for key, (name, index, param) in params.items():
            if key not in passed and any(s is None or s in passed
                                         for s in sources(name, index, param)):
                passed.add(key)
                grew = True
    return set(params) - passed


def test_every_default_is_passed():
    assert _unpassed_defaults(_modules()) == set(UNPASSED_DEFAULTS)


def test_every_helper_default_is_passed():
    tests = os.path.dirname(os.path.abspath(__file__))
    modules = {}
    for name in os.listdir(tests):
        if name.endswith(".py"):
            with open(os.path.join(tests, name)) as fh:
                modules[name[:-3]] = ast.parse(fh.read())
    assert {key for key in _unpassed_defaults(modules) if key.startswith("util.")} == set()


def test_default_guard_sees_an_unpassed_default():
    """A default no call passes is caught, in a function and in a
    constructor, and so is one only forwarded from an unpassed default;
    one passed positionally past ``self``, by keyword, through ``C(...)``
    or forwarded from a passed default is not."""
    modules = _modules()
    modules["extra"] = ast.parse(
        "def knob(a, b=1, *, c=2):\n    return a\n\n"
        "class Box:\n    def __init__(self, x, y=0, z=0):\n        self.x = x\n\n"
        "    def peek(self, k=1):\n        return k\n\n"
        "def outer(a, k=1, j=2):\n    return inner(a, k, j)\n\n"
        "def inner(a, k=1, j=2):\n    return a\n\n"
        "def use():\n    return knob(1, c=3), Box(1, 2).peek(5), outer(1, j=3)\n")
    assert _unpassed_defaults(modules) - set(UNPASSED_DEFAULTS) == {
        "extra.knob(b)", "extra.Box.__init__(z)", "extra.outer(k)", "extra.inner(k)"}
