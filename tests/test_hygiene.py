"""Source hygiene, read with the stdlib ``ast``: no unused import in the
package or its tests, no private module-level function or class that
nothing in the package references, no public one that neither the rest of
the package nor the benchmark reads, no public method or property that
nothing outside it reads as an attribute, no defaulted parameter that no
call passes, no parameter that its function never reads, no error class
that no other module raises, and no package line wider than
``MAX_COLUMNS``."""

import ast
from collections import Counter
from pathlib import Path

import metrika

# the package's line count is tracked as a size measure; a width cap keeps
# it from falling merely because code is packed into longer lines
MAX_COLUMNS = 96
PACKAGE = Path(metrika.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
TESTS = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(Path(__file__).parent.glob("*.py"))}
# every caller of the package: its source tree, its tests and the benchmark
CALLERS = [ast.parse(path.read_text(), str(path))
           for folder in ("src", "tests", "perfbench")
           for path in sorted((Path(__file__).parent.parent / folder).rglob("*.py"))]


def code_names(node) -> set[str]:
    """Every name node reads in code: bare names, attributes and names
    imported from another module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def names_read(node) -> set[str]:
    """``code_names``, and identifiers written as strings (annotations and
    ``__all__``)."""
    strings = {word for sub in ast.walk(node)
               if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
               for word in sub.value.replace(".", " ").split()}
    return code_names(node) | strings


def test_no_unused_imports():
    unused = []
    # the package's own __init__ imports are its exports
    sources = [(f"metrika/{name}", tree) for name, tree in MODULES.items() if name != "__init__.py"]
    sources += [(f"tests/{name}", tree) for name, tree in TESTS.items()]
    for name, tree in sources:
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused


def test_no_unreferenced_private_definitions():
    unreferenced = []
    for name, tree in MODULES.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_"):
                continue
            # references from anywhere but the definition itself
            elsewhere = [s for j, s in enumerate(tree.body) if j != i]
            elsewhere += [t for other, t in MODULES.items() if other != name]
            if not any(stmt.name in names_read(node) for node in elsewhere):
                unreferenced.append(f"{name}:{stmt.lineno} {stmt.name}")
    assert not unreferenced


BENCHMARK = [ast.parse(path.read_text(), str(path))
             for path in sorted((Path(__file__).parent.parent / "perfbench").rglob("*.py"))]


def attributes_read(node) -> Counter:
    """How often node reads each attribute name (``x.name`` in load context)."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_public_name_has_a_caller():
    """Each public module-level function or class is read by another part
    of the package (``__init__``'s exports aside) or by the benchmark's
    code, and each public method or property of a package class is read as
    an attribute by the package or the benchmark outside its own
    definition.  Dunders are exempt.  A name the benchmark only spells in a
    string (a traced ``"layer.function"``) does not count: a traced name
    with no caller reports zero calls."""
    uncalled = []
    for name, tree in MODULES.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            elsewhere = [s for j, s in enumerate(tree.body) if j != i]
            elsewhere += [t for other, t in MODULES.items() if other not in (name, "__init__.py")]
            if not (any(stmt.name in names_read(node) for node in elsewhere)
                    or any(stmt.name in code_names(node) for node in BENCHMARK)):
                uncalled.append(f"{name}:{stmt.lineno} {stmt.name}")
    everywhere = sum((attributes_read(tree) for tree in [*MODULES.values(), *BENCHMARK]),
                     Counter())
    for name, tree in MODULES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                if everywhere[method.name] == attributes_read(method)[method.name]:
                    uncalled.append(f"{name}:{method.lineno} {cls.name}.{method.name}")
    assert not uncalled


def test_every_error_class_is_raised_elsewhere():
    """Each class in ``errors.py`` but the base ``MetrikaError`` is named
    by a ``raise`` in another module of the package."""

    def named(exc):
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)

    raised = {named(node.exc)
              for name, tree in MODULES.items() if name != "errors.py"
              for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    classes = [c.name for c in MODULES["errors.py"].body if isinstance(c, ast.ClassDef)]
    assert classes and not [c for c in classes if c != "MetrikaError" and c not in raised]


def test_no_line_wider_than_max_columns():
    wide = [
        f"metrika/{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not wide


def test_every_default_is_passed_somewhere():
    """A defaulted parameter that no call passes is a constant in disguise.

    Calls are matched to definitions by name alone.  A call that spreads
    ``*args`` or ``**kwargs`` counts as passing everything; a method's
    positions are counted after ``self``."""
    keywords, positions, spreads = {}, {}, set()
    for tree in CALLERS:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                spreads.add(name)
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
            positions[name] = max(positions.get(name, 0), len(call.args))
    never = []
    for name, tree in MODULES.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or func.name == "__init__":
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            offset = 1 if id(func) in methods else 0
            defaulted = [(arg, i - offset) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            # a keyword-only parameter has no position
            defaulted += [(arg, float("inf")) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for arg, index in defaulted:
                if not (func.name in spreads or arg.arg in keywords.get(func.name, ())
                        or positions.get(func.name, 0) > index):
                    never.append(f"{name}:{func.lineno} {func.name}({arg.arg})")
    assert not never


def test_every_parameter_is_read():
    """A parameter its function never reads is dead."""
    unread = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in func.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}:{func.lineno} {func.name}({a.arg})" for a in params
                       if a.arg != "self" and a.arg not in read]
    assert not unread
