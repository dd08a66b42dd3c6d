"""List the functions of a `cybethe` source tree that no command reaches.

    python tools/reach.py [SRC [BENCH]]    # defaults: src and perfbench

Builds a name-based call graph of SRC/cybethe and prints, one per line in
sorted order, each function, class and method that the graph does not
reach from its roots: `cli.main`, the `cmd_*` handlers, the top-level code
of every module (importing a module runs it), and every name of the
package that the benchmark files BENCH/*.py use.  A definition is printed
as `module.qualname`, such as `qpoly.QPoly.derivative`; a method is
printed only when its class is reached.

Edges are by name:
- A bare name reaches the function or class that an import or a top-level
  definition binds it to, unless a local of the referring function
  shadows it.  An import of the package (`from . import m`, `from .m import
  x`, and in BENCH `from cybethe import x`, `import cybethe.m`) binds the
  name to that module or definition.
- `m.x`, for a name m bound to a module of the package, reaches m's x.
  Any other `.x` reaches each method named x of every reached class.
- A class reaches its base classes, its class body and its dunder methods,
  which Python calls implicitly, and every method when one of its bases
  lies outside the package, whose code may call any of them.  A module
  reaches its dunder functions (`__getattr__`, `__dir__`).  A nested
  function is part of the function that defines it.  A name in a string
  reaches nothing.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "cybethe"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Scope:
    """The code of one definition, the module it lies in, the names it
    binds by its own imports and the local names that shadow the rest."""

    def __init__(self, module, tree, imports, func=None):
        self.module, self.tree, self.imports = module, tree, imports
        self.shadowed = set()
        if func is None:
            return
        # parameters (nested ones too), assigned names and nested defs
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.shadowed.add(node.id)
            elif isinstance(node, ast.arg):
                self.shadowed.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node is not func:
                self.shadowed.add(node.name)


class _Graph:
    """The definitions of the package under src and their edges."""

    def __init__(self, src):
        trees = {path.stem: ast.parse(path.read_text())
                 for path in sorted((Path(src) / PACKAGE).glob("*.py"))}
        self.modules = set(trees)
        self.top = {mod: {node.name for node in tree.body if isinstance(
                        node, (ast.FunctionDef, ast.ClassDef))}
                    for mod, tree in trees.items()}
        # top-level name -> its definition, which `from cybethe import
        # name` of an export reaches
        self.exports = {name: f"{mod}.{name}"
                        for mod, names in self.top.items() for name in names}
        # module -> {name: (source, name)} of its top-level package imports
        self.raw = {mod: dict(self._sources(tree.body))
                    for mod, tree in trees.items()}
        self.defs = {}      # qualified definition -> _Scope
        self.methods = {}   # qualified class -> {method name: qualified}
        self.external = set()  # classes with a base outside the package
        for mod, tree in trees.items():
            self._module(mod, tree)

    def _function(self, mod, qual, node):
        self.defs[qual] = _Scope(mod, node, self.imports(ast.walk(node)),
                                 node)

    def _module(self, mod, tree):
        body = []
        for node in tree.body:
            qual = f"{mod}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                self._function(mod, qual, node)
                if _is_dunder(node.name):
                    body.append(ast.Name(node.name, ast.Load()))
            elif isinstance(node, ast.ClassDef):
                methods = self.methods[qual] = {}
                cls = list(node.bases)
                if any(self.member(mod, getattr(base, "id", "")) is None
                       for base in node.bases):
                    self.external.add(qual)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = f"{qual}.{item.name}"
                        self._function(mod, methods[item.name], item)
                    else:
                        cls.append(item)
                self.defs[qual] = _Scope(mod, ast.Module(cls, []), {})
            else:
                body.append(node)
        self.defs[mod] = _Scope(mod, ast.Module(body, []), {})

    @staticmethod
    def _sources(nodes):
        """(bound name, (source, name)) of each package import among nodes;
        the source is a module, or "" for the package itself."""
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head == PACKAGE:
                        yield (alias.asname, ("", rest)) if alias.asname \
                            else (head, (None, ""))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    source = node.module or ""
                elif (node.module or "").split(".")[0] == PACKAGE:
                    source = node.module.partition(".")[2]
                else:
                    continue
                for alias in node.names:
                    yield alias.asname or alias.name, (source, alias.name)

    def imports(self, nodes):
        """{name: target} of the package imports among nodes.  A target is
        a module, "" for the package itself, or a qualified definition."""
        return {bound: "" if source is None else self.member(source, name)
                for bound, (source, name) in self._sources(nodes)}

    def member(self, target, name):
        """The target that `name` of the module or package target is."""
        if target == "":
            return name if name in self.modules else self.exports.get(name)
        if target not in self.modules:
            return None
        if name in self.top[target]:
            return f"{target}.{name}"
        if name in self.raw[target]:
            return self.member(*self.raw[target][name])
        return None

    def target(self, expr, scope):
        """The module, package or definition that expr names, or None."""
        if isinstance(expr, ast.Name):
            if expr.id in scope.imports:
                return scope.imports[expr.id]
            if expr.id in scope.shadowed or scope.module is None:
                return None
            return self.member(scope.module, expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.target(expr.value, scope)
            if base is not None and (base == "" or base in self.modules):
                return self.member(base, expr.attr)
        return None

    def edges(self, scope):
        """(definitions, attribute names) that the code of scope uses."""
        defs, attrs = set(), set()
        for node in ast.walk(scope.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                found = self.target(node, scope)
                if found in self.defs:
                    defs.add(found)
                elif found is None and isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
        return defs, attrs

    def unreached(self, roots, wanted):
        """The definitions that roots, and the methods named in wanted,
        do not reach."""
        seen, wanted, todo = set(), set(wanted), list(roots)
        while todo:
            qual = todo.pop()
            if qual in seen:
                continue
            seen.add(qual)
            defs, attrs = self.edges(self.defs[qual])
            todo.extend(defs)
            wanted |= attrs
            for cls in seen & self.methods.keys():
                todo.extend(method for name, method in
                            self.methods[cls].items()
                            if name in wanted or _is_dunder(name)
                            or cls in self.external)
        hidden = {method for cls, methods in self.methods.items()
                  if cls not in seen for method in methods.values()}
        return sorted(self.defs.keys() - seen - hidden)


def unreached(src=ROOT / "src", bench=ROOT / "perfbench"):
    """The sorted definitions of src/cybethe that no root reaches."""
    graph = _Graph(src)
    roots = set(graph.modules) | {"cli.main"} | {
        qual for qual in graph.defs if qual.startswith("cli.cmd_")}
    wanted = set()
    for path in sorted(Path(bench).glob("*.py")):
        tree = ast.parse(path.read_text())
        defs, attrs = graph.edges(
            _Scope(None, tree, graph.imports(ast.walk(tree))))
        roots |= defs
        wanted |= attrs
    return graph.unreached(roots, wanted)


if __name__ == "__main__":
    print("\n".join(unreached(*sys.argv[1:3])))
