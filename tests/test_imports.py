"""Every imported name in ``src/`` and ``tests/`` is used, every module-level
private name and every public function or class in ``src/`` is referenced,
``src/`` imports nothing outside the standard library, and the certificate
module stays on the checker's side of its import boundary.

No linter runs over the repository, so these stdlib-only AST scans are what
catch an import or a helper left behind.  A name counts as used when it
appears as a name anywhere in its module; names listed in the module's
``__all__`` and every import of an ``__init__.py`` (the package's
re-exports) count as used.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name that ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_unused_names():
    source = "import os, sys\nfrom a.b import c, d as e\nimport x.y\n__all__ = ['c']\nprint(sys, x.y)\n"
    assert unused_imports(source) == [(1, "os"), (2, "e")]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 20
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        if path.name != "__init__.py"  # its imports are the package's re-exports
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found |= {alias.name for alias in sub.names}
    return found


def _unreferenced(sources: dict[str, str], defines) -> list[tuple[str, str]]:
    """(module, name) of each name that ``defines`` reads off a module-level
    statement of ``sources`` and that no other statement references."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    refs = [_referenced_names(node) for _, node in statements]
    found = []
    for i, (module, node) in enumerate(statements):
        for name in defines(node):
            if not any(name in names for j, names in enumerate(refs) if j != i):
                found.append((module, name))
    return sorted(found)


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level private function, class or
    constant that no statement of ``sources`` other than its own definition
    references."""
    return _unreferenced(sources, lambda node: [
        name for name in _defined_names(node) if name.startswith("_") and not name.startswith("__")
    ])


def unreferenced_public_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level public function or class that no
    statement of ``sources`` other than its own definition references.  A
    name listed in ``__all__`` is a string there, not a reference."""
    return _unreferenced(sources, lambda node: [
        name for name in _defined_names(node)
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) and not name.startswith("_")
    ])


def test_private_name_scanner_finds_unreferenced():
    sources = {
        "a": "_BUDGET = 250_000\n_USED: int = 1\ndef _rec(n):\n    return _rec(n - 1)\n"
             "class _Kept:\n    pass\ndef run():\n    return _USED\n__all__ = ['run']\n",
        "b": "from a import _Kept\nprint(_Kept)\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_BUDGET"), ("a", "_rec")]


def test_no_unreferenced_private_names():
    paths = sorted((ROOT / "src").rglob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    found = [f"{module}: {name}" for module, name in unreferenced_private_names(sources)]
    assert not found, "private names referenced nowhere in src/:\n" + "\n".join(found)


#: Public names that no statement of ``src/`` references, each with why it
#: stays and the ROADMAP item that retires it.
PUBLIC_ONLY_FROM_OUTSIDE = {
    "local_connectivity_value": "perfbench/tracer.py wraps it with getattr (ROADMAP item 1)",
    "min_separator": "perfbench/tracer.py wraps it with getattr (ROADMAP item 1)",
    "is_triangle_free": "perfbench/workloads.py calls it (ROADMAP item 1)",
    "full_suite": "perfbench/workloads.py calls it (ROADMAP item 1)",
}


def test_public_name_scanner_finds_unreferenced():
    sources = {
        "a": "def used():\n    return 1\ndef rec(n):\n    return rec(n - 1)\n"
             "class Kept:\n    pass\nclass Loose:\n    pass\nLIMIT = 3\n"
             "__all__ = ['used', 'rec', 'Kept', 'Loose']\n",
        "b": "from a import Kept, used\nprint(Kept, used())\n",
    }
    assert unreferenced_public_names(sources) == [("a", "Loose"), ("a", "rec")]


def test_every_public_name_has_a_caller_in_src():
    # The package's own __init__ only re-exports, so it counts as no caller.
    paths = [path for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "__init__.py"]
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    found = {name: module for module, name in unreferenced_public_names(sources)}
    unlisted = [f"{module}: {name}" for name, module in sorted(found.items())
                if name not in PUBLIC_ONLY_FROM_OUTSIDE]
    assert not unlisted, "public names with no caller in src/:\n" + "\n".join(unlisted)
    stale = sorted(set(PUBLIC_ONLY_FROM_OUTSIDE) - set(found))
    assert not stale, f"allowlisted names that now have a caller in src/ or are gone: {stale}"


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import of ``source``, at any depth,
    whose top-level package is neither keeptree nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top != "keeptree" and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    return found


def test_foreign_scanner_finds_third_party():
    source = "import os\nfrom . import x\ndef f():\n    import networkx as nx\n    from scipy.sparse import y\n"
    assert foreign_imports(source) == [(4, "networkx"), (5, "scipy.sparse")]


def test_src_imports_only_stdlib():
    paths = sorted((ROOT / "src").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in paths
        for line, module in foreign_imports(path.read_text())
    ]
    assert not found, "imports outside keeptree and the standard library:\n" + "\n".join(found)


def keeptree_imports(source: str) -> dict[str, set[str]]:
    """Module -> names for each import of a ``keeptree`` module in
    ``source``, at any depth, relative or absolute.  ``from . import x``
    and ``import keeptree.x`` count as importing module ``x`` itself."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module.startswith("keeptree."):
                module = node.module.removeprefix("keeptree.")
            else:
                continue
            for alias in node.names:
                if module is None:
                    found.setdefault(alias.name, set())
                else:
                    found.setdefault(module, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("keeptree."):
                    found.setdefault(alias.name.removeprefix("keeptree."), set())
    return found


def test_keeptree_import_scanner():
    source = ("import os\nimport keeptree.io\nfrom .graphs import Graph, Tree\n"
              "from . import cli\ndef f():\n    from keeptree.pipeline import check_hypotheses\n")
    assert keeptree_imports(source) == {
        "io": set(), "graphs": {"Graph", "Tree"}, "cli": set(), "pipeline": {"check_hypotheses"},
    }


#: Every ``keeptree`` name the certificate module imports.  ROADMAP item 3
#: shrinks this list until no flow code (``connectivity``, ``triples``) is on it.
CERTIFICATE_IMPORTS = {
    "connectivity": {"global_connectivity"},
    "embed": {"Embedding", "embedding_errors"},
    "errors": {"ParseError"},
    "graphs": {"Graph", "Tree"},
    "matching": {"Matching", "check_matching"},
    "report": {"CheckReport"},
    "triples": {"ConnectedTriple", "SaturatedTriple", "validate_triple"},
}

#: Modules that no import chain starting at the certificate module may reach.
CERTIFICATE_NEVER_REACHES = {"pipeline", "harness", "cli", "families", "io"}


def test_certificate_import_boundary():
    package = ROOT / "src" / "keeptree"
    assert keeptree_imports((package / "certificate.py").read_text()) == CERTIFICATE_IMPORTS
    # The package's own __init__ runs on any import of a submodule; the
    # boundary is on the chain of module imports below it.
    reached, todo = set(), ["certificate"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(keeptree_imports((package / f"{module}.py").read_text()))
    assert not reached & CERTIFICATE_NEVER_REACHES, sorted(reached & CERTIFICATE_NEVER_REACHES)


def test_pipeline_binds_the_benchmark_lookups():
    # perfbench/tracer.py finds these with getattr on keeptree.pipeline.
    from keeptree import certificate, pipeline

    for name in ("find_keeping_tree", "check_hypotheses", "verify_certificate"):
        assert callable(getattr(pipeline, name, None)), name
    assert pipeline.verify_certificate is certificate.verify_certificate
