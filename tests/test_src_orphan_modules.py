"""Every module under ``src/repro`` has an importer inside ``src/``.

A module that no other ``src/`` module imports runs only from tests,
benches or examples, so no entry point reaches it.  This check parses
every import statement with :mod:`ast` (function-level imports
included) and fails on any such module that is not on the allowlist.

Rules:

* a module is imported when another module imports it or one of its
  submodules; a package's own submodules do not count as importers of
  the package;
* ``from pkg import name`` imports ``pkg.name`` when that is a module,
  and ``pkg`` otherwise; relative imports resolve against the
  importing module's package;
* the root package and ``repro.__main__`` (``python -m repro``) are the
  entry points and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = "repro"
ENTRY_POINTS = frozenset({ROOT, f"{ROOT}.__main__"})

#: Modules allowed to have no importer in ``src/``, each with its reason.
ALLOWED_ORPHANS = {
    "repro.model.congest": "the CONGEST paper-claim bench in CI imports it",
    "repro.analysis.fitting": "waits for the Theorem 4.1 table to call it",
    "repro.analysis.serialization": "the golden corpus generator imports it",
    "repro.vertexcoloring": "to be deleted in a change of its own",
}


def source_modules() -> dict[str, Path]:
    """Dotted module name -> file, for every module of the package."""
    modules = {}
    for path in sorted((SRC / ROOT).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The package modules that module ``name`` (at ``path``) imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module or ""
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                found.add(submodule if submodule in modules else base)
    return {
        imported
        for imported in found
        if imported == ROOT or imported.startswith(f"{ROOT}.")
    }


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(f"{package}.")


def orphan_modules() -> set[str]:
    """Modules that no other ``src/`` module imports (entry points aside)."""
    modules = source_modules()
    imports = {
        name: imported_names(name, path, modules)
        for name, path in modules.items()
    }
    return {
        target
        for target in modules
        if target not in ENTRY_POINTS
        and not any(
            not _within(importer, target)
            and any(_within(name, target) for name in names)
            for importer, names in imports.items()
        )
    }


def test_imports_are_resolved_against_the_source_tree(tmp_path):
    modules = source_modules()
    assert "repro.model.congest" in modules
    assert "repro.vertexcoloring" in modules
    names = imported_names(
        "repro.scenarios.programs",
        modules["repro.scenarios.programs"],
        modules,
    )
    # An absolute `from repro.model.scheduler import Scheduler` names
    # the module, not the class.
    assert "repro.model.scheduler" in names
    assert "repro.model.scheduler.Scheduler" not in names

    relative = tmp_path / "relative.py"
    relative.write_text(
        "from .scheduler import Scheduler\n"
        "from . import reference\n"
        "from ..graphs import index\n"
        "import numpy\n"
    )
    assert imported_names("repro.model.relative", relative, modules) == {
        "repro.model.scheduler",
        "repro.model.reference",
        "repro.graphs.index",
    }


def test_every_module_has_an_importer_in_src():
    unexpected = orphan_modules() - set(ALLOWED_ORPHANS)
    assert not unexpected, (
        f"modules with no importer in src/: {sorted(unexpected)}; delete "
        "them, give them a caller, or allowlist them with a reason"
    )


def test_every_allowlisted_module_is_still_an_orphan():
    # An allowlist entry whose module gained an importer, or was
    # deleted, must go.
    stale = set(ALLOWED_ORPHANS) - orphan_modules()
    assert not stale, f"allowlisted modules that are not orphans: {sorted(stale)}"
