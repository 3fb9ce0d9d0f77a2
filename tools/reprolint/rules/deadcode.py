"""Dead-code rule: every public ``src/repro`` symbol has a non-test caller.

``DEAD01`` — a public (no leading underscore) module-level function or class
    in scope (``src/repro/**``) is referenced by no non-test caller.

Callers are the in-scope modules themselves (use elsewhere in the defining
module counts) plus the files matched by the manifest's
``dead_code_callers`` globs (``perfbench/``, ``benchmarks/``, ``examples/``,
``tools/``).  Test files (``test_*.py``, ``*_test.py``, ``conftest.py``)
never count, wherever they live.

A reference is an AST name, attribute or ``from ... import`` alias, matched
by bare name the way DEP01 matches.  Three things are not references: a
package ``__init__``'s imports (re-exports; ``__all__`` strings are not
names either), a symbol's mentions of itself inside its own definition, and
docstrings or comments.

A symbol only tests call is a second model the suite keeps alive.  Delete it
together with its tests, or exempt it with a reason under
``dead_code_exempt`` in ``tools/reprolint/manifest.json``, keyed
``"module:Name"`` (e.g. ``"repro.perf.model:ideal_narrow_utilization"``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from tools.reprolint.core import RepoContext, Violation, rule

DOCS = {
    "DEAD01": "public src/repro function or class with no non-test caller",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Basenames of test modules: never callers, even outside ``tests/``.
_TEST_FILE_RE = re.compile(r"^(test_.*|.*_test|conftest)\.py$")


def module_name(rel: str) -> str:
    """``src/repro/axi/types.py`` -> ``repro.axi.types`` (exemption keys)."""
    parts = rel[: -len(".py")].split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def references(tree: ast.Module, package_init: bool) -> Set[str]:
    """Bare names ``tree`` references, minus each definition's self-mentions."""
    names: Set[str] = set()
    for stmt in tree.body:
        found: Set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not package_init:
                found.update(alias.name for alias in node.names)
        if isinstance(stmt, _DEFS):
            found.discard(stmt.name)
        names |= found
    return names


@rule("dead-code", DOCS)
def check(repo: RepoContext) -> Iterator[Violation]:
    callers = {ctx.rel for ctx in repo.files}
    for pattern in repo.config.dead_code_callers:
        callers.update(
            str(path.relative_to(repo.root)).replace("\\", "/")
            for path in repo.root.glob(pattern)
            if path.suffix == ".py"
        )
    referenced: Set[str] = set()
    for rel in sorted(callers):
        if _TEST_FILE_RE.match(rel.rsplit("/", 1)[-1]):
            continue
        ctx = repo.get_file(rel)
        if ctx is not None:
            referenced |= references(ctx.tree, rel.endswith("/__init__.py"))

    exempt = repo.config.dead_code_exempt
    for ctx in repo.files:
        module = module_name(ctx.rel)
        for node in ctx.tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            key = f"{module}:{node.name}"
            if node.name in referenced or key in exempt:
                continue
            yield Violation(
                "DEAD01", ctx.rel, node.lineno,
                f"`{node.name}` has no caller outside tests — delete it with "
                "its tests, or exempt it with a reason as "
                f'"{key}" under dead_code_exempt in '
                "tools/reprolint/manifest.json",
            )
