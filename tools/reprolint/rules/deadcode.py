"""Dead-code rules: every public ``src/repro`` symbol has a non-test caller.

``DEAD01`` — a public (no leading underscore) module-level function or class
    in scope (``src/repro/**``) is referenced by no non-test caller.
``DEAD02`` — a public method or property of a module-level class in scope is
    referenced by no non-test caller.

Callers are the in-scope modules themselves (use elsewhere in the defining
module counts) plus the files matched by the manifest's
``dead_code_callers`` globs (``perfbench/``, ``benchmarks/``, ``examples/``,
``tools/``).  Test files (``test_*.py``, ``*_test.py``, ``conftest.py``)
never count, wherever they live.

A reference is an AST name, attribute or ``from ... import`` alias, matched
by bare name the way DEP01 matches.  Three things are not references: a
package ``__init__``'s imports (re-exports; ``__all__`` strings are not
names either), a definition's mentions of itself inside its own body (a
recursive function, a method calling itself, a property's setter), and
docstrings or comments.  For ``DEAD02`` an identifier-shaped string literal
outside a package ``__init__`` is a reference too: ``getattr(spec,
"result_compatible")`` and perfbench's span tables reach methods by name.

A symbol only tests call is a second model the suite keeps alive.  Delete it
together with its tests, or exempt it with a reason under
``dead_code_exempt`` in ``tools/reprolint/manifest.json``, keyed
``"module:Name"`` (e.g. ``"repro.perf.model:ideal_narrow_utilization"``) or
``"module:Class.method"``.  An exempt class exempts its members as well.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from tools.reprolint.core import RepoContext, Violation, rule

DOCS = {
    "DEAD01": "public src/repro function or class with no non-test caller",
    "DEAD02": "public method or property of a src/repro class with no "
              "non-test caller",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Basenames of test modules: never callers, even outside ``tests/``.
_TEST_FILE_RE = re.compile(r"^(test_.*|.*_test|conftest)\.py$")

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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

    def visit(node: ast.AST) -> Set[str]:
        found: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            found |= visit(child)
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not package_init:
            found.update(alias.name for alias in node.names)
        elif isinstance(node, _DEFS):
            found.discard(node.name)
        return found

    return visit(tree)


def literals(tree: ast.Module) -> Set[str]:
    """Identifier-shaped string literals in ``tree`` (names reached by
    ``getattr`` and the like)."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _IDENTIFIER_RE.match(node.value)
    }


def _exempt_hint(key: str) -> str:
    return (
        "delete it with its tests, or exempt it with a reason as "
        f'"{key}" under dead_code_exempt in tools/reprolint/manifest.json'
    )


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
    named: Set[str] = set()  # identifier-shaped string literals
    for rel in sorted(callers):
        if _TEST_FILE_RE.match(rel.rsplit("/", 1)[-1]):
            continue
        ctx = repo.get_file(rel)
        if ctx is None:
            continue
        package_init = rel.endswith("/__init__.py")
        referenced |= references(ctx.tree, package_init)
        if not package_init:
            named |= literals(ctx.tree)

    exempt = repo.config.dead_code_exempt
    for ctx in repo.files:
        module = module_name(ctx.rel)
        for node in ctx.tree.body:
            if not isinstance(node, _DEFS):
                continue
            key = f"{module}:{node.name}"
            if key in exempt:
                continue
            if not node.name.startswith("_") and node.name not in referenced:
                yield Violation(
                    "DEAD01", ctx.rel, node.lineno,
                    f"`{node.name}` has no caller outside tests — "
                    + _exempt_hint(key),
                )
            if not isinstance(node, ast.ClassDef):
                continue
            seen: Set[str] = set()  # a property's setter repeats its name
            for item in node.body:
                if not isinstance(item, _FUNCS):
                    continue
                name = item.name
                if name.startswith("_") or name in seen:
                    continue
                seen.add(name)
                member = f"{key}.{name}"
                if name in referenced or name in named or member in exempt:
                    continue
                yield Violation(
                    "DEAD02", ctx.rel, item.lineno,
                    f"`{node.name}.{name}` has no caller outside tests — "
                    + _exempt_hint(member),
                )
