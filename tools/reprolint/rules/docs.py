"""Documentation-drift rules.

``DOC01`` — CLI drift: a ``repro`` subcommand or long option introspected
    from the live argparse parser is not mentioned anywhere in the
    documentation set (README.md plus docs/*.md).
``DOC02`` — a relative markdown link in the documentation set points at a
    file that does not exist.

Unlike the AST rules, this one imports :mod:`repro.cli` to read the real
parser — documenting a flag that argparse does not accept is drift in the
other direction, so the parser is the single source of truth.  The doc file
set and ignored flags live under ``docs`` in the manifest.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from tools.reprolint.core import RepoContext, Violation, rule

DOCS = {
    "DOC01": "CLI subcommand or flag missing from the documentation",
    "DOC02": "broken relative link in a documentation file",
}

#: ``[text](target)`` — target split from any title, anchors kept.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)[^)]*\)")

#: Options argparse adds on its own, or that are deliberately undocumented.
DEFAULT_IGNORED_FLAGS = ("--help", "--version")


def doc_files(root: Path, config: Optional[dict] = None) -> List[str]:
    """The documentation set: README.md plus every docs/*.md, repo-relative."""
    if config and "files" in config:
        return list(config["files"])
    return ["README.md"] + sorted(
        str(path.relative_to(root)).replace("\\", "/")
        for path in (root / "docs").glob("*.md")
    )


def iter_parser_surface(
    parser: argparse.ArgumentParser,
) -> Iterator[Tuple[str, Optional[str]]]:
    """Yield (subcommand, flag) pairs; flag is None for the command itself."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield name, None
                for sub_action in sub._actions:
                    for option in sub_action.option_strings:
                        if option.startswith("--"):
                            yield name, option


def check_cli_documented(
    parser: argparse.ArgumentParser,
    corpus: str,
    ignored_flags: Tuple[str, ...] = DEFAULT_IGNORED_FLAGS,
) -> List[str]:
    """Problem strings for undocumented parser surface (empty when clean)."""
    missing = []
    for command, flag in iter_parser_surface(parser):
        if flag is None:
            # Documented as "repro <command>".
            if not re.search(
                rf"repro(?:\.cli)?\s+{re.escape(command)}\b", corpus
            ):
                missing.append(f"subcommand 'repro {command}' not documented")
        elif flag not in ignored_flags and flag not in corpus:
            missing.append(f"flag '{flag}' (repro {command}) not documented")
    return missing


def check_links(root: Path, docs: List[str]) -> List[Tuple[str, int, str]]:
    """(doc, line, target) for every relative link that resolves nowhere."""
    broken = []
    for doc in docs:
        path = root / doc
        if not path.exists():
            broken.append((doc, 1, doc))
            continue
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for target in _LINK_RE.findall(text):
                if re.match(r"[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                    continue
                if target.startswith("#"):  # same-file anchor
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    broken.append((doc, lineno, target))
    return broken


def _build_parser(root: Path) -> Optional[argparse.ArgumentParser]:
    """The live repro CLI parser, or None when repro is not importable."""
    import sys

    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        from repro.cli import _build_parser as build
    except ImportError:
        return None
    return build()


@rule("docs", DOCS)
def check(repo: RepoContext) -> Iterator[Violation]:
    config = repo.config.docs
    docs = doc_files(repo.root, config)
    ignored = tuple(config.get("ignored_flags", DEFAULT_IGNORED_FLAGS))

    corpus = "\n".join(
        (repo.root / doc).read_text(encoding="utf-8")
        for doc in docs
        if (repo.root / doc).exists()
    )
    parser = _build_parser(repo.root)
    if parser is not None:
        for problem in check_cli_documented(parser, corpus, ignored):
            yield Violation(
                "DOC01", docs[0] if docs else "README.md", 1,
                f"{problem} — mention it in one of: {', '.join(docs)}",
            )
    for doc, lineno, target in check_links(repo.root, docs):
        yield Violation(
            "DOC02", doc, lineno,
            f"broken link -> {target}",
        )
