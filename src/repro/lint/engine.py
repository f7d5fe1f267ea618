"""Lint engine: file discovery, parsing, rule dispatch, suppression."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence

from .rules import FileContext, Violation, classify_path
from .suppressions import parse_suppressions
from .visitor import collect_violations

__all__ = [
    "DEFAULT_EXCLUDES",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: Directory/file name fragments skipped during discovery.  Lint fixtures
#: deliberately contain violations and must not fail the repo-wide run;
#: lint them explicitly (as the self-tests do) to exercise the rules.
DEFAULT_EXCLUDES = (
    "lint_fixtures",
    "__pycache__",
    ".git",
    ".venv",
    "build",
    "dist",
    ".egg-info",
)


def iter_python_files(paths: Sequence[str],
                      excludes: Sequence[str] = DEFAULT_EXCLUDES
                      ) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths``, skipping excluded fragments.

    Files listed explicitly on the command line bypass the exclusion
    filter — naming a path is an unambiguous request to lint it.
    """

    def excluded(candidate: Path) -> bool:
        return any(fragment in candidate.parts for fragment in excludes)

    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not excluded(found):
                    yield found
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")


def _filter_codes(violations: Iterable[Violation],
                  select: Optional[FrozenSet[str]],
                  ignore: Optional[FrozenSet[str]]) -> List[Violation]:
    kept = []
    for violation in violations:
        if select is not None and violation.code not in select:
            continue
        if ignore is not None and violation.code in ignore:
            continue
        kept.append(violation)
    return kept


def _render_codes(codes: FrozenSet[str]) -> str:
    return "all rules" if "*" in codes else ", ".join(sorted(codes))


def lint_source(source: str, path: str, *,
                context: Optional[FileContext] = None,
                select: Optional[FrozenSet[str]] = None,
                ignore: Optional[FrozenSet[str]] = None) -> List[Violation]:
    """Lint ``source`` as if it lived at ``path``.

    The path (or an explicit ``context``) decides which path-scoped rules
    apply, so callers — the fixture tests in particular — can lint any
    snippet under any role by passing a virtual path.

    Suppression directives are attributed: each suppressed violation marks
    the directive(s) that silenced it, and any directive left unmatched is
    stale and reported as RPL901 at the directive's own location (RPL901
    itself is never subject to suppression — a stale directive cannot hide
    its own staleness).
    """
    if context is None:
        context = classify_path(path)
    try:
        tree = ast.parse(source, filename=context.path)
    except SyntaxError as exc:
        return _filter_codes(
            [Violation(
                path=context.path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code="RPL900",
                message=f"syntax error: {exc.msg}",
                source_line=(exc.text or "").rstrip("\n"),
            )],
            select, ignore,
        )
    suppressions = parse_suppressions(source)
    violations = collect_violations(
        tree, context, source_lines=source.splitlines()
    )
    lines = source.splitlines()
    used: set = set()
    visible: List[Violation] = []
    for violation in violations:
        matched = suppressions.matching(violation.line, violation.code)
        if matched:
            used.update(matched)
        else:
            visible.append(violation)
    for index, directive in enumerate(suppressions.directives):
        if index in used:
            continue
        text = ""
        if 1 <= directive.line <= len(lines):
            text = lines[directive.line - 1].rstrip("\n")
        visible.append(Violation(
            path=context.path, line=directive.line, col=directive.col,
            code="RPL901",
            message=(
                f"stale suppression: `{directive.kind}` of "
                f"{_render_codes(directive.codes)} matches no violation; "
                f"remove the directive"
            ),
            source_line=text,
        ))
    return _filter_codes(visible, select, ignore)


def lint_file(path: Path, *,
              select: Optional[FrozenSet[str]] = None,
              ignore: Optional[FrozenSet[str]] = None) -> List[Violation]:
    """Lint one file from disk."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Violation(
            path=str(path), line=1, col=0, code="RPL900",
            message=f"unreadable file: {exc}",
        )]
    return lint_source(source, str(path), select=select, ignore=ignore)


def lint_paths(paths: Sequence[str], *,
               excludes: Sequence[str] = DEFAULT_EXCLUDES,
               select: Optional[FrozenSet[str]] = None,
               ignore: Optional[FrozenSet[str]] = None,
               ) -> "tuple[List[Violation], int]":
    """Lint every Python file under ``paths``, in discovery order.

    Returns ``(violations, files_checked)``.
    """
    files = list(iter_python_files(paths, excludes))
    violations: List[Violation] = []
    for path in files:
        violations.extend(lint_file(path, select=select, ignore=ignore))
    return violations, len(files)
