"""``repro.lint`` — project-specific determinism & sparse-pitfall linter.

An AST-based static-analysis pass that turns this repository's runtime
bug history (order-dependent RNG fan-out, ``np.matrix`` leakage from
``.todense()``, sparse-comparison densification, per-trial sparse
assembly) into machine-enforced rules, gated in CI alongside ruff and
mypy.  See ``docs/static_analysis.md`` for the rule catalog and
``python -m repro.lint --list-rules`` for a quick reference.

Programmatic use::

    from repro.lint import lint_source, lint_paths

    violations = lint_source(code, "src/repro/sketch/foo.py")
    violations, files = lint_paths(["src", "tests"])
"""

from .cli import main
from .engine import (
    DEFAULT_EXCLUDES,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from .rules import RULES, FileContext, Rule, Violation, all_codes, classify_path
from .suppressions import Directive, Suppressions, parse_suppressions
from .visitor import ModuleSummary, summarize_module

__all__ = [
    "DEFAULT_EXCLUDES",
    "Directive",
    "FileContext",
    "ModuleSummary",
    "RULES",
    "Rule",
    "Suppressions",
    "Violation",
    "all_codes",
    "classify_path",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "parse_suppressions",
    "summarize_module",
]
