"""Rule registry for the ``repro.lint`` static-analysis pass.

Each rule encodes one determinism or sparse-efficiency failure mode that
was actually hit (and fixed) in this repository's history — see
``docs/static_analysis.md`` for the full catalog with the originating bug
per rule.  Rules are identified by a stable ``RPLnnn`` code used in
reports, ``# repro-lint: disable=CODE`` suppressions, and the baseline
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Rule",
    "Violation",
    "FileContext",
    "RULES",
    "all_codes",
    "get_rule",
    "classify_path",
    "is_shard_primitive_module",
    "normalize_codes",
]


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule.

    ``scope`` is a human-readable description of where the rule applies;
    the actual gating lives in the visitor via :class:`FileContext`.
    """

    code: str
    name: str
    summary: str
    rationale: str
    scope: str = "all files"


@dataclass(frozen=True)
class Violation:
    """One reported rule violation at a concrete source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    source_line: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Path-derived role of a file, used to scope path-sensitive rules.

    * ``is_test`` — under ``tests/`` / ``benchmarks/`` or a ``test_*.py``
      file: RPL008 applies, RPL001's library-only checks do not.
    * ``is_hot`` — library module under ``sketch/``, ``core/`` or
      ``linalg/``: RPL005 (sparse work inside loops) applies.
    * ``is_trial_engine`` — library module under ``core/``,
      ``experiments/`` or ``utils/``: RPL105 (shard identity
      delegation) applies.
    * ``is_result_io`` — library module under ``cache/``, ``observe/``,
      ``experiments/`` or ``core/``, whose JSON writes feed caches,
      ledgers, or result files: RPL101 (strict JSON emission) applies.
    """

    path: str
    is_test: bool = False
    is_hot: bool = False
    is_trial_engine: bool = False
    is_result_io: bool = False


_TEST_PARTS = frozenset({"tests", "benchmarks"})
_HOT_PARTS = frozenset({"sketch", "core", "linalg"})
_TRIAL_PARTS = frozenset({"core", "experiments", "utils"})
_RESULT_IO_PARTS = frozenset({"cache", "observe", "experiments", "core"})

#: Library files allowed to hand-roll shard/span arithmetic: these *are*
#: the sanctioned primitives (``shard_spans``, ``trial_keys``) RPL103
#: tells everyone else to call.
_SHARD_PRIMITIVE_SUFFIXES = (
    "utils/parallel.py",
    "utils/rng.py",
)


def classify_path(path: str) -> FileContext:
    """Derive a :class:`FileContext` from a (possibly virtual) file path."""
    pure = PurePath(str(path).replace("\\", "/"))
    parts = set(pure.parts)
    name = pure.name
    is_test = bool(parts & _TEST_PARTS) or name.startswith("test_")
    is_library = not is_test
    return FileContext(
        path=pure.as_posix(),
        is_test=is_test,
        is_hot=is_library and bool(parts & _HOT_PARTS),
        is_trial_engine=is_library and bool(parts & _TRIAL_PARTS),
        is_result_io=is_library and bool(parts & _RESULT_IO_PARTS),
    )


def is_shard_primitive_module(path: str) -> bool:
    """True for the modules that implement the shard/span primitives."""
    posix = str(path).replace("\\", "/")
    return posix.endswith(_SHARD_PRIMITIVE_SUFFIXES)


_RULE_LIST: Tuple[Rule, ...] = (
    Rule(
        code="RPL001",
        name="global-rng",
        summary="use of the global NumPy/stdlib RNG state",
        rationale=(
            "np.random.seed / np.random.<dist> and stdlib random.<fn> share "
            "hidden global state, so results depend on call order and "
            "thread scheduling; bare default_rng() in library code draws OS "
            "entropy and is unreproducible.  The seed repo's determinism "
            "contract (PR 1) routes all randomness through repro.utils.rng."
        ),
        scope="library code (tests are covered by RPL008)",
    ),
    Rule(
        code="RPL002",
        name="child-seed-from-parent-stream",
        summary="seeding an RNG from values drawn off another generator",
        rationale=(
            "default_rng(parent.integers(...)) was the PR 1 bug: child "
            "streams depended on how much the parent had already drawn, so "
            "trial results changed with execution order.  Derive children "
            "with SeedSequence.spawn (repro.utils.rng.spawn/spawn_seeds)."
        ),
    ),
    Rule(
        code="RPL003",
        name="todense-call",
        summary=".todense() returns np.matrix; use .toarray()",
        rationale=(
            "scipy's .todense() yields np.matrix, whose * and ** semantics "
            "silently differ from ndarray; PR 1 replaced every .todense() "
            "with .toarray() after shape-semantics bugs."
        ),
    ),
    Rule(
        code="RPL004",
        name="sparse-equality",
        summary="== / != comparison on sparse operands",
        rationale=(
            "Sparse != densifies (SparseEfficiencyWarning) and sparse == "
            "compares elementwise into a sparse boolean — both were hit in "
            "StreamingSketcher.merge (PR 1), which now compares structure "
            "(indptr/indices/data) on canonical CSC instead."
        ),
    ),
    Rule(
        code="RPL005",
        name="sparse-work-in-loop",
        summary="sparse construction or toarray() inside a for/while loop",
        rationale=(
            "Per-iteration sparse assembly or densification dominates hot "
            "paths; PR 2's matrix-free kernels exist precisely to keep "
            "per-trial loops free of scipy matrix builds."
        ),
        scope="hot library modules (sketch/, core/, linalg/)",
    ),
    Rule(
        code="RPL006",
        name="float-equality",
        summary="float-literal equality with == / != instead of isclose",
        rationale=(
            "Exact equality against non-integral float literals breaks "
            "under rounding differences between code paths (e.g. kernel vs "
            "materialized apply); use np.isclose/math.isclose with an "
            "explicit tolerance."
        ),
    ),
    Rule(
        code="RPL008",
        name="unseeded-test-randomness",
        summary="test randomness not derived from a seed",
        rationale=(
            "Unseeded default_rng()/SeedSequence()/bit generators, stdlib "
            "random.<fn>, or hypothesis randoms(use_true_random=True) make "
            "test failures unreproducible; every test stream must come from "
            "an explicit seed or a derived child (repro.utils.rng.spawn)."
        ),
        scope="tests and benchmarks",
    ),
    Rule(
        code="RPL101",
        name="lenient-json-emission",
        summary="json.dump/dumps without allow_nan=False plus a numpy-safe "
                "default",
        rationale=(
            "PR 6's NaN JSONL bug: json.dumps happily writes nonstandard "
            "NaN/Infinity tokens that only Python's lenient parser reads "
            "back, and numpy scalars crash the encoder after the run has "
            "already finished.  Every JSON write that feeds a cache store, "
            "ledger, checkpoint, or result file must pass allow_nan=False "
            "and handle numpy payloads (default=json_default or a "
            "to_builtin/canonical_json wrapper)."
        ),
        scope="result-IO library modules (cache/, observe/, experiments/, "
              "core/)",
    ),
    Rule(
        code="RPL103",
        name="hand-rolled-shard-arithmetic",
        summary="shard/span index arithmetic outside shard_spans",
        rationale=(
            "PR 7's shard-span overlap: ad-hoc `shard_index * per_shard` "
            "arithmetic produced overlapping seed slices under uneven "
            "division.  All shard partitioning goes through "
            "repro.utils.parallel.shard_spans, which is tested for exact "
            "tiling; a span's trials draw their streams, and so take their "
            "values, from their indices alone (repro.utils.rng.trial_keys)."
        ),
        scope="library code except the primitives themselves "
              "(utils/parallel.py, utils/rng.py)",
    ),
    Rule(
        code="RPL104",
        name="counter-prefix-contract",
        summary="bookkeeping counter outside the NON_RESULT_COUNTER_PREFIXES "
                "naming contract",
        rationale=(
            "count_* metrics on ExperimentResult must stay bit-identical "
            "across cache states and shard layouts, so bookkeeping counters "
            "are excluded by name prefix (cache_, checkpoint_, shard_ — "
            "NON_RESULT_COUNTER_PREFIXES in observe/counters.py).  A "
            "counter named `hits_cache` or `count_shard_x` dodges the "
            "filter and leaks execution-dependent values into results."
        ),
        scope="library code",
    ),
    Rule(
        code="RPL105",
        name="shard-identity-bypass",
        summary="shard= parameter used computationally without an "
                "identity-case guard",
        rationale=(
            "shard=None and a one-way fan-out must delegate to the "
            "unsharded path, which needs no cache.  A function that "
            "computes with its shard parameter must first normalize it "
            "(normalize_shard, or an explicit None comparison) or purely "
            "forward it.  batch= is a chunk size that changes no value, "
            "so it needs no guard."
        ),
        scope="trial-engine library modules (core/, experiments/, utils/)",
    ),
    Rule(
        code="RPL900",
        name="syntax-error",
        summary="file could not be parsed",
        rationale="A file that does not parse cannot be linted or imported.",
    ),
    Rule(
        code="RPL901",
        name="stale-suppression",
        summary="repro-lint suppression directive that suppresses nothing",
        rationale=(
            "A `# repro-lint: disable` comment that no longer matches any "
            "violation is dead weight: it hides future regressions at that "
            "site and misleads readers into thinking the rule still fires "
            "there.  Remove the directive (the text reporter lists every "
            "stale one)."
        ),
    ),
)

RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}


def all_codes() -> List[str]:
    """Every registered rule code, in catalog order."""
    return [rule.code for rule in _RULE_LIST]


def get_rule(code: str) -> Rule:
    try:
        return RULES[code]
    except KeyError:
        raise KeyError(f"unknown rule code {code!r}; known: {all_codes()}")


def normalize_codes(raw: Optional[str], *, option: str) -> Optional[frozenset]:
    """Parse a comma-separated ``--select``/``--ignore`` code list."""
    if raw is None:
        return None
    codes = frozenset(
        part.strip().upper() for part in raw.split(",") if part.strip()
    )
    unknown = codes - set(RULES)
    if unknown:
        raise ValueError(
            f"{option}: unknown rule code(s) {sorted(unknown)}; "
            f"known: {all_codes()}"
        )
    return codes
