"""AST visitor implementing the ``RPL`` determinism / sparse-pitfall rules.

Linting a module is a **two-pass** analysis:

1. :func:`summarize_module` walks every module-level function once and
   computes, by fixpoint over the module-local call graph, which
   functions *return rng-drawn values* — ``def pick(gen): return
   gen.integers(2**32)`` and any helper that merely forwards such a
   return.  This is the call-graph taint model: a draw is tracked across
   helper-function boundaries instead of only within one body.
2. :class:`LintVisitor` walks the module emitting
   :class:`~repro.lint.rules.Violation` records, consulting the pass-1
   summary wherever a rule cares whether an expression carries drawn
   values (RPL002's seed-consumer check in particular).

Path-sensitive rules are gated on the
:class:`~repro.lint.rules.FileContext` computed from the file's (possibly
virtual) path, so fixtures can exercise any scope by being linted under a
synthetic path.

Within pass 2 the visitor keeps two per-scope name taints:

* *draw taint* (RPL002) — names assigned from expressions that draw values
  off a generator (``x = parent.integers(...)``, or ``x = helper(...)``
  where pass 1 marked ``helper`` draw-returning) are remembered, so
  ``default_rng(x)`` is caught even when the draw is not nested directly
  in the seeding call;
* *sparse taint* (RPL004) — names assigned from sparse constructors or
  ``.tocsr()``-style conversions are remembered, so ``a != b`` on such
  names is caught without type inference.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..observe.counters import NON_RESULT_COUNTER_PREFIXES
from .rules import FileContext, Violation, is_shard_primitive_module

__all__ = ["LintVisitor", "ModuleSummary", "collect_violations",
           "summarize_module"]

#: ``np.random.<name>`` / ``numpy.random.<name>`` calls that mutate or read
#: the hidden global state, or draw from it.
_NP_GLOBAL_FUNCS = frozenset({
    "seed", "get_state", "set_state",
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "normal", "standard_normal", "uniform", "choice",
    "permutation", "shuffle", "binomial", "poisson", "exponential",
    "beta", "gamma", "laplace", "chisquare", "bytes",
})

#: stdlib ``random.<name>`` module-level calls (global Mersenne state).
_STDLIB_GLOBAL_FUNCS = frozenset({
    "seed", "random", "randint", "randrange", "uniform", "choice",
    "choices", "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits",
})

#: Callables that consume seed material and build an RNG / seed sequence.
_SEED_CONSUMERS = frozenset({
    "default_rng", "SeedSequence", "Generator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: Generator methods that draw from (and advance) a stream.
_DRAW_METHODS = frozenset({
    "integers", "random", "choice", "bytes", "normal", "standard_normal",
    "uniform", "randint", "permutation", "permuted", "binomial",
})

#: scipy.sparse constructors / converters that yield sparse matrices.
_SPARSE_CONSTRUCTORS = frozenset({
    "csr_matrix", "csc_matrix", "coo_matrix", "lil_matrix", "dok_matrix",
    "bsr_matrix", "dia_matrix", "csr_array", "csc_array", "coo_array",
    "lil_array", "dok_array", "bsr_array", "dia_array",
})

_SPARSE_CONVERTERS = frozenset({
    "tocsr", "tocsc", "tocoo", "tolil", "todok", "tobsr", "todia",
})

#: Extra ``scipy.sparse`` helpers that also build matrices in loops.
_SPARSE_FACTORY_FUNCS = frozenset({
    "eye", "identity", "diags", "spdiags", "rand", "random",
    "random_array", "kron", "block_diag", "hstack", "vstack", "bmat",
})

_NUMPY_ROOTS = frozenset({"np", "numpy"})
_SPARSE_ROOTS = frozenset({"sp", "sparse", "scipy"})

#: Counter words with a canonical ``<word>_`` prefix (RPL104).
_COUNTER_PREFIX_WORDS = tuple(
    prefix.rstrip("_") for prefix in NON_RESULT_COUNTER_PREFIXES
)

#: The guard function that normalizes the shard identity case (RPL105).
_IDENTITY_GUARD = "normalize_shard"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _literal(node: ast.AST) -> Optional[ast.Constant]:
    """The float/int Constant under an optional unary ``+``/``-``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return node if isinstance(node, ast.Constant) else None


def _param_names(node: ast.AST) -> List[str]:
    """All parameter names of a function definition node."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    arguments = node.args
    params = list(arguments.posonlyargs) + list(arguments.args) \
        + list(arguments.kwonlyargs)
    if arguments.vararg is not None:
        params.append(arguments.vararg)
    if arguments.kwarg is not None:
        params.append(arguments.kwarg)
    return [param.arg for param in params]


# -- pass 1: module-level call-graph draw summaries -----------------------


class ModuleSummary:
    """Pass-1 facts about a module, consumed by :class:`LintVisitor`.

    ``draw_returning`` holds the names of module-level functions whose
    return value derives from a generator draw — directly, or through
    calls to other draw-returning functions in the same module (computed
    as a fixpoint over the local call graph).
    """

    def __init__(self, draw_returning: FrozenSet[str] = frozenset()) -> None:
        self.draw_returning = draw_returning

    def __repr__(self) -> str:
        return f"ModuleSummary(draw_returning={sorted(self.draw_returning)})"


def _direct_draw(node: ast.AST) -> bool:
    """Whether ``node`` contains a generator-method draw, ignoring local
    function calls (those are resolved by the fixpoint)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _DRAW_METHODS:
                return True
    return False


def _local_calls(node: ast.AST, local_names: Set[str]) -> Set[str]:
    """Module-local functions called by bare name anywhere under ``node``."""
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                and sub.func.id in local_names:
            found.add(sub.func.id)
    return found


def _function_return_facts(
    func: ast.AST, local_names: Set[str],
) -> Tuple[bool, Set[str]]:
    """``(returns_draw_directly, local functions feeding its returns)``.

    A linear scan keeps per-name facts: a name assigned from a
    draw-containing expression is draw-tainted; a name assigned from an
    expression calling local functions inherits those as dependencies.
    Returns of tainted names (or draw-containing expressions) make the
    function directly draw-returning; returns touching dependency-carrying
    names defer to the fixpoint.
    """
    tainted: Set[str] = set()
    deps_of: Dict[str, Set[str]] = {}
    returns_draw = False
    return_deps: Set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, ast.Assign):
            targets = [t.id for t in sub.targets if isinstance(t, ast.Name)]
            if not targets:
                continue
            value_draws = _direct_draw(sub.value)
            value_deps = _local_calls(sub.value, local_names)
            for name in [n for n in ast.walk(sub.value)
                         if isinstance(n, ast.Name)]:
                if name.id in tainted:
                    value_draws = True
                value_deps |= deps_of.get(name.id, set())
            for target in targets:
                if value_draws:
                    tainted.add(target)
                else:
                    tainted.discard(target)
                deps_of[target] = value_deps
        elif isinstance(sub, ast.Return) and sub.value is not None:
            if _direct_draw(sub.value):
                returns_draw = True
            return_deps |= _local_calls(sub.value, local_names)
            for name in [n for n in ast.walk(sub.value)
                         if isinstance(n, ast.Name)]:
                if name.id in tainted:
                    returns_draw = True
                return_deps |= deps_of.get(name.id, set())
    return returns_draw, return_deps


def summarize_module(tree: ast.AST) -> ModuleSummary:
    """Pass 1: which module-level functions return rng-drawn values."""
    functions: Dict[str, ast.AST] = {}
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
    local_names = set(functions)
    direct: Dict[str, bool] = {}
    deps: Dict[str, Set[str]] = {}
    for name, func in functions.items():
        direct[name], deps[name] = _function_return_facts(func, local_names)
    draw_returning = {name for name, flag in direct.items() if flag}
    changed = True
    while changed:
        changed = False
        for name in functions:
            if name in draw_returning:
                continue
            if deps[name] & draw_returning:
                draw_returning.add(name)
                changed = True
    return ModuleSummary(frozenset(draw_returning))


# -- pass 2: the lint walk ------------------------------------------------


class _Scope:
    """Per-function (or module) name-taint bookkeeping."""

    def __init__(self) -> None:
        self.draw_tainted: Set[str] = set()
        self.sparse_tainted: Set[str] = set()


class LintVisitor(ast.NodeVisitor):
    """Pass-2 visitor emitting violations for every enabled rule."""

    def __init__(self, context: FileContext,
                 source_lines: Optional[List[str]] = None,
                 summary: Optional[ModuleSummary] = None) -> None:
        self.context = context
        self.violations: List[Violation] = []
        self._lines = source_lines or []
        self._summary = summary or ModuleSummary()
        self._scopes: List[_Scope] = [_Scope()]
        self._loop_depth = 0

    # -- plumbing ---------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = ""
        if 1 <= line <= len(self._lines):
            text = self._lines[line - 1].rstrip("\n")
        self.violations.append(Violation(
            path=self.context.path, line=line, col=col,
            code=code, message=message, source_line=text,
        ))

    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _visit_function(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_identity_delegation(node)
        self._scopes.append(_Scope())
        outer_depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = outer_depth
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    # -- taint tracking ---------------------------------------------------

    def _contains_draw_call(self, node: ast.AST) -> bool:
        """Whether any sub-expression draws from a generator stream —
        directly via a draw method, or through a module-local function
        pass 1 marked draw-returning."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute) and \
                    sub.func.attr in _DRAW_METHODS:
                # ``np.random.integers`` does not exist; any dotted chain
                # ending in a draw method is generator-shaped enough.
                return True
            if isinstance(sub.func, ast.Name) and \
                    sub.func.id in self._summary.draw_returning:
                return True
        return False

    def _is_sparse_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _SPARSE_CONVERTERS:
                return True
            dotted = _dotted(node.func)
            if dotted is not None and \
                    dotted.split(".")[-1] in _SPARSE_CONSTRUCTORS:
                return True
        if isinstance(node, ast.Name):
            return node.id in self._scope.sparse_tainted
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if targets:
            if self._contains_draw_call(node.value):
                self._scope.draw_tainted.update(targets)
            else:
                self._scope.draw_tainted.difference_update(targets)
            if self._is_sparse_expr(node.value):
                self._scope.sparse_tainted.update(targets)
            else:
                self._scope.sparse_tainted.difference_update(targets)
        self.generic_visit(node)

    # -- rules ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_global_rng(node)
        self._check_child_seed(node)
        self._check_todense(node)
        self._check_sparse_in_loop(node)
        self._check_test_randomness(node)
        self._check_json_emission(node)
        self._check_counter_prefix(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._check_sparse_compare(node)
        self._check_float_equality(node)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_shard_arithmetic(node)
        self.generic_visit(node)

    def _check_global_rng(self, node: ast.Call) -> None:
        """RPL001 — global RNG state in library code."""
        if self.context.is_test:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] in _NUMPY_ROOTS
            and parts[1] == "random"
            and parts[2] in _NP_GLOBAL_FUNCS
        ):
            self._report(
                node, "RPL001",
                f"call to the global NumPy RNG `{dotted}`; route randomness "
                f"through repro.utils.rng (as_generator/spawn)",
            )
            return
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _STDLIB_GLOBAL_FUNCS
        ):
            self._report(
                node, "RPL001",
                f"call to the stdlib global RNG `{dotted}`; use a seeded "
                f"numpy Generator instead",
            )
            return
        if parts[-1] == "default_rng" and not node.args and not node.keywords:
            self._report(
                node, "RPL001",
                "bare default_rng() draws OS entropy in library code; "
                "accept an RngLike and use repro.utils.rng.as_generator",
            )

    def _check_child_seed(self, node: ast.Call) -> None:
        """RPL002 — the PR 1 bug: seed material drawn off a parent stream."""
        dotted = _dotted(node.func)
        if dotted is None or dotted.split(".")[-1] not in _SEED_CONSUMERS:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            tainted_name = (
                isinstance(arg, ast.Name)
                and arg.id in self._scope.draw_tainted
            )
            if tainted_name or self._contains_draw_call(arg):
                self._report(
                    node, "RPL002",
                    f"`{dotted.split('.')[-1]}` seeded from values drawn "
                    f"off another generator's stream; child seeds then "
                    f"depend on draw order — use SeedSequence.spawn "
                    f"(repro.utils.rng.spawn/spawn_seeds)",
                )
                return

    def _check_todense(self, node: ast.Call) -> None:
        """RPL003 — ``.todense()`` returns np.matrix."""
        if isinstance(node.func, ast.Attribute) and node.func.attr == "todense":
            self._report(
                node, "RPL003",
                ".todense() returns np.matrix with surprising operator "
                "semantics; use .toarray()",
            )

    def _check_sparse_in_loop(self, node: ast.Call) -> None:
        """RPL005 — sparse assembly / densification inside hot loops."""
        if not self.context.is_hot or self._loop_depth == 0:
            return
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("toarray", "todense"):
            self._report(
                node, "RPL005",
                f".{node.func.attr}() inside a loop in a hot module; "
                f"densify once outside the loop or use a matrix-free "
                f"kernel (repro.sketch.kernels)",
            )
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        name = parts[-1]
        if name in _SPARSE_CONSTRUCTORS or (
            len(parts) >= 2
            and parts[0] in _SPARSE_ROOTS
            and name in _SPARSE_FACTORY_FUNCS
        ):
            self._report(
                node, "RPL005",
                f"sparse construction `{dotted}` inside a loop in a hot "
                f"module; hoist it or apply matrix-free",
            )

    def _check_test_randomness(self, node: ast.Call) -> None:
        """RPL008 — unseeded randomness in tests/benchmarks."""
        if not self.context.is_test:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        name = parts[-1]
        bare = not node.args and not node.keywords
        if name in ("default_rng", "SeedSequence") and bare:
            self._report(
                node, "RPL008",
                f"unseeded {name}() in a test; pass an explicit seed or a "
                f"spawned child (repro.utils.rng.spawn)",
            )
            return
        if name in _SEED_CONSUMERS - {"default_rng", "SeedSequence", "Generator"} \
                and bare:
            self._report(
                node, "RPL008",
                f"unseeded bit generator {name}() in a test; seed it "
                f"explicitly",
            )
            return
        if len(parts) == 2 and parts[0] == "random" \
                and name in _STDLIB_GLOBAL_FUNCS:
            self._report(
                node, "RPL008",
                f"stdlib global RNG `{dotted}` in a test; use a seeded "
                f"numpy Generator",
            )
            return
        if name == "randoms":
            for kw in node.keywords:
                if kw.arg == "use_true_random" and \
                        isinstance(kw.value, ast.Constant) and \
                        kw.value.value is True:
                    self._report(
                        node, "RPL008",
                        "hypothesis randoms(use_true_random=True) bypasses "
                        "example replay; drop it so failures reproduce",
                    )
                    return

    def _check_json_emission(self, node: ast.Call) -> None:
        """RPL101 — strict JSON emission in result-IO modules."""
        if self.context.is_test or not self.context.is_result_io:
            return
        dotted = _dotted(node.func)
        if dotted not in ("json.dump", "json.dumps"):
            return
        keywords = {kw.arg: kw.value for kw in node.keywords
                    if kw.arg is not None}
        allow_nan = keywords.get("allow_nan")
        strict_nan = (
            isinstance(allow_nan, ast.Constant) and allow_nan.value is False
        )
        has_default = "default" in keywords
        wrapped_payload = bool(node.args) and (
            isinstance(node.args[0], ast.Call)
            and _dotted(node.args[0].func) is not None
            and _dotted(node.args[0].func).split(".")[-1]
            in ("to_builtin", "canonical_json")
        )
        missing = []
        if not strict_nan:
            missing.append("allow_nan=False")
        if not (has_default or wrapped_payload):
            missing.append("default=json_default (or a to_builtin(...) "
                           "payload)")
        if missing:
            self._report(
                node, "RPL101",
                f"`{dotted}` in a result-IO module without "
                f"{' and '.join(missing)}; NaN tokens and numpy scalars "
                f"must fail at the emit site, not in a reader",
            )

    def _check_counter_prefix(self, node: ast.Call) -> None:
        """RPL104 — bookkeeping counters must carry their canonical prefix."""
        if self.context.is_test:
            return
        dotted = _dotted(node.func)
        if dotted is None or dotted.split(".")[-1] not in ("add_count",
                                                           "increment"):
            return
        if not node.args:
            return
        first = node.args[0]
        if not isinstance(first, ast.Constant) or \
                not isinstance(first.value, str):
            return
        name = first.value
        if name.startswith("count_"):
            self._report(
                node, "RPL104",
                f"counter {name!r} uses the reserved `count_` result-metric "
                f"namespace; counters surface as count_<name> automatically",
            )
            return
        for word in _COUNTER_PREFIX_WORDS:
            if word in name and not name.startswith(word + "_"):
                self._report(
                    node, "RPL104",
                    f"counter {name!r} mentions `{word}` but does not start "
                    f"with `{word}_`; bookkeeping counters must match "
                    f"NON_RESULT_COUNTER_PREFIXES so they never leak into "
                    f"count_* result metrics",
                )
                return

    def _check_shard_arithmetic(self, node: ast.BinOp) -> None:
        """RPL103 — hand-rolled shard/span arithmetic in library code."""
        if self.context.is_test or \
                is_shard_primitive_module(self.context.path):
            return
        if not isinstance(node.op, (ast.Mult, ast.FloorDiv, ast.Mod, ast.Div)):
            return
        for operand in (node.left, node.right):
            dotted = _dotted(operand)
            if dotted is None:
                continue
            tail = dotted.split(".")[-1]
            if "shard" in tail:
                self._report(
                    node, "RPL103",
                    f"arithmetic on `{dotted}` hand-rolls shard/span "
                    f"partitioning; use shard_spans (repro.utils.parallel), "
                    f"which tiles exactly",
                )
                return

    def _check_identity_delegation(self, node: ast.AST) -> None:
        """RPL105 — a shard param needs an identity guard or pure
        forwarding."""
        if self.context.is_test or not self.context.is_trial_engine:
            return
        if "shard" not in _param_names(node) or self._has_identity_guard(node):
            return
        bad = self._computational_use(node, "shard")
        if bad is not None:
            self._report(
                bad, "RPL105",
                "`shard` used computationally without an identity-case "
                "guard; normalize it first (normalize_shard / explicit "
                "None comparison) so shard=None delegates to the "
                "unsharded path",
            )

    @staticmethod
    def _has_identity_guard(func: ast.AST) -> bool:
        for sub in ast.walk(func):
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted is not None and \
                        dotted.split(".")[-1] == _IDENTITY_GUARD:
                    return True
            if isinstance(sub, ast.Compare):
                operands = [sub.left, *sub.comparators]
                if any(isinstance(o, ast.Name) and o.id == "shard"
                       for o in operands) and any(
                           isinstance(o, ast.Constant) and o.value is None
                           for o in operands):
                    return True
        return False

    @staticmethod
    def _computational_use(func: ast.AST, param: str) -> Optional[ast.AST]:
        """First node computing with ``param`` (vs merely forwarding it)."""
        computational = (ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Subscript,
                         ast.Compare)
        for sub in ast.walk(func):
            if not isinstance(sub, computational):
                continue
            for name in ast.walk(sub):
                if isinstance(name, ast.Name) and name.id == param:
                    return sub
        return None

    def _check_sparse_compare(self, node: ast.Compare) -> None:
        """RPL004 — == / != with a sparse operand."""
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left] + list(node.comparators)
        if any(self._is_sparse_expr(operand) for operand in operands):
            self._report(
                node, "RPL004",
                "== / != on a sparse matrix densifies or yields a sparse "
                "boolean (SparseEfficiencyWarning); compare canonical CSC "
                "structure (indptr/indices/data) instead",
            )

    def _check_float_equality(self, node: ast.Compare) -> None:
        """RPL006 — exact equality against a non-integral float literal."""
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in [node.left] + list(node.comparators):
            constant = _literal(operand)
            if constant is None or not isinstance(constant.value, float):
                continue
            if not float(constant.value).is_integer():
                self._report(
                    node, "RPL006",
                    f"exact comparison against float literal "
                    f"{constant.value!r}; use np.isclose/math.isclose with "
                    f"an explicit tolerance",
                )
                return


def collect_violations(tree: ast.AST, context: FileContext,
                       source_lines: Optional[List[str]] = None
                       ) -> List[Violation]:
    """Run both passes over ``tree`` and return pass 2's findings."""
    summary = summarize_module(tree)
    visitor = LintVisitor(context, source_lines=source_lines,
                          summary=summary)
    visitor.visit(tree)
    return visitor.violations


# Names referenced by the engine for rule-count sanity checks.
_CHECK_METHODS: Dict[str, str] = {
    "RPL001": "_check_global_rng",
    "RPL002": "_check_child_seed",
    "RPL003": "_check_todense",
    "RPL004": "_check_sparse_compare",
    "RPL005": "_check_sparse_in_loop",
    "RPL006": "_check_float_equality",
    "RPL008": "_check_test_randomness",
    "RPL101": "_check_json_emission",
    "RPL103": "_check_shard_arithmetic",
    "RPL104": "_check_counter_prefix",
    "RPL105": "_check_identity_delegation",
}
