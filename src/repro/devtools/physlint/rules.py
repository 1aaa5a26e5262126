"""The built-in physlint rules.

Each rule encodes one repository convention:

==========  ==================  ==============================================
Code        Name                Convention guarded
==========  ==================  ==============================================
``RPR101``  unit-literal        Unit conversions live in :mod:`repro.units`,
                                not inline as magic factors.
``RPR201``  exception-hygiene   Library code raises :class:`ReproError`
                                subclasses and never catches blindly.
``RPR202``  assert-validation   ``assert`` is for tests; it vanishes under
                                ``python -O``.
``RPR204``  swallowed-exception A caught :class:`ReproError` must be
                                handled, not silently dropped or merely
                                logged.
``RPR301``  dense-solve         Grid-sized systems go through the sparse
                                path in ``thermal/network.py``.
``RPR302``  solver-in-loop      Factorizations and format conversions are
                                hoisted out of loops; the operator layer in
                                ``thermal/operator.py`` caches them.
``RPR401``  docstring-units     Public functions taking physical quantities
                                state their units.
``RPR501``  print-in-library    Library code returns data, raises, or emits
                                telemetry through :mod:`repro.obs`; only the
                                CLI layer prints.
``RPR502``  span-hygiene        Tracer spans and stopwatches are closed on
                                every path (context manager or try/finally).
``RPR503``  wall-clock-deadline Deadline and timeout arithmetic uses the
                                monotonic clock, never ``time.time()``.
``RPR504``  telemetry-hot-loop  Spans and stopwatches are entered
                                (``with``), never discarded.
``RPR601``  process-state       Module globals stay process-safe: no
                                module-level mutable caches, no unseeded
                                RNG construction, no draws from the
                                ambient ``random``/``numpy.random``
                                stream (``repro.exec`` workers).
``RPR701``  unit-arith          Addition/subtraction operands carry the
                                same declared unit (dimensional flow).
``RPR702``  unit-compare        Comparison operands carry the same
                                declared unit (dimensional flow).
==========  ==================  ==============================================

The cross-module rule ``RPR703`` unit-call lives in
:mod:`~repro.devtools.physlint.project` and runs in the same lint pass
over the summaries of every linted file.

New rules: subclass :class:`~repro.devtools.physlint.core.Rule`, pick the
next free code in the band (1xx units, 2xx exceptions/control flow,
3xx numerics, 4xx documentation, 5xx observability, 6xx process/parallel
safety, 7xx dimensional flow), decorate with
:func:`~repro.devtools.physlint.core.rule`, and give the class docstring
``Fail::`` and ``Pass::`` example blocks — ``repro lint --explain``
prints them.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Tuple

from ...units import RPM_TO_RAD_S, ZERO_CELSIUS_K
from .core import (
    LintContext,
    Rule,
    collect_imports,
    resolve_dotted,
    rule,
)

# ---------------------------------------------------------------------------
# RPR101 — unit-literal
# ---------------------------------------------------------------------------

#: Scale factors that smell like an inline length/time unit conversion,
#: mapped to the boundary helper that should be used instead.
_SCALE_HINTS: Dict[float, str] = {
    1e-3: "mm_to_m (or s_to_ms for the inverse direction)",
    1e-6: "um_to_m",
    1e3: "m_to_mm or s_to_ms",
    1e6: "m_to_um",
}

_PI_NAMES = ("pi", "math.pi", "np.pi", "numpy.pi")


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _const_fold(node: ast.AST) -> Optional[float]:
    """Fold a numeric expression made of literals and ``pi`` names."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) \
                and not isinstance(node.value, bool):
            return float(node.value)
        return None
    dotted = _dotted_name(node)
    if dotted in _PI_NAMES:
        return 3.141592653589793
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_fold(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp):
        left = _const_fold(node.left)
        right = _const_fold(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return None if right == 0.0 else left / right
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
    return None


def _is_number(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


@rule
class UnitLiteralRule(Rule):
    """Physical-constant literals belong in ``units.py``/``constants.py``.

    Fail::

        omega = rpm * 2 * pi / 60
        t_c = t_k - 273.15

    Pass::

        from repro.units import kelvin_to_celsius, rpm_to_rad_s

        omega = rpm_to_rad_s(rpm)
        t_c = kelvin_to_celsius(t_k)
    """

    code = "RPR101"
    name = "unit-literal"
    rationale = (
        "The library is strictly SI internally; conversions happen only "
        "at the boundaries through repro.units.  An inline 273.15 or "
        "2*pi/60 is a latent double-conversion bug.")
    exempt_suffixes = ("/units.py", "/constants.py")

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float) and node.value == ZERO_CELSIUS_K:
            self.emit(node, (
                "Celsius offset literal 273.15; use "
                "repro.units.celsius_to_kelvin/kelvin_to_celsius "
                "(or ZERO_CELSIUS_K)"))

    def visit_BinOp(self, node: ast.BinOp) -> None:
        folded = _const_fold(node)
        if folded is not None:
            if abs(folded - RPM_TO_RAD_S) < 1e-12:
                self.emit(node, (
                    "inline RPM-to-rad/s factor (2*pi/60); use "
                    "repro.units.rpm_to_rad_s"))
                return
            if abs(folded - 1.0 / RPM_TO_RAD_S) < 1e-9:
                self.emit(node, (
                    "inline rad/s-to-RPM factor (60/(2*pi)); use "
                    "repro.units.rad_s_to_rpm"))
                return
            # A fully constant expression is a definition, not a
            # conversion of a runtime value; leave it alone.
            self.generic_visit(node)
            return
        scaled = self._scale_factor(node)
        if scaled is not None:
            factor, hint = scaled
            self.emit(node, (
                f"inline scale factor {factor:g} on a runtime value; "
                f"use the repro.units boundary helper ({hint})"))
        self.generic_visit(node)

    def _scale_factor(self, node: ast.BinOp) \
            -> Optional[Tuple[float, str]]:
        """Detect ``value * 1e-3``-style conversions of runtime values."""
        if isinstance(node.op, ast.Mult):
            for literal, other in ((node.left, node.right),
                                   (node.right, node.left)):
                if _is_number(literal) and not _is_number(other):
                    value = float(literal.value)  # type: ignore[attr-defined]
                    if value in _SCALE_HINTS:
                        return value, _SCALE_HINTS[value]
        elif isinstance(node.op, ast.Div):
            if _is_number(node.right) and not _is_number(node.left):
                value = float(node.right.value)  # type: ignore[attr-defined]
                if value in _SCALE_HINTS:
                    inverse = 1.0 / value
                    hint = _SCALE_HINTS.get(inverse,
                                            _SCALE_HINTS[value])
                    return value, hint
        return None


# ---------------------------------------------------------------------------
# RPR201 — exception-hygiene
# ---------------------------------------------------------------------------

_BUILTIN_EXCEPTIONS = frozenset({
    "ArithmeticError",
    "AssertionError",
    "BaseException",
    "Exception",
    "IndexError",
    "KeyError",
    "LookupError",
    "RuntimeError",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
})

_BROAD_EXCEPTIONS = frozenset({"BaseException", "Exception"})


@rule
class ExceptionHygieneRule(Rule):
    """Library code speaks :class:`ReproError`, not bare builtins.

    Fail::

        try:
            solve(network)
        except Exception:
            return None
        raise ValueError("negative thickness")

    Pass::

        try:
            solve(network)
        except SolverError:
            return fallback(network)
        raise GeometryError("negative thickness")
    """

    code = "RPR201"
    name = "exception-hygiene"
    rationale = (
        "Callers catch ReproError to mean 'this package failed'.  A "
        "raised ValueError escapes that contract, and a bare/broad "
        "except swallows ThermalRunawayError and friends silently.")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit(node, (
                "bare `except:` swallows every error including "
                "ReproError; catch a specific exception"))
        else:
            for name in self._handler_names(node.type):
                if name in _BROAD_EXCEPTIONS:
                    self.emit(node, (
                        f"overly broad `except {name}`; catch a "
                        "specific exception (ReproError for library "
                        "failures)"))
        self.generic_visit(node)

    @staticmethod
    def _handler_names(node: ast.expr) -> List[str]:
        nodes: Sequence[ast.expr] = (
            node.elts if isinstance(node, ast.Tuple) else [node])
        return [n.id for n in nodes if isinstance(n, ast.Name)]

    def visit_Raise(self, node: ast.Raise) -> None:
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Name) \
                and target.id in _BUILTIN_EXCEPTIONS:
            self.emit(node, (
                f"library code raises builtin {target.id}; raise a "
                "ReproError subclass from repro.errors instead"))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# RPR202 — assert-validation
# ---------------------------------------------------------------------------

@rule
class AssertValidationRule(Rule):
    """``assert`` is a test-suite tool, not an input validator.

    Fail::

        def set_current(self, current_a):
            assert current_a >= 0.0

    Pass::

        def set_current(self, current_a):
            if current_a < 0.0:
                raise ConfigurationError("current must be >= 0")
    """

    code = "RPR202"
    name = "assert-validation"
    rationale = (
        "`python -O` strips assert statements, so any validation they "
        "perform silently disappears in optimized deployments.")

    def visit_Assert(self, node: ast.Assert) -> None:
        self.emit(node, (
            "assert statement is stripped under `python -O`; raise "
            "ConfigurationError/GeometryError (or another ReproError) "
            "for validation"))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# RPR204 — swallowed-exception
# ---------------------------------------------------------------------------

#: Every exception class exported by :mod:`repro.errors`; catching one
#: of these and doing nothing hides a physical failure mode (thermal
#: runaway, singular network, exhausted budget) from the caller.
_REPRO_ERROR_NAMES = frozenset({
    "CalibrationError",
    "ConfigurationError",
    "EvaluationBudgetError",
    "FloorplanParseError",
    "GeometryError",
    "IndefiniteSystemError",
    "InfeasibleProblemError",
    "MaterialError",
    "ReproError",
    "SingularNetworkError",
    "SolveTimeoutError",
    "SolverError",
    "ThermalRunawayError",
})

#: Call heads considered "log-and-forget" rather than handling.
_LOGGING_HEADS = frozenset({"log", "logger", "logging", "warnings"})


def _is_logging_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted_name(node.func)
    if dotted is None:
        return False
    head = dotted.split(".")[0]
    return dotted == "print" or head in _LOGGING_HEADS


@rule
class SwallowedExceptionRule(Rule):
    """A caught :class:`ReproError` deserves more than ``pass``.

    Fail::

        try:
            temps = operator.solve(loads)
        except SolverError:
            pass

    Pass::

        try:
            temps = operator.solve(loads)
        except SolverError as exc:
            record_failure(exc)
            temps = last_known_good
    """

    code = "RPR204"
    name = "swallowed-exception"
    rationale = (
        "ThermalRunawayError and friends encode physical failure "
        "modes; an `except SolverError: pass` (or log-and-forget) "
        "turns a diverging chip into silence.  Handlers must record "
        "the failure, degrade explicitly, or re-raise.")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = self._caught_repro_errors(node)
        if caught and self._body_is_silent(node.body):
            listing = ", ".join(caught)
            self.emit(node, (
                f"`except {listing}` swallows the failure (body is "
                "only pass/continue/logging); record it, degrade "
                "explicitly, or re-raise"))
        self.generic_visit(node)

    @staticmethod
    def _caught_repro_errors(node: ast.ExceptHandler) -> List[str]:
        if node.type is None:
            return []
        exprs: Sequence[ast.expr] = (
            node.type.elts if isinstance(node.type, ast.Tuple)
            else [node.type])
        names = []
        for expr in exprs:
            dotted = _dotted_name(expr)
            if dotted is not None \
                    and dotted.split(".")[-1] in _REPRO_ERROR_NAMES:
                names.append(dotted)
        return names

    @staticmethod
    def _body_is_silent(body: Sequence[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue)):
                continue
            if isinstance(statement, ast.Expr) and (
                    isinstance(statement.value, ast.Constant)
                    or _is_logging_call(statement.value)):
                continue
            return False
        return True


# ---------------------------------------------------------------------------
# RPR301 — dense-solve
# ---------------------------------------------------------------------------

_DENSE_CALLS = frozenset({"solve", "inv"})
_DENSE_MODULES = frozenset({"numpy.linalg", "scipy.linalg"})


@rule
class DenseSolveRule(Rule):
    """Grid-sized linear systems must use the sparse path.

    Fail::

        import numpy as np

        temps = np.linalg.solve(conductance, loads)

    Pass::

        temps = network.solve(loads)   # scipy.sparse inside
    """

    code = "RPR301"
    name = "dense-solve"
    rationale = (
        "The conductance matrix has O(cells) nonzeros but O(cells^2) "
        "dense entries; np.linalg.solve turns a milli-second sparse "
        "factorization into a memory-bound dense one.  All steady-state "
        "solves route through ThermalNetwork.solve (scipy.sparse).")

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        #: Local names bound to dense solve/inv by an import.
        self._dense_names: Dict[str, str] = {}

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) >= 2 and parts[-1] in _DENSE_CALLS \
                    and parts[-2] == "linalg":
                self.emit(node, (
                    f"dense `{dotted}` on what is likely a grid-sized "
                    "system; route through ThermalNetwork.solve "
                    "(scipy.sparse) from repro.thermal"))
            elif dotted in self._dense_names:
                origin = self._dense_names[dotted]
                self.emit(node, (
                    f"dense `{dotted}` (imported from {origin}) on "
                    "what is likely a grid-sized system; route through "
                    "ThermalNetwork.solve (scipy.sparse) from "
                    "repro.thermal"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in _DENSE_MODULES:
            imported = [alias for alias in node.names
                        if alias.name in _DENSE_CALLS]
            for alias in imported:
                self._dense_names[alias.asname or alias.name] = \
                    node.module
            if imported:
                names = ", ".join(a.name for a in imported)
                self.emit(node, (
                    f"importing dense {names} from "
                    f"{node.module}; grid-sized systems must use the "
                    "sparse path (ThermalNetwork.solve)"))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# RPR302 — solver-in-loop
# ---------------------------------------------------------------------------

#: Function names whose call performs (or prepares) a fresh sparse
#: factorization; calling one per loop iteration discards the work the
#: operator layer exists to cache.
_FACTOR_CALLS = frozenset({"factorized", "splu", "spsolve"})

#: Sparse-format conversion methods; in a loop they rebuild index
#: arrays that the precomputed diagonal map makes unnecessary.
_CONVERSION_METHODS = frozenset({"tocsc", "tocsr"})


@rule
class SolverInLoopRule(Rule):
    """Factorizations and format conversions do not belong in loops.

    Fail::

        for loads in cases:
            temps = spsolve(matrix.tocsc(), loads)

    Pass::

        solve = factorized(matrix.tocsc())
        for loads in cases:
            temps = solve(loads)
    """

    code = "RPR302"
    name = "solver-in-loop"
    rationale = (
        "spsolve/splu inside a for/while loop refactorizes a matrix "
        "with the same sparsity pattern every iteration, and .tocsc()/"
        ".tocsr() rebuilds its index arrays; both throw away work that "
        "ThermalOperator caches.  Route repeated solves through "
        "ThermalNetwork.solve (repro.thermal), which updates the "
        "factorized system in place.")

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._loop_depth = 0

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: ast.AST) -> None:
        # A def nested in a loop body runs when *called*, not once per
        # iteration, so the loop context does not carry into it.
        saved = self._loop_depth
        self._loop_depth = 0
        self.generic_visit(node)
        self._loop_depth = saved

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth > 0:
            dotted = _dotted_name(node.func)
            tail = dotted.split(".")[-1] if dotted else None
            if tail in _FACTOR_CALLS:
                self.emit(node, (
                    f"`{tail}` inside a loop refactorizes the system "
                    "every iteration; factor once before the loop or "
                    "route through ThermalNetwork.solve, which caches "
                    "factorizations (repro.thermal)"))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _CONVERSION_METHODS:
                self.emit(node, (
                    f"`.{node.func.attr}()` inside a loop rebuilds "
                    "sparse index arrays every iteration; convert once "
                    "before the loop or use the operator layer's "
                    "in-place diagonal update (repro.thermal)"))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# RPR401 — docstring-units
# ---------------------------------------------------------------------------

#: Words (underscore-separated components of a parameter name) that mark
#: the parameter as a physical quantity.
_QUANTITY_WORDS = frozenset({
    "area",
    "conductance",
    "conductivity",
    "current",
    "currents",
    "frequency",
    "height",
    "omega",
    "power",
    "powers",
    "resistance",
    "temp",
    "temperature",
    "temperatures",
    "thickness",
    "voltage",
    "width",
})

#: Unit spellings accepted as "states the unit".  Single letters only
#: count in quantity positions — after a comma, bracket, or "in" — so a
#: sentence-initial "A" does not pass as amperes.
_UNIT_TOKEN_RE = re.compile(r"""(?x)
      rad/s | RPM | [Kk]elvin | [Cc]elsius | °C
    | W/K | J/K | W/m | m/s | m\^?2 | m² | Hz | dB
    | \bmm\b | µm | \bum\b | \bms\b | \bkg\b | \bPa\b
    | watt | amp | ampere | meter | metre | joule | second | ohm
    | [,(\[]\s*(?:K|W|A|V|m|s)\b
    | \bin\s+(?:K|W|A|V|m|s)\b
""")


#: A trailing qualifier that turns a quantity name into a non-quantity:
#: ``current_samples`` is a count and ``power_model`` an object, even
#: though ``current``/``power`` alone would be physical.
_QUALIFIER_SUFFIXES = frozenset({
    "bins",
    "count",
    "counts",
    "index",
    "indices",
    "model",
    "models",
    "points",
    "resolution",
    "samples",
    "steps",
})


def _physical_params(node: ast.FunctionDef) -> List[str]:
    names: List[str] = []
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg in ("self", "cls"):
            continue
        words = arg.arg.lower().split("_")
        if words[-1] in _QUALIFIER_SUFFIXES:
            continue
        if set(words) & _QUANTITY_WORDS:
            names.append(arg.arg)
    return names


@rule
class DocstringUnitsRule(Rule):
    """Public functions taking physical quantities document the unit.

    Fail::

        def fan_power(omega):
            \"\"\"Fan input power.\"\"\"

    Pass::

        def fan_power(omega):
            \"\"\"Fan input power, W.

            Args:
                omega: Fan speed, rad/s.
            \"\"\"
    """

    code = "RPR401"
    name = "docstring-units"
    rationale = (
        "An `omega` could be RPM or rad/s and a `temperature` Celsius "
        "or kelvin; the docstring is the only place the caller learns "
        "which.  House style: 'Fan speed, rad/s.'")

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._function_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def _check_function(self, node: ast.FunctionDef) -> None:
        nested = self._function_depth > 0
        if not nested and not node.name.startswith("_"):
            params = _physical_params(node)
            if params:
                docstring = ast.get_docstring(node)
                listing = ", ".join(params)
                if docstring is None:
                    self.emit(node, (
                        f"public function `{node.name}` takes physical "
                        f"parameter(s) {listing} but has no docstring "
                        "stating their units"))
                elif not _UNIT_TOKEN_RE.search(docstring):
                    self.emit(node, (
                        f"docstring of `{node.name}` does not state "
                        f"units for physical parameter(s) {listing} "
                        "(e.g. 'Fan speed, rad/s.')"))
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1


# ---------------------------------------------------------------------------
# RPR501 — print-in-library
# ---------------------------------------------------------------------------

#: Path suffixes where printing is the job, not a smell.
_PRINT_EXEMPT_SUFFIXES = ("/cli.py", "/__main__.py")

#: Path fragments marking presentation or tooling layers where stdout
#: is the intended interface.
_PRINT_EXEMPT_FRAGMENTS = ("/devtools/", "/examples/", "/benchmarks/")


@rule
class PrintInLibraryRule(Rule):
    """Library code must not write to stdout; that is the CLI's job.

    Fail::

        def solve(self, loads):
            print("solving", len(loads))

    Pass::

        def solve(self, loads):
            _obs.event("solve.start", cells=len(loads))
    """

    code = "RPR501"
    name = "print-in-library"
    rationale = (
        "A print() buried in a solver corrupts JSON pipelines "
        "(`repro ... --json | jq`), vanishes in batch jobs, and cannot "
        "be aggregated.  Library code returns data, raises a "
        "ReproError, or records telemetry through repro.obs; only the "
        "CLI and reporter layers print.")

    @classmethod
    def applies_to(cls, posix_path: str) -> bool:
        if any(posix_path.endswith(suffix)
               for suffix in _PRINT_EXEMPT_SUFFIXES):
            return False
        return not any(fragment in posix_path
                       for fragment in _PRINT_EXEMPT_FRAGMENTS)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.emit(node, (
                "print() in library code; return the data, raise a "
                "ReproError, or record it via repro.obs (events/"
                "metrics) and let the CLI layer present it"))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# RPR601 — process-state
# ---------------------------------------------------------------------------

#: Constructor call tails that build a mutable container regardless of
#: their arguments (``defaultdict(list)`` is still an empty cache).
_CACHE_CONSTRUCTORS = frozenset({
    "Counter",
    "OrderedDict",
    "defaultdict",
    "deque",
})

#: Builtin container constructors; only the zero-argument form is an
#: empty-cache smell (``dict(a=1)`` is a constant table).
_BUILTIN_CONTAINERS = frozenset({"dict", "list", "set"})

#: RNG constructor tails that must receive an explicit seed.
_RNG_CONSTRUCTORS = frozenset({"Random", "RandomState", "default_rng"})

#: Module-level functions of :mod:`random` and :mod:`numpy.random`
#: that draw from (or reseed) the process-global stream.
_AMBIENT_RNG = frozenset(
    {f"random.{name}" for name in (
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "normalvariate", "paretovariate", "randint",
        "random", "randrange", "sample", "seed", "shuffle",
        "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    )}
    | {f"numpy.random.{name}" for name in (
        "choice", "exponential", "normal", "permutation", "poisson",
        "rand", "randint", "randn", "random", "random_sample", "seed",
        "shuffle", "standard_normal", "uniform",
    )})


def _empty_mutable_init(node: ast.expr) -> Optional[str]:
    """Describe an empty-mutable-container initializer; None otherwise."""
    if isinstance(node, ast.Dict) and not node.keys:
        return "{}"
    if isinstance(node, ast.List) and not node.elts:
        return "[]"
    if isinstance(node, ast.Call):
        dotted = _dotted_name(node.func)
        tail = dotted.split(".")[-1] if dotted else None
        if tail in _CACHE_CONSTRUCTORS:
            return f"{tail}(...)"
        if tail in _BUILTIN_CONTAINERS and not node.args \
                and not node.keywords:
            return f"{tail}()"
    return None


@rule
class ProcessStateRule(Rule):
    """Module globals and RNGs must survive worker processes.

    Fail::

        _CACHE = {}
        rng = np.random.default_rng()
        noise = np.random.normal(0.0, 1.0)

    Pass::

        class OperatorCache:
            def __init__(self):
                self._entries = {}

        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, 1.0)
    """

    code = "RPR601"
    name = "process-state"
    rationale = (
        "repro.exec runs work in worker processes: under spawn every "
        "module re-imports, under fork inherited telemetry state is "
        "reset.  A module-level mutable cache silently becomes one "
        "independent copy per process whose contents never merge "
        "back, and an unseeded RNG — or a draw from the ambient "
        "random/numpy.random stream — yields a different stream in "
        "every process; all break the parallel bit-identity "
        "contract.")

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._aliases: Dict[str, str] = {}
        self._from_imports: Dict[str, str] = {}

    def visit_Module(self, node: ast.Module) -> None:
        self._aliases, self._from_imports = collect_imports(node)
        for statement in node.body:
            targets: Sequence[ast.expr] = ()
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign):
                targets, value = [statement.target], statement.value
            if value is None:
                continue
            described = _empty_mutable_init(value)
            if described is None:
                continue
            names = ", ".join(
                name for name in (_dotted_name(t) for t in targets)
                if name is not None) or "<target>"
            self.emit(statement, (
                f"module-level mutable container `{names} = "
                f"{described}` is per-process state: every repro.exec "
                "worker gets an independent copy whose contents never "
                "merge back; scope the cache to an object (or justify "
                "import-time-only population with a disable comment)"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        tail = dotted.split(".")[-1] if dotted else None
        if tail in _RNG_CONSTRUCTORS and self._unseeded(node):
            self.emit(node, (
                f"`{dotted}` constructed without a seed draws a "
                "different stream in every process and every run; "
                "pass an explicit seed (derive per-worker streams "
                "with SeedSequence or FaultPlan.derive)"))
        full = resolve_dotted(dotted, self._aliases,
                              self._from_imports) if dotted else None
        if full in _AMBIENT_RNG:
            self.emit(node, (
                f"ambient RNG `{full}` draws from the process-global "
                "stream, which differs per worker and per run; use a "
                "Generator seeded from the unit payload"))
        self.generic_visit(node)

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        seed: Optional[ast.expr] = node.args[0] if node.args else None
        if seed is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
                    break
        return (isinstance(seed, ast.Constant)
                and seed.value is None)


# ---------------------------------------------------------------------------
# RPR502 — span-hygiene
# ---------------------------------------------------------------------------

#: Call tails that open a span when their result is bound to a name.
_SPAN_OPENERS = frozenset({"start_span"})

#: Call tails that create a stopwatch when bound to a name.
_WATCH_OPENERS = frozenset({"stopwatch", "Stopwatch"})

#: Close spellings per resource kind: a call tail receiving the
#: resource (spans), or a method on the resource (stopwatches).
_SPAN_CLOSER_TAILS = frozenset({"end_span"})
_WATCH_CLOSER_METHODS = frozenset({"stop"})


def _open_assignment(statement: ast.stmt,
                     ) -> Optional[Tuple[str, str, ast.stmt]]:
    """``(name, kind, anchor)`` for ``x = start_span(...)`` shapes."""
    if not isinstance(statement, ast.Assign) \
            or len(statement.targets) != 1 \
            or not isinstance(statement.targets[0], ast.Name) \
            or not isinstance(statement.value, ast.Call):
        return None
    dotted = _dotted_name(statement.value.func)
    tail = dotted.split(".")[-1] if dotted else None
    if tail in _SPAN_OPENERS:
        return statement.targets[0].id, "span", statement
    if tail in _WATCH_OPENERS:
        return statement.targets[0].id, "stopwatch", statement
    return None


def _deep_nodes(statements: Sequence[ast.stmt]) -> List[ast.AST]:
    """All nodes under the statements, excluding nested def bodies."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(statements)
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _is_closer(node: ast.AST, name: str, kind: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if kind == "span":
        dotted = _dotted_name(node.func)
        tail = dotted.split(".")[-1] if dotted else None
        if tail not in _SPAN_CLOSER_TAILS:
            return False
        return any(isinstance(arg, ast.Name) and arg.id == name
                   for arg in node.args)
    return (isinstance(node.func, ast.Attribute)
            and node.func.attr in _WATCH_CLOSER_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name)


def _closes(statements: Sequence[ast.stmt], name: str,
            kind: str) -> bool:
    return any(_is_closer(node, name, kind)
               for node in _deep_nodes(statements))


def _escapes(statements: Sequence[ast.stmt], name: str,
             kind: str) -> bool:
    """Whether ownership of ``name`` is handed off downstream.

    Returning/yielding the resource, storing it, or passing it to a
    non-closing call transfers responsibility; entering it as a
    context manager discharges it outright.
    """

    def _mentions(node: ast.AST) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id == name
                   for sub in ast.walk(node))

    for node in _deep_nodes(statements):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                and node.value is not None and _mentions(node.value):
            return True
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Name) \
                        and item.context_expr.id == name:
                    return True
        if isinstance(node, ast.Call) \
                and not _is_closer(node, name, kind):
            operands = [*node.args,
                        *(kw.value for kw in node.keywords)]
            if any(_mentions(arg) for arg in operands):
                return True
        if isinstance(node, ast.Assign) and _mentions(node.value):
            return True
    return False


@rule
class SpanHygieneRule(Rule):
    """Spans and stopwatches must be closed on every exit path.

    Fail::

        span = tracer.start_span("solve")
        temps = operator.solve(loads)   # may raise: span leaks
        tracer.end_span(span)

    Pass::

        span = tracer.start_span("solve")
        try:
            temps = operator.solve(loads)
        finally:
            tracer.end_span(span)
    """

    code = "RPR502"
    name = "span-hygiene"
    rationale = (
        "A span opened with start_span and closed only on the happy "
        "path stays open forever when the guarded code raises: the "
        "trace shows a phantom multi-second span, nesting depth "
        "drifts, and stopwatch metrics silently never record.  Close "
        "in a try/finally, use the context-manager form, or hand the "
        "resource off explicitly.")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_scope(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._check_scope(node)
        self.generic_visit(node)

    def _check_scope(self, function: ast.AST) -> None:
        for body in self._statement_lists(function):
            for index, statement in enumerate(body):
                opened = _open_assignment(statement)
                if opened is None:
                    continue
                name, kind, anchor = opened
                self._judge(name, kind, anchor, body[index + 1:])

    def _judge(self, name: str, kind: str, anchor: ast.stmt,
               rest: Sequence[ast.stmt]) -> None:
        if rest:
            first = rest[0]
            if _is_closer_stmt(first, name, kind):
                return  # closed before anything can raise
            if isinstance(first, ast.Try) \
                    and _closes(first.finalbody, name, kind):
                return
        if _escapes(rest, name, kind):
            return
        if _closes(rest, name, kind):
            self.emit(anchor, (
                f"{kind} `{name}` is closed on the happy path only; "
                "an exception in between leaks it — close in a "
                "try/finally or use the context-manager form"))
        else:
            self.emit(anchor, (
                f"{kind} `{name}` is never closed in this scope; "
                "close it in a try/finally, use the context-manager "
                "form, or hand it off explicitly"))

    @staticmethod
    def _statement_lists(function: ast.AST,
                         ) -> List[List[ast.stmt]]:
        """Every statement list in the function, excluding nested
        defs (they are checked as their own scopes)."""
        lists: List[List[ast.stmt]] = []
        stack: List[ast.AST] = [function]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and node is not function:
                continue
            if isinstance(node, ast.ClassDef):
                continue
            for field_name in ("body", "orelse", "finalbody"):
                block = getattr(node, field_name, None)
                if isinstance(block, list) and block \
                        and isinstance(block[0], ast.stmt):
                    lists.append(block)
            stack.extend(ast.iter_child_nodes(node))
        return lists


def _is_closer_stmt(statement: ast.stmt, name: str,
                    kind: str) -> bool:
    return (isinstance(statement, ast.Expr)
            and _is_closer(statement.value, name, kind))


# ---------------------------------------------------------------------------
# RPR503 — wall-clock-deadline
# ---------------------------------------------------------------------------

#: Call spellings that read the wall clock.
_WALL_CLOCK_DOTTED = frozenset({"time.time"})

#: Assignment-target name fragments that mark a deadline/timeout value.
_DEADLINE_NAME_RE = re.compile(
    r"deadline|timeout|time_out|expir|expires|cutoff|due_at",
    re.IGNORECASE)


def _wall_clock_calls(node: ast.AST) -> List[ast.Call]:
    """Every ``time.time()`` call in the expression subtree."""
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and _dotted_name(sub.func) in _WALL_CLOCK_DOTTED]


@rule
class WallClockDeadlineRule(Rule):
    """Deadline arithmetic must use the monotonic clock.

    Fail::

        deadline = time.time() + budget
        while time.time() < deadline:
            poll()

    Pass::

        deadline = Deadline(budget)       # repro.obs.clock
        while not deadline.expired:
            poll()
    """

    code = "RPR503"
    name = "wall-clock-deadline"

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._emitted: set = set()

    rationale = (
        "time.time() follows the wall clock, which NTP slews and "
        "steps: a deadline computed from it can fire hours early or "
        "never, and a watchdog comparing wall-clock readings taken in "
        "different processes compares two unrelated clocks.  Deadline "
        "and timeout logic goes through repro.obs.clock — "
        "monotonic(), Deadline, or stopwatch() — which only ever "
        "moves forward.  Wall-clock reads are fine as metadata "
        "(timestamps in a report header), just not as operands of "
        "elapsed-time arithmetic or comparisons.")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._flag(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._flag(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_binding(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_binding([node.target], node.value)
        self.generic_visit(node)

    def _flag(self, node: ast.AST) -> None:
        for call in _wall_clock_calls(node):
            if id(call) in self._emitted:
                continue
            self._emitted.add(id(call))
            self.emit(call, (
                "time.time() used in elapsed-time arithmetic; the "
                "wall clock jumps under NTP — use "
                "repro.obs.clock.monotonic() or a Deadline"))

    def _check_binding(self, targets: Sequence[ast.expr],
                       value: ast.expr) -> None:
        named = []
        for target in targets:
            if isinstance(target, ast.Name):
                named.append(target.id)
            elif isinstance(target, ast.Attribute):
                named.append(target.attr)
        if not any(_DEADLINE_NAME_RE.search(name) for name in named):
            return
        for call in _wall_clock_calls(value):
            if id(call) in self._emitted:
                continue
            self._emitted.add(id(call))
            self.emit(call, (
                "deadline/timeout bound to a wall-clock reading; "
                "time.time() jumps under NTP — arm a "
                "repro.obs.clock.Deadline (or store monotonic()) "
                "instead"))


# ---------------------------------------------------------------------------
# RPR504 — telemetry-hot-loop
# ---------------------------------------------------------------------------

#: Call tails that build a context-manager telemetry resource; calling
#: one as a bare expression statement discards it unrecorded.
_CM_TELEMETRY_TAILS = frozenset({"span", "stopwatch"})

@rule
class TelemetryHotLoopRule(Rule):
    """Spans and stopwatches are entered, never discarded.

    Fail::

        _obs.span("solve", name)          # discarded: records nothing
        temps = operator.solve(loads)

    Pass::

        with _obs.span("solve", name):
            temps = operator.solve(loads)
    """

    code = "RPR504"
    name = "telemetry-hot-loop"
    rationale = (
        "repro.obs spans and stopwatches are context managers: calling "
        "span(...) without entering it builds the object and records "
        "nothing, so the trace silently misses the region it was meant "
        "to cover.")

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            dotted = _dotted_name(call.func)
            tail = dotted.split(".")[-1] if dotted else None
            if tail in _CM_TELEMETRY_TAILS:
                self.emit(node, (
                    f"`{tail}(...)` called as a bare statement: the "
                    "context manager is discarded and nothing is "
                    "recorded — enter it with `with` (or bind and "
                    "close it explicitly)"))
        self.generic_visit(node)
