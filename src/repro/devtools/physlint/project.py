"""The lint pass: per-file rules, then the cross-module unit check.

Per-file rules (:mod:`~repro.devtools.physlint.rules`) see one module
at a time.  A rad/s value handed to a parameter documented in RPM —
the paper's recurring fan-speed bug — only exists *between* files, so
:func:`lint_paths` parses each file once, runs the per-file rules on
the tree, condenses the same tree into a :class:`FileSummary` (import
bindings, per-function parameter units, call sites with known argument
units), and then runs RPR703 over the :class:`ProjectGraph` stitched
from those summaries.  The graph resolves call sites through import
aliases and one re-export hop (a package ``__init__`` forwarding a
submodule's function).
"""

from __future__ import annotations

import ast
import os
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (
    BaseRule,
    FileAnalysis,
    Finding,
    LintContext,
    analyze_source,
    available_rules,
    collect_imports,
    iter_python_files,
    resolve_dotted,
    rule,
    selected,
    suppressed_by_maps,
    validate_code_patterns,
)
from .dimensional import (
    CallRecord,
    analyze_functions,
    function_signature_units,
)
from .unitlang import Unit, render_unit


def module_name_for(path: str) -> Tuple[Optional[str], bool]:
    """The dotted module name a file would import as.

    Walks parent directories while they contain ``__init__.py``.
    Returns ``(module, is_package)``; module is None for non-Python
    paths.
    """
    directory, filename = os.path.split(os.path.abspath(path))
    if not filename.endswith(".py"):
        return None, False
    stem = filename[: -len(".py")]
    is_package = stem == "__init__"
    parts: List[str] = [] if is_package else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, name = os.path.split(directory)
        if not name:
            break
        parts.insert(0, name)
    if not parts:
        return None, is_package
    return ".".join(parts), is_package


@dataclass
class FunctionSummary:
    """What the cross-module check knows about one function."""

    params: List[str]
    param_units: Dict[str, Unit]
    calls: List[CallRecord]


@dataclass
class FileSummary:
    """One file's contribution to the project graph."""

    path: str
    module: Optional[str]
    aliases: Dict[str, str]
    from_imports: Dict[str, str]
    functions: Dict[str, FunctionSummary]


def extract_summary(context: LintContext,
                    tree: ast.Module) -> FileSummary:
    """Condense one parsed file into its :class:`FileSummary`."""
    module, is_package = module_name_for(context.path)
    aliases, from_imports = collect_imports(tree, module, is_package)
    functions: Dict[str, FunctionSummary] = {}
    for qual, node, flow in analyze_functions(context, tree):
        if not isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        param_units, _ = function_signature_units(node)
        args = node.args
        functions[qual] = FunctionSummary(
            params=[a.arg for a in (*args.posonlyargs, *args.args)],
            param_units=param_units,
            calls=flow.calls,
        )
    return FileSummary(
        path=context.path,
        module=module,
        aliases=aliases,
        from_imports=from_imports,
        functions=functions,
    )


#: A node key in the project graph: ``(module, qualified name)``.
NodeKey = Tuple[str, str]


class ProjectGraph:
    """Symbol table + call graph over a set of file summaries."""

    def __init__(self, summaries: Dict[str, FileSummary]) -> None:
        #: posix path -> summary (only files with a resolvable module
        #: participate in cross-module resolution).
        self.summaries = summaries
        self.module_map: Dict[str, str] = {}
        self.nodes: Dict[NodeKey,
                         Tuple[FileSummary, FunctionSummary]] = {}
        for path in sorted(summaries):
            summary = summaries[path]
            if summary.module is None:
                continue
            self.module_map.setdefault(summary.module, path)
            for qual, fn in summary.functions.items():
                self.nodes.setdefault((summary.module, qual),
                                      (summary, fn))

    def resolve_call(self, module: str, caller_qual: str,
                     callee: str,
                     ) -> Optional[Tuple[NodeKey, bool]]:
        """The project function a call site lands on, if known.

        Returns ``(node key, implicit_self)``; ``implicit_self`` is
        True when the callee receives ``self`` implicitly (method via
        ``self.``/``cls.``, or class instantiation hitting
        ``__init__``), shifting positional arguments by one.
        Conservative: unresolvable calls are simply None.
        """
        path = self.module_map.get(module)
        if path is None:
            return None
        summary = self.summaries[path]
        parts = callee.split(".")
        head = parts[0]
        if head in ("self", "cls") and len(parts) == 2 \
                and "." in caller_qual:
            owner = caller_qual.rsplit(".", 1)[0]
            key = (module, f"{owner}.{parts[1]}")
            if key in self.nodes:
                return key, True
            return None
        full = resolve_dotted(callee, summary.aliases,
                              summary.from_imports)
        if full is not None:
            return self._resolve_full(full, 0)
        for qual, implicit in (
                (callee, False),
                (f"{callee}.__init__", True),
                (f"{caller_qual}.{callee}", False)):
            key = (module, qual)
            if key in self.nodes:
                return key, implicit
        return None

    def _resolve_full(self, full: str, depth: int,
                      ) -> Optional[Tuple[NodeKey, bool]]:
        parts = full.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            target_module = ".".join(parts[:cut])
            if target_module not in self.module_map:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                key = (target_module, rest[0])
                if key in self.nodes:
                    return key, False
                key = (target_module, f"{rest[0]}.__init__")
                if key in self.nodes:
                    return key, True
            elif len(rest) == 2:
                key = (target_module, f"{rest[0]}.{rest[1]}")
                if key in self.nodes:
                    return key, False
            # Follow one re-export hop (e.g. a package __init__
            # forwarding a function defined in a submodule).
            target = self.summaries[self.module_map[target_module]]
            forwarded = target.from_imports.get(rest[0])
            if forwarded is not None and depth < 5:
                return self._resolve_full(
                    ".".join([forwarded, *rest[1:]]), depth + 1)
            return None
        return None


class ProjectRule(BaseRule):
    """Base class for cross-module rules.

    Registered with :func:`~repro.devtools.physlint.core.rule` like
    every per-file :class:`~repro.devtools.physlint.core.Rule`, but
    runs once per lint pass over the :class:`ProjectGraph` instead of
    once per file over an AST.  Findings carry the path of the file
    they anchor in, so per-file suppression comments still apply.
    """

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def emit(self, path: str, line: int, column: int,
             message: str) -> None:
        """Record a finding at an explicit location."""
        self.findings.append(Finding(
            code=self.code, rule=self.name, message=message,
            path=path, line=line, column=column))

    def run(self, graph: ProjectGraph) -> List[Finding]:
        """Analyze the graph; subclasses override :meth:`check`."""
        self.check(graph)
        return self.findings

    def check(self, graph: ProjectGraph) -> None:
        raise NotImplementedError


@rule
class UnitCallRule(ProjectRule):
    """Call-site argument units must match the parameter's docstring.

    Fail::

        # fan.py
        def fan_power(omega):
            \"\"\"Args:
                omega: Fan speed, rad/s.
            \"\"\"

        # control.py
        from fan import fan_power

        def step(omega_rpm):
            \"\"\"Args:
                omega_rpm: Commanded speed, RPM.
            \"\"\"
            return fan_power(omega_rpm)   # RPR703: RPM into rad/s

    Pass::

        from repro.units import rpm_to_rad_s

        def step(omega_rpm):
            \"\"\"Args:
                omega_rpm: Commanded speed, RPM.
            \"\"\"
            return fan_power(rpm_to_rad_s(omega_rpm))
    """

    code = "RPR703"
    name = "unit-call"
    rationale = (
        "The paper's quantities (A, rad/s vs RPM, K/W, W) cross many "
        "module boundaries; a call passing RPM where the callee "
        "documents rad/s is off by 2*pi/60 at every operating point.  "
        "This check joins each call site's flow-inferred argument "
        "units against the callee's declared parameter units across "
        "every file of the lint pass.")

    def check(self, graph: ProjectGraph) -> None:
        for key in sorted(graph.nodes):
            module, qual = key
            summary, fn = graph.nodes[key]
            for call in fn.calls:
                if not call.args:
                    continue
                resolved = graph.resolve_call(module, qual,
                                              call.callee)
                if resolved is None:
                    continue
                self._check_call(graph, summary.path, call,
                                 resolved[0], resolved[1])

    def _check_call(self, graph: ProjectGraph, path: str,
                    call: CallRecord, target_key: NodeKey,
                    implicit_self: bool) -> None:
        target_module, target_qual = target_key
        _, target = graph.nodes[target_key]
        offset = 1 if implicit_self else 0
        for slot, unit in call.args:
            name = self._param_name(target, slot, offset)
            if name is None:
                continue
            declared = target.param_units.get(name)
            if declared is not None and declared != unit:
                self.emit(path, call.line, call.column, (
                    f"argument `{name}` of "
                    f"{target_module}.{target_qual} is documented "
                    f"as {render_unit(declared)} but receives "
                    f"{render_unit(unit)}; convert at the call "
                    "site (repro.units)"))

    @staticmethod
    def _param_name(target: FunctionSummary,
                    slot: Union[int, str],
                    offset: int) -> Optional[str]:
        if isinstance(slot, int):
            index = slot + offset
            if 0 <= index < len(target.params):
                return target.params[index]
            return None
        return slot


def _lint_sources(sources: Sequence[Tuple[str, str]],
                  select: Optional[Sequence[str]],
                  ignore: Optional[Sequence[str]]) -> List[Finding]:
    """The one lint pass over ``(source, path)`` pairs."""
    select_codes = validate_code_patterns(select or ())
    ignore_codes = validate_code_patterns(ignore or ())
    findings: List[Finding] = []
    analyses: Dict[str, FileAnalysis] = {}
    summaries: Dict[str, FileSummary] = {}
    for source, path in sources:
        analysis = analyze_source(source, path)
        findings.extend(analysis.findings)
        if analysis.tree is not None:
            posix = analysis.context.posix_path
            analyses[posix] = analysis
            summaries[posix] = extract_summary(analysis.context,
                                               analysis.tree)
    graph = ProjectGraph(summaries)
    for rule_cls in available_rules().values():
        if not issubclass(rule_cls, ProjectRule):
            continue
        for finding in rule_cls().run(graph):
            anchor = analyses[finding.path.replace(os.sep, "/")]
            if not suppressed_by_maps(finding, anchor.file_codes,
                                      anchor.line_codes):
                findings.append(finding)
    findings = [f for f in findings
                if selected(f, select_codes, ignore_codes)]
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings


def lint_source(source: str, path: str,
                select: Optional[Sequence[str]] = None,
                ignore: Optional[Sequence[str]] = None,
                ) -> List[Finding]:
    """Lint one already-read source string."""
    return _lint_sources([(source, path)], select, ignore)


def lint_file(path: str,
              select: Optional[Sequence[str]] = None,
              ignore: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one file on disk."""
    return lint_paths([path], select=select, ignore=ignore)


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint files and directories; the main library entry point.

    Every file is parsed once: the per-file rules run on its tree, and
    the cross-module unit check (RPR703) runs over the summaries of
    all the files given.

    Args:
        paths: Files and/or directories (directories are walked for
            ``.py`` files).
        select: Optional code prefixes to restrict the run to.
        ignore: Optional code prefixes to drop from the results.

    Returns:
        All findings, sorted by ``(path, line, column, code)``.
    """
    sources: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with tokenize.open(path) as handle:
            sources.append((handle.read(), path))
    return _lint_sources(sources, select, ignore)


__all__ = [
    "FileSummary",
    "FunctionSummary",
    "NodeKey",
    "ProjectGraph",
    "ProjectRule",
    "UnitCallRule",
    "extract_summary",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
]
