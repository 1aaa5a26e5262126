"""The physlint engine core: rule catalogue, suppressions, per-file pass.

``physlint`` is an AST-based linter for the *domain* conventions of this
repository — strict-SI units, the :class:`~repro.errors.ReproError`
exception hierarchy, and the sparse-solver discipline of the thermal
core.  Generic style is left to ``ruff``; physlint only checks what a
general-purpose tool cannot know.

Every rule registers with the :func:`rule` decorator into one catalogue
and carries a stable ``RPRxxx`` code.  Per-file rules subclass
:class:`Rule`; the cross-module rule subclasses
:class:`~repro.devtools.physlint.project.ProjectRule` and runs in the
same :func:`~repro.devtools.physlint.project.lint_paths` pass.
Findings on a line that carries a ``# physlint: disable=RPRxxx``
comment are suppressed, as is every finding of a code named by a
file-level ``# physlint: disable-file=RPRxxx`` comment.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from ...errors import ConfigurationError

#: Pseudo-code attached to files physlint cannot parse at all.
PARSE_ERROR_CODE = "RPR000"

_CODE_RE = re.compile(r"^RPR\d{3}$")
_DISABLE_RE = re.compile(
    r"#\s*physlint:\s*disable=([A-Za-z0-9_, \t]+)")
_DISABLE_FILE_RE = re.compile(
    r"#\s*physlint:\s*disable-file=([A-Za-z0-9_, \t]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    Attributes:
        code: Stable rule code (``RPR101`` ...), or ``RPR000`` for
            files that fail to parse.
        rule: Short rule name (``unit-literal`` ...).
        message: Human-readable description of the problem.
        path: File the finding was raised in.
        line: 1-based source line.
        column: 1-based source column.
    """

    code: str
    rule: str
    message: str
    path: str
    line: int
    column: int

    def render(self) -> str:
        """The canonical one-line text form of the finding."""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.code} {self.message} [{self.rule}]")


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may inspect about the file under analysis.

    Attributes:
        path: Path as given on the command line.
        posix_path: Same path with ``/`` separators, for suffix matching.
        source: Full file text.
        lines: Source split into lines (1-based access via ``line - 1``).
    """

    path: str
    posix_path: str
    source: str
    lines: Tuple[str, ...]


class BaseRule:
    """What every catalogued rule carries.

    Attributes:
        code: Stable ``RPRxxx`` diagnostic code.
        name: Short kebab-case rule name shown in reports.
        rationale: One-paragraph description of why the rule exists.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""


class Rule(BaseRule, ast.NodeVisitor):
    """Base class for per-file physlint rules.

    Subclasses set the class attributes below, implement ``visit_*``
    methods, and call :meth:`emit` for each violation.  One instance is
    created per file; the engine then calls ``visit`` on the module tree.

    Attributes:
        exempt_suffixes: Posix path suffixes the rule never applies to
            (e.g. ``("units.py",)`` for the unit-literal rule).
    """

    exempt_suffixes: Tuple[str, ...] = ()

    def __init__(self, context: LintContext) -> None:
        self.context = context
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, posix_path: str) -> bool:
        """Whether the rule runs on a file (suffix-based exemptions)."""
        return not any(posix_path.endswith(suffix)
                       for suffix in cls.exempt_suffixes)

    def emit(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at ``node``."""
        self.findings.append(Finding(
            code=self.code,
            rule=self.name,
            message=message,
            path=self.context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
        ))

    def run(self, tree: ast.Module) -> List[Finding]:
        """Visit the module and return the findings."""
        self.visit(tree)
        return self.findings


# Populated only at import time by @rule, then read-only: identical in
# every process, so exempt from the per-process-state rule.
_REGISTRY: Dict[str, Type[BaseRule]] = {}  # physlint: disable=RPR601

_RuleT = TypeVar("_RuleT", bound=BaseRule)


def rule(cls: Type[_RuleT]) -> Type[_RuleT]:
    """Class decorator registering a rule by its code."""
    if not _CODE_RE.match(cls.code):
        raise ConfigurationError(
            f"rule {cls.__name__} has invalid code {cls.code!r}; "
            "expected the form RPRxxx")
    if not cls.name:
        raise ConfigurationError(
            f"rule {cls.__name__} must set a short name")
    if cls.code in _REGISTRY:
        raise ConfigurationError(
            f"duplicate rule code {cls.code}: {cls.__name__} and "
            f"{_REGISTRY[cls.code].__name__}")
    _REGISTRY[cls.code] = cls
    return cls


def available_rules() -> Dict[str, Type[BaseRule]]:
    """All registered rules, keyed by code (sorted copy)."""
    return dict(sorted(_REGISTRY.items()))


def _match_codes(code: str, patterns: Sequence[str]) -> bool:
    """flake8-style prefix matching: ``RPR2`` matches ``RPR201``."""
    return any(code.startswith(pattern) for pattern in patterns)


def _parse_code_list(text: str) -> Tuple[str, ...]:
    return tuple(part.strip().upper() for part in text.split(",")
                 if part.strip())


def _suppressed_codes(line: str) -> Tuple[str, ...]:
    """Codes disabled by a same-line ``# physlint: disable=`` comment."""
    match = _DISABLE_RE.search(line)
    if match is None:
        return ()
    return _parse_code_list(match.group(1))


def _file_suppressed_codes(source: str) -> Tuple[str, ...]:
    """Codes disabled for the whole file by ``disable-file`` comments."""
    codes: List[str] = []
    for match in _DISABLE_FILE_RE.finditer(source):
        codes.extend(_parse_code_list(match.group(1)))
    return tuple(codes)


def extract_suppressions(source: str,
                         ) -> Tuple[Tuple[str, ...],
                                    Dict[int, Tuple[str, ...]]]:
    """The file's suppression state.

    Returns ``(file codes, {1-based line: same-line codes})``, so
    cross-module findings anchored in the file can be filtered too.
    """
    file_codes = _file_suppressed_codes(source)
    line_codes: Dict[int, Tuple[str, ...]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        codes = _suppressed_codes(line)
        if codes:
            line_codes[number] = codes
    return file_codes, line_codes


def suppressed_by_maps(finding: Finding,
                       file_codes: Tuple[str, ...],
                       line_codes: Dict[int, Tuple[str, ...]]) -> bool:
    """Whether the suppression maps silence ``finding``."""
    if _match_codes(finding.code, file_codes) or "ALL" in file_codes:
        return True
    codes = line_codes.get(finding.line, ())
    return _match_codes(finding.code, codes) or "ALL" in codes


def selected(finding: Finding, select: Tuple[str, ...],
             ignore: Tuple[str, ...]) -> bool:
    if finding.code == PARSE_ERROR_CODE:
        return not _match_codes(finding.code, ignore)
    if select and not _match_codes(finding.code, select):
        return False
    return not _match_codes(finding.code, ignore)


def validate_code_patterns(patterns: Iterable[str]) -> Tuple[str, ...]:
    """Normalize ``--select``/``--ignore`` patterns, rejecting junk."""
    normalized = []
    for pattern in patterns:
        pattern = pattern.strip().upper()
        if not pattern:
            continue
        if not re.match(r"^RPR\d{0,3}$", pattern):
            raise ConfigurationError(
                f"invalid rule code pattern {pattern!r}; expected "
                "RPR, RPR1, RPR10, or a full code like RPR101")
        normalized.append(pattern)
    return tuple(normalized)


@dataclass
class FileAnalysis:
    """The result of running every per-file rule on a file.

    ``findings`` are post-suppression but *pre* ``--select``/
    ``--ignore``; the engine filters on the way out.
    :data:`PARSE_ERROR_CODE` findings are never suppressible: a file
    that does not parse cannot be trusted to have meant its own
    suppression comments.

    Attributes:
        context: The :class:`LintContext` the rules saw.
        tree: Parsed module, or None when the file failed to parse.
        findings: Per-file findings, suppressed entries removed.
        file_codes: File-level suppression codes.
        line_codes: Same-line suppression codes, by 1-based line.
    """

    context: LintContext
    tree: Optional[ast.Module]
    findings: List[Finding]
    file_codes: Tuple[str, ...]
    line_codes: Dict[int, Tuple[str, ...]]


def analyze_source(source: str, path: str) -> FileAnalysis:
    """Run every applicable per-file rule on one source string."""
    posix_path = path.replace(os.sep, "/")
    context = LintContext(
        path=path,
        posix_path=posix_path,
        source=source,
        lines=tuple(source.splitlines()),
    )
    file_codes, line_codes = extract_suppressions(source)
    try:
        tree: Optional[ast.Module] = ast.parse(source, filename=path)
    except SyntaxError as error:
        findings = [Finding(
            code=PARSE_ERROR_CODE,
            rule="parse-error",
            message=f"file does not parse: {error.msg}",
            path=path,
            line=error.lineno or 1,
            column=(error.offset or 0) + 1,
        )]
        return FileAnalysis(context, None, findings,
                            file_codes, line_codes)
    findings = []
    for rule_cls in _REGISTRY.values():
        if issubclass(rule_cls, Rule) and rule_cls.applies_to(posix_path):
            findings.extend(rule_cls(context).run(tree))
    findings = [f for f in findings
                if not suppressed_by_maps(f, file_codes, line_codes)]
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return FileAnalysis(context, tree, findings,
                        file_codes, line_codes)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git"))
                collected.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py"))
        elif path.endswith(".py"):
            collected.append(path)
        elif not os.path.exists(path):
            raise ConfigurationError(f"no such file or directory: {path}")
    return collected


def _relative_base(module: Optional[str], is_package: bool,
                   level: int) -> Optional[str]:
    """The absolute package a ``from ...`` import resolves against."""
    if module is None:
        return None
    parts = module.split(".")
    cut = len(parts) - level + (1 if is_package else 0)
    if cut < 0:
        return None
    return ".".join(parts[:cut])


def collect_imports(tree: ast.Module, module: Optional[str] = None,
                    is_package: bool = False,
                    ) -> Tuple[Dict[str, str], Dict[str, str]]:
    """All import bindings anywhere in the file.

    Returns ``(aliases, from_imports)``: ``import numpy as np`` binds
    ``np -> numpy``, ``from random import choice`` binds
    ``choice -> random.choice``.  Relative imports resolve only when
    the file's ``module`` name is known.  Function-local imports are
    folded into the module-level maps — an approximation that can only
    widen resolution, never corrupt per-file findings.
    """
    aliases: Dict[str, str] = {}
    from_imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module, is_package, node.level)
                if base is None:
                    continue
                origin = f"{base}.{node.module}" if node.module \
                    else base
                origin = origin.lstrip(".")
            else:
                origin = node.module or ""
            if not origin:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                from_imports[bound] = f"{origin}.{alias.name}"
    return aliases, from_imports


def resolve_dotted(dotted: str, aliases: Dict[str, str],
                   from_imports: Dict[str, str]) -> Optional[str]:
    """Rewrite a local dotted name through the import bindings.

    None when the name's head is not bound by an import.
    """
    parts = dotted.split(".")
    head = parts[0]
    if head in from_imports:
        full = from_imports[head]
    elif head in aliases:
        full = aliases[head]
    else:
        return None
    return ".".join([full, *parts[1:]])
