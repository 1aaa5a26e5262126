"""Audit the top-level public API against docs/API.md.

Every name the "Top level (`repro`)" section of docs/API.md promises
must be exported via ``repro.__all__`` (and actually importable), and
``__all__`` must not advertise names that do not exist.  This keeps the
docs and the package surface from drifting apart.
"""

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
API_MD = ROOT / "docs" / "API.md"


def documented_top_level_names():
    """Backticked identifiers from the top-level table of docs/API.md."""
    text = API_MD.read_text(encoding="utf-8")
    start = text.index("## Top level (`repro`)")
    end = text.index("## ", start + 1)
    names = set()
    for token in re.findall(r"`([^`]+)`", text[start:end]):
        # `(t_max, omega_max, ...)` cells describe *fields*, not
        # top-level exports.
        if token == "repro" or token.startswith("("):
            continue
        # Rows like `run_a(problem)` / `run_b(problem)` or a
        # comma-separated constants cell name several identifiers.
        for part in re.split(r"[,/]", token):
            name = part.strip().split("(")[0].strip()
            if name.isidentifier():
                names.add(name)
    return names


def test_api_md_names_are_exported():
    documented = documented_top_level_names()
    assert documented, "failed to parse any names out of docs/API.md"
    missing = sorted(documented - set(repro.__all__))
    assert missing == [], (
        f"docs/API.md documents top-level names missing from "
        f"repro.__all__: {missing}")


def test_all_names_exist():
    missing = [name for name in repro.__all__
               if not hasattr(repro, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_every_documented_exception_importable():
    documented = documented_top_level_names()
    for name in documented:
        if name.endswith("Error"):
            exc = getattr(repro, name)
            assert issubclass(exc, repro.ReproError) or exc is repro.ReproError


def test_package_versions_agree():
    # The setuptools shim, the PEP 621 metadata and the package itself
    # declare one version.
    shim = re.search(r'version="([^"]+)"',
                     (ROOT / "setup.py").read_text(encoding="utf-8"))
    metadata = re.search(r'^version = "([^"]+)"$',
                         (ROOT / "pyproject.toml").read_text(
                             encoding="utf-8"), re.MULTILINE)
    assert shim.group(1) == metadata.group(1) == repro.__version__
