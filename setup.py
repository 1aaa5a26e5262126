"""Setup shim for environments whose setuptools predates PEP 660 editable
installs (the pyproject.toml carries the real metadata)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.30.0",
    description=(
        "OFTEC: power-aware deployment and control of forced-convection "
        "and thermoelectric coolers (DAC 2014 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
