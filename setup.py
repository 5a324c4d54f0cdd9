"""Setuptools shim.

The modern PEP 660 editable-install path needs the ``wheel`` package;
this shim keeps ``pip install -e .`` working on minimal environments via
the legacy ``setup.py develop`` route.  All metadata lives in
``pyproject.toml``-adjacent arguments below.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Bias-Free Branch Predictor (Gope & Lipasti, MICRO 2014) — "
        "full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"dev": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
