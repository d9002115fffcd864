"""Setuptools entry point.

There is no pyproject.toml, and this stub declares no metadata (no name,
version or dependencies).  Every entry point — tests, benchmarks, examples,
``python -m repro`` — runs from the source tree with ``PYTHONPATH=src``;
nothing relies on installing the package.
"""

from setuptools import setup

setup()
