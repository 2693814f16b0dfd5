"""Legacy setup shim.

The sandbox this reproduction was developed in has no ``wheel`` package and
no network access, so PEP-517 editable installs fail; this shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` work offline.
All real metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
