"""Setup shim.

All metadata lives in pyproject.toml, which has no ``[build-system]``
table: offline, ``pip install -e . --no-deps --no-build-isolation`` then
builds with the setuptools already installed instead of fetching one.
pip's editable install also needs the ``wheel`` package (PEP 660); where
it is missing, ``python setup.py develop`` installs the same editable
package and its ``repro-faro`` command through this shim.
"""

from setuptools import setup

setup()
