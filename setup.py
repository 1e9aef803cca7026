"""Setuptools shim.

The offline build environment lacks the ``wheel`` package, so PEP 660
editable installs (which require ``bdist_wheel``) are unavailable.
This shim lets ``pip install -e . --no-use-pep517 --no-build-isolation``
take the legacy ``setup.py develop`` path.  All package metadata lives
here; there is no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy"],
)
