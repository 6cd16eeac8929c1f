"""Helpers shared by the test modules."""

import os

import fluxgrad as fg


def subprocess_env():
    """os.environ with the directory holding the imported fluxgrad first on PYTHONPATH, so a
    subprocess imports this same copy of the package from any working directory."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(fg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
