"""The test session's corpus cache: a temporary directory, never the real home's.

Set before collection, since ``perfbench/run.py`` captures its children's
environment when it is imported. ``tests/conftest.py`` gives each test in
``tests/`` an empty directory of its own on top.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest


def pytest_configure(config):
    directory = tempfile.mkdtemp(prefix="stylokit-cache-")
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", directory)
    config.add_cleanup(lambda: shutil.rmtree(directory, ignore_errors=True))
    config.add_cleanup(patch.undo)
