"""The example scripts stay runnable against the current API.

Every example is loaded by path, so a name it imports that the package
no longer exports fails here; the quickstart, which takes a couple of
seconds, also runs end to end.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: Path) -> ModuleType:
    """Import an example without running its ``__main__`` block."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    assert callable(load_example(path).main)


def test_quickstart_runs(capsys):
    load_example(EXAMPLES_DIR / "quickstart.py").main()
    out = capsys.readouterr().out
    assert "alias resolution:" in out
    assert "top vendors (all devices):" in out
