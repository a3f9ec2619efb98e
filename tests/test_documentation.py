"""Meta tests: documentation coverage and example validity.

The deliverable includes doc comments on every public item; these tests
make that a CI property rather than a promise.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import py_compile
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            yield importlib.import_module(info.name)
        except Exception:
            # The optional-dependency kernel backend (repro.kernels._cffi)
            # only imports on hosts with cffi and a C compiler; its
            # docstrings are checked wherever it loads.
            if not info.name.startswith("repro.kernels._"):
                raise


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    """Every public class, function, and method has a docstring."""
    undocumented: list[str] = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if inspect.isfunction(meth) and not (
                    meth.__doc__ and meth.__doc__.strip()
                ):
                    undocumented.append(f"{module.__name__}.{name}.{meth_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_public_api_matches_all():
    """repro.__all__ is complete and every entry resolves."""
    for name in repro.__all__:
        assert hasattr(repro, name), name


EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_compile(path):
    """Every example is at least syntactically valid."""
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_have_docstring_and_main(path):
    source = path.read_text()
    assert source.lstrip().startswith(('"""', '#!')), path.name
    assert 'if __name__ == "__main__":' in source, path.name


def test_required_docs_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        doc = REPO_ROOT / name
        assert doc.exists(), name
        assert len(doc.read_text()) > 500, name
