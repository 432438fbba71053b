"""Contract tests for the public API surface.

These enforce the documentation deliverable mechanically: every name a
package exports via ``__all__`` must exist, and every public class and
function must carry a docstring.
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.schema",
    "repro.cube",
    "repro.aggregates",
    "repro.algebra",
    "repro.workflow",
    "repro.engine",
    "repro.optimizer",
    "repro.storage",
    "repro.service",
    "repro.data",
    "repro.queries",
    "repro.bench",
    "repro.obs",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


def _walk_public_modules():
    for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        leaf = info.name.rsplit(".", 1)[-1]
        if leaf.startswith("_"):
            continue
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [
        module.__name__
        for module in _walk_public_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert missing == []


def test_every_public_class_and_function_documented():
    missing = []
    for module in _walk_public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports documented at their home
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert missing == [], f"undocumented public items: {missing}"


def test_public_methods_documented_on_key_classes():
    from repro import (
        AggregationWorkflow,
        MultiPassEngine,
        PartitionedEngine,
        RelationalEngine,
        SingleScanEngine,
        SortScanEngine,
    )

    missing = []
    for cls in (
        AggregationWorkflow,
        SortScanEngine,
        SingleScanEngine,
        RelationalEngine,
        MultiPassEngine,
        PartitionedEngine,
    ):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            if not (member.__doc__ or "").strip():
                missing.append(f"{cls.__name__}.{name}")
    assert missing == [], f"undocumented public methods: {missing}"


def test_version_is_exposed():
    assert repro.__version__


def test_error_hierarchy_is_catchable():
    from repro import ReproError, SchemaError, WorkflowError

    assert issubclass(SchemaError, ReproError)
    assert issubclass(WorkflowError, ReproError)


def test_one_http_server():
    """The asyncio front end is the only HTTP server: no file under
    ``src/repro`` may bring the stdlib threaded one back."""
    offenders = [
        str(path)
        for path in pathlib.Path(repro.__path__[0]).rglob("*.py")
        if "http.server" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
