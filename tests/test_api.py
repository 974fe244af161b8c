"""The public surface: what the package root and its modules export."""

import importlib
import inspect
import pkgutil

import levyspde


def _modules():
    yield levyspde
    for info in pkgutil.iter_modules(levyspde.__path__):
        yield importlib.import_module(f"levyspde.{info.name}")


def test_no_export_takes_a_mark_space_beside_its_bundle():
    # the compensator and the jumps read the bundle's own mark space; a
    # second one could disagree with it, silently
    both = []
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            params = inspect.signature(obj).parameters
            if "bundle" in params and "mark_space" in params:
                both.append(f"{module.__name__}.{name}")
    assert both == []
