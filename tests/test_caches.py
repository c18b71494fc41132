"""Every functools cache in the package has a bound."""
import importlib
import inspect
import pkgutil

import wreath_centers


def _cached_callables(mod):
    for name, value in vars(mod).items():
        if inspect.isclass(value) and value.__module__ == mod.__name__:
            for attr, member in vars(value).items():
                yield "%s.%s" % (name, attr), member
        elif getattr(value, "__module__", None) == mod.__name__:
            yield name, value


def test_every_functools_cache_is_bounded():
    unbounded = []
    seen = 0
    for info in pkgutil.iter_modules(wreath_centers.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        mod = importlib.import_module("wreath_centers." + info.name)
        for name, value in _cached_callables(mod):
            cache_info = getattr(value, "cache_info", None)
            if cache_info is None:
                continue
            seen += 1
            if cache_info().maxsize is None:
                unbounded.append("%s.%s" % (info.name, name))
    assert seen, "no functools cache found; the walk is broken"
    assert not unbounded, unbounded
