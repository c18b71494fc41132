"""Every cache in the package has a bound: functools caches, module-level
BoundedCache stores and the instance dicts of CharacterCalculator; no
plain module-level dict grows."""
import importlib
import inspect
import pkgutil

import wreath_centers
from oracles import x_value
from wreath_centers.center import BoundedCache
from wreath_centers.cli import main
from wreath_centers.shifted import CharacterCalculator
from wreath_centers.wreath import families_of_size


def _cached_callables(mod):
    for name, value in vars(mod).items():
        if inspect.isclass(value) and value.__module__ == mod.__name__:
            for attr, member in vars(value).items():
                yield "%s.%s" % (name, attr), member
        elif getattr(value, "__module__", None) == mod.__name__:
            yield name, value


def _modules():
    for info in pkgutil.iter_modules(wreath_centers.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        yield info.name, importlib.import_module("wreath_centers." + info.name)


def test_every_functools_cache_is_bounded():
    unbounded = []
    seen = set()
    for modname, mod in _modules():
        for name, value in _cached_callables(mod):
            cache_info = getattr(value, "cache_info", None)
            if cache_info is None:
                continue
            seen.add("%s.%s" % (modname, name))
            if cache_info().maxsize is None:
                unbounded.append("%s.%s" % (modname, name))
        for name, value in vars(mod).items():
            if isinstance(value, BoundedCache):
                seen.add("%s.%s" % (modname, name))
                if not isinstance(value.maxsize, int):
                    unbounded.append("%s.%s" % (modname, name))
    # the character tables of G wr S_n are the largest cache; the kernel's
    # tables per group and the writer's dict layouts live for the process
    assert {"center._TABLES", "kernels._group_tables", "kernels._label_rows",
            "cli._HEADS"} <= seen, "the walk is broken"
    assert not unbounded, unbounded


def _module_dicts():
    """{module.name: len} of the plain dicts at module level."""
    return {"%s.%s" % (modname, name): len(value)
            for modname, mod in _modules()
            for name, value in vars(mod).items()
            if isinstance(value, dict) and not isinstance(value, BoundedCache)
            and not name.startswith("__")}


def test_no_module_level_dict_grows(capsys):
    """A plain dict at module level used as a cache has no bound, and the
    functools walk above does not see it: after one request of each kind
    that fills the caches, no such dict holds more entries than before."""
    before = _module_dicts()
    assert "cli._DEFAULTS" in before, "the walk is broken"
    for argv in (
            ["--group", "sym:3", "ccoeff", "--n", "4", "--lam", '{"1":[2]}',
             "--del", '{"2":[3]}'],
            ["--group", "cyclic:2", "kcoeff", "--lam", '{"1":[2]}',
             "--del", '{"1":[1,1]}'],
            ["--group", "cyclic:2", "verify-iso", "--size-cap", "2",
             "--point-size", "3"],
            ["--group", "cyclic:2", "verify-poly", "--n", "4",
             "--size-cap", "2"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    after = _module_dicts()
    assert after.keys() == before.keys()
    assert [name for name in after if after[name] > before[name]] == []


def test_calculator_caches_are_bounded(z3):
    calc = CharacterCalculator(z3)
    caches = {name: value for name, value in vars(calc).items()
              if isinstance(value, dict)}
    assert caches, "no instance dict found; the walk is broken"
    for name, cache in caches.items():
        assert isinstance(cache, BoundedCache), name
        assert cache.maxsize == 4096, name


def test_calculator_caches_evict_oldest(z2):
    """Every BoundedCache on the calculator holds at most maxsize entries,
    forgets the oldest first and gives the same values after forgetting."""
    calc = CharacterCalculator(z2)
    caches = {name: value for name, value in vars(calc).items()
              if isinstance(value, BoundedCache)}
    assert set(caches) == {"_terms", "_within", "_points"}
    for cache in caches.values():
        cache.maxsize = 3
    ref = CharacterCalculator(z2)
    deltas = list(families_of_size(3, 2))
    pairs = [(lam, delta) for lam in families_of_size(3, 2, "char")
             for delta in deltas]
    for lam, delta in pairs * 2:
        assert x_value(calc, lam, delta) == x_value(ref, lam, delta)
        assert all(len(cache) <= 3 for cache in caches.values())
    assert list(calc._terms) == deltas[-3:]
