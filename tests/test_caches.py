"""Module-level caches are bounded and stay within their declared bounds."""

import importlib
import pkgutil

import nsg
from nsg import NumericalSemigroup, ci, enumeration

# a call filling a new entry for each k, per cache
FILLS = {
    "nsg.enumeration.ci_with_frobenius": lambda k: enumeration.ci_with_frobenius(2 * k),
    "nsg.ci.gluing_decompose": lambda k: ci.gluing_decompose(NumericalSemigroup(k + 2, k + 3)),
}


def module_caches():
    """Every function with a ``cache_info`` defined at module level in an ``nsg`` module."""
    caches = {}
    for info in pkgutil.iter_modules(nsg.__path__, "nsg."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == info.name:
                caches[f"{info.name}.{name}"] = value
    return caches


def test_every_cache_is_known_and_bounded():
    caches = module_caches()
    assert caches.keys() == FILLS.keys()
    for name, cached in caches.items():
        assert cached.cache_info().maxsize is not None, name


def test_caches_stay_within_maxsize():
    for name, cached in module_caches().items():
        cached.cache_clear()
        maxsize = cached.cache_info().maxsize
        try:
            for k in range(maxsize + 10):
                FILLS[name](k)
            info = cached.cache_info()
            assert info.misses > maxsize, name
            assert info.currsize <= maxsize, name
        finally:
            cached.cache_clear()
