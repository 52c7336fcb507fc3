"""Module-level caches stay within their declared bounds."""

from nsg import ci, enumeration, witt


def test_caches_stay_within_maxsize():
    caches = {
        "cyclotomic": (witt._cyclotomic, lambda k: witt.cyclotomic_polynomial(k + 1)),
        "ci": (enumeration.ci_with_frobenius, lambda k: enumeration.ci_with_frobenius(2 * k)),
        "decompose": (ci._decompose, lambda k: ci._decompose((k + 2, k + 3))),
    }
    for name, (cached, fill) in caches.items():
        cached.cache_clear()
        maxsize = cached.cache_info().maxsize
        try:
            for k in range(maxsize + 10):
                fill(k)
            info = cached.cache_info()
            assert info.misses > maxsize, name
            assert info.currsize <= maxsize, name
        finally:
            cached.cache_clear()
