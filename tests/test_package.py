import substratum


def test_star_import_and_all_resolve():
    namespace: dict = {}
    exec("from substratum import *", namespace)
    for name in substratum.__all__:
        assert name in namespace
        assert getattr(substratum, name) is namespace[name]
