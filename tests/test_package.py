"""The package namespace: what `from linkgroups import *` binds."""

import linkgroups


def test_star_import_binds_every_exported_name():
    # a name left in __all__ after its definition is deleted breaks the
    # star import; a repeated one is a stale copy
    names = linkgroups.__all__
    assert len(set(names)) == len(names), sorted({n for n in names if names.count(n) > 1})
    namespace = {}
    exec("from linkgroups import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
