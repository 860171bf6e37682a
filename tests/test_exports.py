import sfm


def test_every_export_resolves():
    assert len(set(sfm.__all__)) == len(sfm.__all__)
    assert [name for name in sfm.__all__ if not hasattr(sfm, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sfm import *", namespace)
    assert set(sfm.__all__) <= set(namespace)
