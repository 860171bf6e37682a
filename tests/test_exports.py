import pytest

import sfm


def test_every_export_resolves():
    assert len(set(sfm.__all__)) == len(sfm.__all__)
    assert [name for name in sfm.__all__ if not hasattr(sfm, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sfm import *", namespace)
    assert set(sfm.__all__) <= set(namespace)


def test_every_export_is_its_home_module_object():
    import importlib

    for module, names in sfm._EXPORTS.items():
        home = importlib.import_module(f"sfm.{module}")
        assert [name for name in names if getattr(sfm, name) is not getattr(home, name)] == []
    assert sorted(name for names in sfm._EXPORTS.values() for name in names) == sfm.__all__


def test_dir_lists_every_export():
    assert set(sfm.__all__) <= set(dir(sfm))


# An unknown name, and four names removed from the public surface.
@pytest.mark.parametrize("name", ["no_such_name", "residual_vector", "jacobian",
                                  "growth_scenarios", "return_scenarios"])
def test_unknown_name_raises_attribute_error_naming_sfm(name):
    with pytest.raises(AttributeError, match=f"module 'sfm' has no attribute '{name}'"):
        getattr(sfm, name)
    assert not hasattr(sfm, name)


def test_cli_reads_public_names_through_the_package():
    import sfm.cli
    import sfm.solver

    assert sfm.cli.solve is sfm.solver.solve
    with pytest.raises(AttributeError, match="module 'sfm.cli' has no attribute 'no_such_name'"):
        sfm.cli.no_such_name
