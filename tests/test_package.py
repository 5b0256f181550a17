import bettikit


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from bettikit import *", namespace)
    assert len(bettikit.__all__) == len(set(bettikit.__all__))
    assert set(bettikit.__all__) <= namespace.keys()
