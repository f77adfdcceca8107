import shifted_kschur


def test_every_export_resolves():
    missing = [name for name in shifted_kschur.__all__
               if not hasattr(shifted_kschur, name)]
    assert not missing
