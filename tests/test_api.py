import skewbidisc


def test_every_exported_name_resolves():
    assert [name for name in skewbidisc.__all__ if not hasattr(skewbidisc, name)] == []
    assert len(set(skewbidisc.__all__)) == len(skewbidisc.__all__)
