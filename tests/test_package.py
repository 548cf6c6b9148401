import eulerext


def test_every_exported_name_resolves_once():
    names = eulerext.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(eulerext, name), name
