import degenskel


def test_public_names_resolve_once():
    names = degenskel.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(degenskel, n)] == []
