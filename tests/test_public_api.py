"""The package's public names: every export resolves, none is listed twice."""
import skewlab


def test_all_exports_resolve_once():
    names = skewlab.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(skewlab, n)]
    assert missing == []
