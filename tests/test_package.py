import baryblend


def test_every_export_resolves():
    missing = [name for name in baryblend.__all__
               if not hasattr(baryblend, name)]
    assert missing == []
