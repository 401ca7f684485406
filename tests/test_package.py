import hashcast


def test_every_export_resolves():
    missing = [name for name in hashcast.__all__ if not hasattr(hashcast, name)]
    assert missing == []
