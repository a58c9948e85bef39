import copy

import pytest

from conftest import method_overrides, with_method


class _Box:
    def value(self):
        return 1


def test_monkeypatch_undo_leaves_the_override_that_copy_carries():
    """The leak the autouse guard in conftest catches: after the undo the
    instance holds its own bound method, and a copy calls the original's."""
    box = _Box()
    mp = pytest.MonkeyPatch()
    mp.setattr(box, "value", lambda: 2)
    mp.undo()
    assert method_overrides(box) == ["value"]
    assert copy.copy(box).value.__self__ is box


def test_with_method_patches_a_copy_only():
    box = _Box()
    twin = with_method(box, "value", lambda: 2)
    assert twin.value() == 2 and box.value() == 1
    assert method_overrides(box) == []
