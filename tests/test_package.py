"""The package's public surface: what ``import precshrink`` exports."""

import types

import precshrink


def test_all_lists_each_public_name_once():
    exported = precshrink.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert getattr(precshrink, name) is not None
    # A function deleted from its module must not leave a stale export behind,
    # and a name imported into the package must be exported.
    defined = {name for name, value in vars(precshrink).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == defined
