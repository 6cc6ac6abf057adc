"""The `pnc` namespace is the union of its modules' `__all__` lists, and nothing else."""

import types

import pnc
from pnc import bounds, constellation, encoders, mimo, sync

MODULES = (bounds, constellation, encoders, mimo, sync)


def test_each_exported_name_is_the_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pnc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_other_public_name():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)  # no module's name shadows another's
    public = {name for name in vars(pnc) if not name.startswith("_")}
    submodules = {
        name for name in public
        if isinstance(getattr(pnc, name), types.ModuleType)
        and getattr(pnc, name).__name__ == f"pnc.{name}"
    }
    assert public - submodules == set(names)


def test_every_public_module_name_is_exported():
    # pam_sum_profile and the Side type are public in their modules, so in the package too
    assert pnc.pam_sum_profile is constellation.pam_sum_profile
    assert pnc.Side is bounds.Side
