"""The package's public names are the __all__ lists of its six modules,
re-exported by bcinterp/__init__.py and declared nowhere else."""

import types

import bcinterp
from bcinterp import exactnum, limits, okounkov, partitions, rank2, shimura

MODULES = (exactnum, limits, okounkov, partitions, rank2, shimura)


def test_the_public_names_are_the_union_of_the_module_lists():
    public = {name for name, value in vars(bcinterp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for module in MODULES for name in module.__all__}


def test_each_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bcinterp, name) is getattr(module, name), (module.__name__, name)
