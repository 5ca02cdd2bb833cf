"""The package namespaces: each module's `__all__` is the one list of its
public names, and gauss_share and gauss_share.protocol re-export exactly the
union of their modules' lists, bound to the objects the modules define."""

import importlib

import pytest

import gauss_share
from gauss_share import access_structure, capacity, errors, protocol, source_model
from gauss_share.protocol import bounds, codebook, hashing, model, quantize, simulate

# package, the modules it re-exports, and the names it adds of its own
PACKAGES = [
    pytest.param(gauss_share, (access_structure, capacity, errors, source_model),
                 ("protocol",), id="gauss_share"),
    pytest.param(protocol, (bounds, codebook, hashing, model, quantize, simulate), (),
                 id="gauss_share.protocol"),
]


# installed: the installed package must re-export exactly its modules'
# __all__, as the checkout does
@pytest.mark.installed
@pytest.mark.parametrize("package, modules, own", PACKAGES)
class TestNamespace:
    def test_no_name_is_listed_twice(self, package, modules, own):
        assert len(package.__all__) == len(set(package.__all__))
        for module in modules:
            assert len(module.__all__) == len(set(module.__all__)), module.__name__

    def test_all_is_the_union_of_the_modules_lists(self, package, modules, own):
        union = [*own, *(name for module in modules for name in module.__all__)]
        assert len(union) == len(set(union))
        assert set(package.__all__) == set(union)

    def test_each_name_is_the_object_its_module_defines(self, package, modules, own):
        for module in modules:
            for name in module.__all__:
                obj = vars(module)[name]
                assert obj.__module__ == module.__name__, (module.__name__, name)
                assert getattr(package, name) is obj, (module.__name__, name)
        for name in own:
            assert getattr(package, name) is importlib.import_module(
                f"{package.__name__}.{name}")

    def test_star_import_binds_exactly_all(self, package, modules, own):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(package.__all__)
        assert all(namespace[name] is getattr(package, name) for name in namespace)
