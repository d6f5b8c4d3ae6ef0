"""Export lists: the package and its submodules name only what exists."""

import importlib
import inspect

import pytest

import pbitqkd

# in import order, so a re-imported constant resolves to where it is defined
SUBMODULES = (
    "linalg", "states", "twist", "estimation", "channels", "bounds", "ecpa", "protocol",
)

# names that were deleted, or moved to tests/reference.py; none may
# come back as an export
DELETED = (
    "layout_of", "hs_inner", "op_norm", "net_key_rate", "hoeffding_tail",
    "binary_entropy_inv_left", "estimate_eps_x", "optimal_untwist",
    "sample_product_outcomes", "toeplitz_extract", "sample_branch",
    "phi_d_vec", "maximally_mixed", "apply_channel",
    "random_unitary", "random_density", "bell_state", "random_twisting", "joint_outcome_table",
    "TensorLayout", "ProductDecomposition", "EstimationResult", "best_candidate",
    "local_eigensystem",
)


def defining_module(name):
    obj = getattr(pbitqkd, name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        return importlib.import_module(obj.__module__)
    modules = (importlib.import_module(f"pbitqkd.{mod}") for mod in SUBMODULES)
    return next(mod for mod in modules if getattr(mod, name, None) is obj)


def test_package_exports_are_listed_by_their_defining_submodule():
    names = [n for n in pbitqkd.__all__ if n != "__version__"]
    missing = [n for n in names if not hasattr(pbitqkd, n)]
    assert not missing
    unlisted = [n for n in names if n not in defining_module(n).__all__]
    assert not unlisted


def test_submodule_exports_exist():
    for mod in SUBMODULES:
        module = importlib.import_module(f"pbitqkd.{mod}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, mod


def test_deleted_helpers_are_not_importable():
    for name in DELETED:
        with pytest.raises(ImportError):
            exec(f"from pbitqkd import {name}", {})
        holders = [mod for mod in SUBMODULES
                   if hasattr(importlib.import_module(f"pbitqkd.{mod}"), name)]
        assert not holders, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pbitqkd import *", namespace)
    assert [n for n in pbitqkd.__all__ if n not in namespace] == []


def test_dir_lists_every_exported_name():
    listed = set(dir(pbitqkd))
    assert [n for n in pbitqkd.__all__ if n not in listed] == []
    assert set(SUBMODULES) <= listed
