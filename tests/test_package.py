"""The package namespace: every module's ``__all__`` re-exported whole, and nothing else public."""

import importlib
import pkgutil
import types

import telegraph_kit

MODULES = [
    importlib.import_module(f"telegraph_kit.{info.name}")
    for info in pkgutil.iter_modules(telegraph_kit.__path__)
]
# the modules that list public names; cli is the front end and lists none
LISTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_every_listed_name_is_a_package_name():
    assert {module.__name__ for module in LISTING} == {
        f"telegraph_kit.{name}"
        for name in ("analysis", "coupling", "excursions", "model", "paths", "simulate")
    }
    for module in LISTING:
        for name in module.__all__:
            assert getattr(telegraph_kit, name, None) is getattr(module, name), (module, name)


def test_every_public_package_name_is_listed_or_a_submodule():
    listed = {name for module in LISTING for name in module.__all__}
    for name, value in vars(telegraph_kit).items():
        if name.startswith("_") or name in listed:
            continue
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"telegraph_kit.{name}", name
    assert isinstance(telegraph_kit.__version__, str)


def test_names_the_import_list_had_dropped_are_importable():
    from telegraph_kit import ExpSource, binned_tv_noise_floor, coalescence_times
    from telegraph_kit.analysis import binned_tv_noise_floor as from_analysis
    from telegraph_kit.coupling import coalescence_times as from_coupling
    from telegraph_kit.simulate import ExpSource as from_simulate

    assert (ExpSource, binned_tv_noise_floor, coalescence_times) == (
        from_simulate, from_analysis, from_coupling
    )
