import importlib
import pkgutil

import versal

from conftest import clear_memos, memos


def test_versal_keeps_exactly_three_memos():
    # every module loaded, so the scan sees every memo; a new one has to be
    # added here on purpose
    for module in pkgutil.iter_modules(versal.__path__):
        importlib.import_module(f"versal.{module.name}")
    assert set(memos()) == {"versal.closure._reading", "versal.codimension._nullity",
                            "versal.deformation._layout"}


def test_clear_memos_empties_every_memo():
    # what the autouse fixture runs before every test
    versal.orbit_codim_oracle(versal.SegreStructure([(0.0, [2]), (1.0, [1])]))
    versal.perturbation_experiment(versal.SegreStructure([(0.0, [2])]), {1: 1e-3})
    assert all(memo.cache_info().currsize for memo in memos().values())
    clear_memos()
    assert not any(memo.cache_info().currsize for memo in memos().values())
