"""The public namespace: what `import covertvd` exports."""

import importlib

import pytest

import covertvd


def test_every_exported_name_resolves_once():
    assert len(covertvd.__all__) == len(set(covertvd.__all__))
    for name in covertvd.__all__:
        assert getattr(covertvd, name) is not None, name


@pytest.mark.parametrize("module, name", (
    ("divergences", "kl_beta_lower"),
    ("special", "q_fn"),
    ("power", "CovertBudget"),
    ("oracles", "tvd_monte_carlo"),
    ("types", "METHOD_MONTE_CARLO"),
    ("expansions", "gamma_series_lower"),
    ("expansions", "gamma_series_upper"),
    ("expansions", "gamma_series_transition"),
    ("throughput", "t_mu"),
    ("throughput", "v_hat_mu"),
    ("throughput", "b_mu"),
))
def test_removed_names_are_gone(module, name):
    assert name not in covertvd.__all__
    assert not hasattr(covertvd, name)
    assert not hasattr(importlib.import_module(f"covertvd.{module}"), name)
