import pytest

from pitmesh import fem


@pytest.fixture
def splu_specs(monkeypatch):
    """The permc_spec of every fem.splu call, in call order."""
    specs = []
    real = fem.splu

    def recorder(matrix, permc_spec, **kwargs):
        specs.append(permc_spec)
        return real(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(fem, "splu", recorder)
    return specs
