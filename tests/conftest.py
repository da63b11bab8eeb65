import pytest

from pitmesh import fem


@pytest.fixture
def band_calls(monkeypatch):
    """fem's BandLayout builds ("layout") and cholesky_banded calls
    ("factor"), in call order."""
    calls = []
    real_layout, real_factor = fem.BandLayout, fem.cholesky_banded

    def layout(mesh, block, levels):
        calls.append("layout")
        return real_layout(mesh, block, levels)

    def factor(band, **kwargs):
        calls.append("factor")
        return real_factor(band, **kwargs)

    monkeypatch.setattr(fem, "BandLayout", layout)
    monkeypatch.setattr(fem, "cholesky_banded", factor)
    return calls
