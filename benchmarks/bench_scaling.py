"""Regenerate Fig. 4 (F4): embodied carbon vs performance, 1/2/4 GPUs."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import ARTIFACTS
from repro.analysis.figures import figure4


def test_figure4(benchmark):
    points = benchmark(figure4)
    by_key = {(p.suite, p.n_gpus): p for p in points}
    # Paper: ratio ~1 at 2 GPUs; 0.88 / 0.79 / 0.88 at 4 GPUs.
    for suite in ("NLP", "Vision", "CANDLE"):
        assert 0.90 <= by_key[(suite, 2)].performance_to_embodied <= 1.05
    assert by_key[("NLP", 4)].performance_to_embodied == pytest.approx(0.88, abs=0.02)
    assert by_key[("Vision", 4)].performance_to_embodied == pytest.approx(0.79, abs=0.02)
    assert by_key[("CANDLE", 4)].performance_to_embodied == pytest.approx(0.88, abs=0.02)
    print("\n" + ARTIFACTS["fig4"].section())
