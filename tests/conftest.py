import sys
from pathlib import Path

import numpy as np
import pytest

from infopurity import infomeasures

# make the shared oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def calls(monkeypatch):
    """Every ``_ascend`` call as (start value, start state, direction,
    attempt, tol, result); the start is copied because the ascent
    updates its state in place."""
    recorded = []
    real = infomeasures._ascend

    def spy(value, state, direction, attempt, tol):
        start = (np.array(value, dtype=float), tuple(part.copy() for part in state))
        out = real(value, state, direction, attempt, tol)
        recorded.append((*start, direction, attempt, tol, out))
        return out

    monkeypatch.setattr(infomeasures, "_ascend", spy)
    return recorded
