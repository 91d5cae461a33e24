import numpy as np
import pytest
from hypothesis import settings

# Derandomized and without an example database, so every run draws the
# same examples; no per-example deadline, since one example runs whole
# drops.
settings.register_profile("thpalloc", derandomize=True, database=None,
                          deadline=None, max_examples=10)
settings.load_profile("thpalloc")


@pytest.fixture
def fail_first_svd(monkeypatch):
    """Make the test's first numpy.linalg.svd call raise LinAlgError."""
    svd = np.linalg.svd
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
