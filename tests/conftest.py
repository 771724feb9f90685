import pytest

from projlab.manifold import CapChart


# module scope: the frame-field and seed-grid caches live on the chart
@pytest.fixture(scope="module")
def cap3():
    return CapChart(3, 0.6)
