import pytest
from hypothesis import HealthCheck, settings

from etkit import cohomology

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _fresh_ring_memo():
    """Start every test with an empty ring memo: some tests replace a
    ring's private fields, and the memo would hand that ring to the next
    test that asks for the same normal form."""
    cohomology._ring.cache_clear()
