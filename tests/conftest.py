import pytest

from thetaq import identities


@pytest.fixture
def flipped_thm2(monkeypatch):
    """thm2 with the minus on its right side turned into a plus, so a known
    wrong statement reaches the real sampler and certifier.  The products
    are associated as in identities.thm2_sides, so it costs what thm2 does."""

    def flipped_sides(s2, s1, d3, d4, x1, x2, y2, y1):
        return s2 * (d3 * (x1 * y2 + y1 * x2)), s1 * (d4 * (x2 * y2 + x1 * y1))

    monkeypatch.setattr(identities, "thm2_sides", flipped_sides)
