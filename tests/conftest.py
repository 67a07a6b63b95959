import pytest

from it2ipa import default_scale, fixtures, lookup, parse_aggregated


@pytest.fixture(scope="session")
def scale():
    return default_scale()


@pytest.fixture(scope="session")
def terms(scale):
    """Scale values keyed by label for compact test arithmetic."""
    return {label: lookup(scale, label) for label in scale.labels}


@pytest.fixture(scope="session")
def bundled_profiles():
    """The bundled aggregated dataset, keyed by factor id (immutable records)."""
    return {p.factor.id: p for p in parse_aggregated(fixtures.aggregated_path())}
