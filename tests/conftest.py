import pytest


def pytest_collection_modifyitems(items):
    """Mark ``slow`` every test that needs the full-scale acceptance fixture,
    so ``pytest -m "not slow"`` runs the rest in seconds."""
    for item in items:
        if "full_pipeline" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
