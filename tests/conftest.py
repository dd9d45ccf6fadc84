import pytest


@pytest.fixture(autouse=True)
def _no_thread_override(monkeypatch):
    """Run in-process tests at the default thread count.

    A ``PLEVYLAB_THREADS`` exported in the calling shell would otherwise
    change which path the Monte Carlo tests take; tests that need a count
    set it themselves through ``monkeypatch``.
    """
    monkeypatch.delenv("PLEVYLAB_THREADS", raising=False)
