"""Shared fixtures for the SymBee reproduction test suite.

BLAS is pinned to one thread before anything imports numpy, as on the
command line (see ``repro.__main__``); an explicit setting in the
environment still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def pytest_report_header(config):
    from repro.obs.manifest import blas_threads

    return (
        f"blas threads: {blas_threads()} "
        f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"
    )


@pytest.fixture(autouse=True)
def _obs_state_guard():
    """Never leak process-wide telemetry state between tests.

    The metrics registry and tracer are process singletons; a test that
    enables them (or records events) and fails before its own cleanup
    would silently meter every later test.  Teardown-only on purpose:
    ``tests/obs/conftest.py`` asserts entry cleanliness, so a leak shows
    up as a failure at the leaking test's teardown, not as mystery
    counts three files later.
    """
    yield
    from repro.obs import REGISTRY, TRACER

    REGISTRY.disable()
    REGISTRY.reset()
    TRACER.disable()
    TRACER.reset()


@pytest.fixture
def rng():
    """Deterministic generator; per-test isolation via fixed seed."""
    return np.random.default_rng(0xC7C)


@pytest.fixture(scope="session")
def ideal_link():
    """A no-channel SymBee link shared by read-only tests."""
    from repro.core.link import SymBeeLink

    return SymBeeLink()


@pytest.fixture(scope="session")
def clean_capture():
    """One noiseless end-to-end capture with known bits (session-cached).

    Returns ``(link, bits, result)`` where ``result.phases`` is populated.
    Tests must not mutate any of it.
    """
    from repro.core.link import SymBeeLink

    link = SymBeeLink(include_noise=False)
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0]
    result = link.send_bits(bits, np.random.default_rng(1), keep_phases=True)
    return link, bits, result
