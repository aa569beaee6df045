"""Observability-suite fixtures.

Every test here runs inside a null-pair observability scope, so it
starts from the disabled defaults and anything a test leaves set is
reset when the scope exits.
"""

from __future__ import annotations

import pytest

from repro.obs import NULL_METRICS, NULL_TRACER, observability


@pytest.fixture(autouse=True)
def _obs_hygiene():
    with observability(tracer=NULL_TRACER, metrics=NULL_METRICS):
        yield
