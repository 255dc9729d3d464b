"""The benchmark's traced run rebinds names in cmfactors; they must all exist.

`perfbench/tracing.py` wraps module-level names (`stats.scan`,
`stats._scan_chunk`, `frobenius.solve_norm`, ...) from the outside.  A
refactor that renames or removes one breaks `perfbench/run.py --trace 1`;
this test makes that fail in the fast suite too.
"""
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_every_traced_name_exists(tracing):
    hooks = tracing._hooks(tracing.Tracer())
    assert hooks
    for owner, attr, name, _ in hooks:
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr, name)
