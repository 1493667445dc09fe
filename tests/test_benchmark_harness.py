"""The benchmark harness in perfbench/ still runs on this program.

The tracer looks methods up by name (``Algebra.associativity_report``,
``Bimodule.axiom_report``, ``LeibnizSystem.__init__``, ...), and the
workloads read attributes such as ``Element.coords``, ``mul_tensor``,
``LinearMap`` and the ``Subspace(...)`` constructor.  A deletion that
removes one of them shows up here, not only as failed benchmark
operations.  A traced der-ladder pass also pins the Leibniz system the
benchmark measures, and a traced verify-mix pass the checks it counts.  Nothing under perfbench/ is changed by these tests.
"""

from pathlib import Path

import modext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_one_verify_mix_pass_succeeds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import verify_mix

    t = tracer.Tracer()
    try:
        tracer.install(t)
    finally:
        t.uninstall()
    w = verify_mix.Workload(modext, 1)
    w.one_pass()
    assert w.attempted > 0
    assert w.failed == 0


def test_traced_der_ladder_pass_keeps_the_system_shape(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import der_ladder
    import tracer

    t = tracer.Tracer()
    w = der_ladder.Workload(modext, 1)
    try:
        w.start_trace(t)
        w.one_pass()
    finally:
        t.uninstall()
    assert w.failed == 0
    layers = w.layers(t)
    shape = [layers["derivations.system_" + k] for k in ("rows", "cols", "nnz")]
    assert shape == [1795, 410, 3571]  # the Leibniz system in D's values at the generators
    assert layers["linalg.rank"] == 316
    assert layers["linalg.max_entry_bits"] == 19


def test_traced_verify_mix_pass_still_sees_the_checks(monkeypatch):
    # the Leibniz and radical checks run on integer tables inside the
    # functions the tracer wraps: it still counts and times them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import verify_mix

    t = tracer.Tracer()
    w = verify_mix.Workload(modext, 1)
    try:
        w.start_trace(t)
        w.one_pass()
    finally:
        t.uninstall()
    assert w.failed == 0
    layers = w.layers(t)
    assert layers["derivations.is_derivation_calls"] == 40
    assert layers["analysis.radical_s"] > 0
