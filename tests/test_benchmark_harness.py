"""The benchmark harness in perfbench/ still runs on this program.

The tracer looks methods up by name (``Algebra.associativity_report``,
``Bimodule.axiom_report``, ``LeibnizSystem.__init__``, ...), and the
workloads read attributes such as ``Element.coords``, ``mul_tensor``,
``LinearMap`` and the raw ``Subspace(...)`` constructor.  A deletion that
removes one of them shows up here, not only as failed benchmark
operations.  Nothing under perfbench/ is changed by this test.
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
