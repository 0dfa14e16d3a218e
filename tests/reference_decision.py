"""The scalar reference route, reached through the public API.

The kernel mining loop body reproduces exactly one decision function,
:class:`MajorityDecision` itself (the rule is ``type(decision) is
MajorityDecision``).  :class:`ReferenceMajority` is that decision under
another type, so a discoverer built with it mines every candidate
through the scalar Figure 2 loop body — the reference the default
kernel route must match byte for byte.

:func:`route_everything_scalar` goes further for one test: every
discoverer, whatever its decision function, runs the scalar body — the
way to drive a whole session (discovery and rule maintenance) down the
reference route.

Test modules import these as ``from reference_decision import ...``
(pytest puts this directory, home of the root ``conftest.py``, on
``sys.path``).
"""

from repro.discovery import discoverer as discoverer_module
from repro.discovery.decision import MajorityDecision


class ReferenceMajority(MajorityDecision):
    """:class:`MajorityDecision` with no overrides, routed to the scalar
    loop body by the kernel fallback rule."""


class _NoKernelDecision(MajorityDecision):
    """Never instantiated: no decision function is exactly this type."""


def route_everything_scalar(monkeypatch):
    """Point the kernel rule at :class:`_NoKernelDecision` for the rest
    of the test, so every candidate of every discoverer takes the scalar
    loop body."""
    monkeypatch.setattr(discoverer_module, "MajorityDecision", _NoKernelDecision)
