"""What ships is what a run can reach.

Every run goes ``ScenarioSpec`` -> ``scenario/materialize.py`` -> a
member group, so a pluggable model that ``materialize.py`` never names
can only be built by a test.  Such a model needs a stated reason to
stay; otherwise it is deleted with the seam kept open for it.  The
second guard pins the member's dispatch table to the wire format, so a
new wire type without a handler fails here, not at the first live run.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro
from repro.core.policies import BufferPolicy
from repro.net.ipmulticast import MulticastOutcome
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel
from repro.protocol.member import RrmpMember
from repro.protocol.messages import WIRE_MESSAGE_TYPES, FeedbackReport
from repro.scenario import materialize
from repro.workloads.traffic import TrafficGenerator

PLUGGABLE_BASES = (LossModel, LatencyModel, MulticastOutcome, BufferPolicy,
                   TrafficGenerator)

#: Models no spec kind maps to, and why each one stays.
EXEMPT = {
    "NoLoss": "engine default: Network/LiveTransport without a loss model",
    "PerfectOutcome": "engine default: RrmpSender without an outcome",
    "TwoPhaseBufferPolicy": "engine default: built by two_phase_policy_factory "
                            "and by RrmpMember without a policy",
    "ConstantLatency": "test double; also the ledger's loopback microbenchmark",
    "BernoulliLoss": "test double: per-delivery loss on a bare transport",
    "ReceiverSetLoss": "test double: scripts exact loss patterns",
    "FixedHolders": "test double: scripts exactly who holds a multicast",
}


def _import_all_of_repro() -> None:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def _concrete_subclasses(base: type) -> set:
    found = set()
    for sub in base.__subclasses__():
        if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
            found.add(sub)
        found |= _concrete_subclasses(sub)
    return found


def test_every_pluggable_model_is_spec_reachable_or_exempt_with_a_reason():
    _import_all_of_repro()
    source = Path(materialize.__file__).read_text()
    every = {cls.__name__ for base in PLUGGABLE_BASES
             for cls in _concrete_subclasses(base)}
    unreachable = {name for name in every
                   if not re.search(rf"\b{name}\b", source)}
    # Equality both ways: an exempt name that materialize.py builds, or
    # that no longer exists, is a stale exemption.
    assert unreachable == set(EXEMPT), (
        "a model no ScenarioSpec can build needs an EXEMPT reason or goes: "
        f"{sorted(unreachable - set(EXEMPT))}; stale exemptions: "
        f"{sorted(set(EXEMPT) - unreachable)}")
    assert all(EXEMPT.values())


def test_member_dispatch_covers_the_wire_format_with_its_own_functions():
    # A FeedbackReport is the sender's CC driver's (``extra_handlers``).
    assert set(RrmpMember._DISPATCH) == set(WIRE_MESSAGE_TYPES) - {FeedbackReport}
    for payload_type, handler in RrmpMember._DISPATCH.items():
        assert inspect.isfunction(handler), (payload_type, handler)
        assert RrmpMember.__dict__[handler.__name__] is handler
