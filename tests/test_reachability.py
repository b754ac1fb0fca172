"""What ships is what a run can reach.

Every run goes ``ScenarioSpec`` -> ``scenario/materialize.py`` -> a
member group whose members build the buffer policy the spec's
``policy.kind`` names (the table in ``protocol/member.py``), so a
pluggable model that neither module names can only be built by a test.
Such a model needs a stated reason to stay; otherwise it is deleted
with the seam kept open for it.  Congestion controllers follow the
same rule through ``CongestionSpec.controller``.  The experiments
follow the same path: none wires a group by hand.  The last guard pins
the member's dispatch table to the wire format, so a new wire type
without a handler fails here, not at the first live run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import repro
from repro import experiments
from repro.cc.controller import CongestionController, controller_for
from repro.core.policies import BufferPolicy
from repro.net.ipmulticast import MulticastOutcome
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel
from repro.protocol import member
from repro.protocol.config import CC_CONTROLLERS, CC_NONE, CongestionSpec
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
    source = "".join(Path(module.__file__).read_text() for module in (materialize, member))
    every = {cls.__name__ for base in PLUGGABLE_BASES
             for cls in _concrete_subclasses(base)}
    unreachable = {name for name in every
                   if not re.search(rf"\b{name}\b", source)}
    # Equality both ways: an exempt name that either module builds, or
    # that no longer exists, is a stale exemption.
    assert unreachable == set(EXEMPT), (
        "a model no ScenarioSpec can build needs an EXEMPT reason or goes: "
        f"{sorted(unreachable - set(EXEMPT))}; stale exemptions: "
        f"{sorted(set(EXEMPT) - unreachable)}")
    assert all(EXEMPT.values())


def _is_controller(cls: type) -> bool:
    methods = [name for name in vars(CongestionController)
               if not name.startswith("_") and callable(vars(CongestionController)[name])]
    return (cls is not CongestionController and not cls.__name__.startswith("_")
            and all(callable(getattr(cls, name, None)) for name in methods))


def test_every_congestion_controller_is_built_by_a_spec_value():
    # "none" builds nothing: the open-loop run installs no driver.
    _import_all_of_repro()
    every = {cls for name, module in list(sys.modules.items()) if name.startswith("repro.")
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == name and _is_controller(cls)}
    built = {type(controller_for(CongestionSpec(controller=name)))
             for name in CC_CONTROLLERS if name != CC_NONE}
    assert every == built, sorted(cls.__name__ for cls in every ^ built)


#: Classes an experiment would wire a run from by hand.
HAND_BUILT = {"RrmpSimulation", "HierarchicalLatency", "TreeSimulation"}


def test_experiments_build_every_run_from_a_spec():
    # Every arm is a ScenarioSpec: RRMP through spec.build(), the RMTP
    # baseline through base.run_tree_baseline, which hands the
    # TreeSimulation class to materialize.build_group like spec.build()
    # hands it RrmpSimulation.
    found = []
    for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        for owner in module.body:
            for node in ast.walk(owner):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee in HAND_BUILT:
                        found.append((path.name, getattr(owner, "name", None), callee))
    assert found == []


def test_member_dispatch_covers_the_wire_format_with_its_own_functions():
    # A FeedbackReport is the sender's CC driver's (``extra_handlers``).
    assert set(RrmpMember._DISPATCH) == set(WIRE_MESSAGE_TYPES) - {FeedbackReport}
    for payload_type, handler in RrmpMember._DISPATCH.items():
        assert inspect.isfunction(handler), (payload_type, handler)
        assert RrmpMember.__dict__[handler.__name__] is handler
