"""The RRMP protocol (system S3 in DESIGN.md).

Wire messages, configuration, loss detection, the two-phase randomized
error-recovery algorithm (§2.2) and the member/sender state machines,
plus the :class:`RrmpSimulation` facade that assembles a full group.

This package resolves its exports lazily (PEP 562).  The buffering
layer (:mod:`repro.core`) imports the message definitions from
:mod:`repro.protocol.messages`, while the member state machine imports
the buffering layer — eager re-exports here would close an import
cycle through this ``__init__``.
"""

from typing import TYPE_CHECKING

#: export name -> submodule that defines it
_EXPORTS = {
    "CC_AIMD": "config",
    "CC_CONTROLLERS": "config",
    "CC_NONE": "config",
    "CC_TFMCC": "config",
    "CONTROL_WIRE_SIZE": "messages",
    "CongestionConfig": "config",
    "DATA_WIRE_SIZE": "messages",
    "DataMessage": "messages",
    "FEC_MODES": "config",
    "FeedbackReport": "messages",
    "FEC_OFF": "config",
    "FEC_PROACTIVE": "config",
    "FEC_REACTIVE": "config",
    "GapTracker": "loss_detection",
    "HandoffMessage": "messages",
    "HaveReply": "messages",
    "LocalRequest": "messages",
    "PAPER_SECTION4_CONFIG": "config",
    "ParityMessage": "messages",
    "PolicyFactory": "rrmp",
    "REPAIR_LOCAL": "messages",
    "REPAIR_REGIONAL": "messages",
    "REPAIR_RELAY": "messages",
    "REPAIR_REMOTE": "messages",
    "RecoveryHost": "recovery",
    "RecoveryProcess": "recovery",
    "RemoteRequest": "messages",
    "Repair": "messages",
    "RrmpConfig": "config",
    "RrmpMember": "member",
    "RrmpSender": "sender",
    "RrmpSimulation": "rrmp",
    "SearchRequest": "messages",
    "Seq": "messages",
    "SessionMessage": "messages",
    "VIA_FEC": "member",
    "VIA_HANDOFF": "member",
    "VIA_INJECTED": "member",
    "VIA_LOCAL_REPAIR": "member",
    "VIA_MULTICAST": "member",
    "VIA_REGIONAL": "member",
    "VIA_REMOTE_REPAIR": "member",
    "two_phase_policy_factory": "rrmp",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Lazily import exported names from their defining submodule."""
    submodule_name = _EXPORTS.get(name)
    if submodule_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    submodule = importlib.import_module(f"{__name__}.{submodule_name}")
    value = getattr(submodule, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.protocol.config import (
        CC_AIMD,
        CC_CONTROLLERS,
        CC_NONE,
        CC_TFMCC,
        FEC_MODES,
        FEC_OFF,
        FEC_PROACTIVE,
        FEC_REACTIVE,
        PAPER_SECTION4_CONFIG,
        CongestionConfig,
        RrmpConfig,
    )
    from repro.protocol.loss_detection import GapTracker
    from repro.protocol.member import (
        VIA_FEC,
        VIA_HANDOFF,
        VIA_INJECTED,
        VIA_LOCAL_REPAIR,
        VIA_MULTICAST,
        VIA_REGIONAL,
        VIA_REMOTE_REPAIR,
        RrmpMember,
    )
    from repro.protocol.messages import (
        CONTROL_WIRE_SIZE,
        DATA_WIRE_SIZE,
        REPAIR_LOCAL,
        REPAIR_REGIONAL,
        REPAIR_RELAY,
        REPAIR_REMOTE,
        DataMessage,
        FeedbackReport,
        HandoffMessage,
        HaveReply,
        LocalRequest,
        ParityMessage,
        RemoteRequest,
        Repair,
        SearchRequest,
        Seq,
        SessionMessage,
    )
    from repro.protocol.recovery import RecoveryHost, RecoveryProcess
    from repro.protocol.rrmp import (
        PolicyFactory,
        RrmpSimulation,
        two_phase_policy_factory,
    )
    from repro.protocol.sender import RrmpSender
