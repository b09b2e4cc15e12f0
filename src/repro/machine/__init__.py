"""Machine-model abstraction layer.

Everything machine-neutral that the per-machine packages
(:mod:`repro.acmp`, :mod:`repro.scmp`) build on: the shared
configuration substrate, cache-group topology dataclasses, the
self-scheduling per-core unit and interconnect kernel components, the system assembly base class, the
simulator driver, result records and their JSON form, and the
:class:`MachineModel` protocol + registry that the campaign and
experiment layers resolve machines through.
"""

from repro.machine.components import CoreUnit, GroupInterconnectComponent
from repro.machine.config import BaseMachineConfig
from repro.machine.model import (
    MachineModel,
    get_model,
    model_for_config,
    model_names,
    register_model,
)
from repro.machine.results import CacheGroupResult, CoreResult, SimulationResult
from repro.machine.serialization import result_from_dict, result_to_dict
from repro.machine.simulator import SystemSimulator, simulate
from repro.machine.system import Core, System, scale_serial_ipc
from repro.machine.topology import CacheGroup, Topology

__all__ = [
    "BaseMachineConfig",
    "CacheGroup",
    "CacheGroupResult",
    "Core",
    "CoreUnit",
    "GroupInterconnectComponent",
    "MachineModel",
    "SimulationResult",
    "CoreResult",
    "System",
    "SystemSimulator",
    "Topology",
    "get_model",
    "model_for_config",
    "model_names",
    "register_model",
    "result_from_dict",
    "result_to_dict",
    "scale_serial_ipc",
    "simulate",
]
