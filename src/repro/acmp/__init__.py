"""ACMP assembly: configuration, topology and wiring over repro.machine.

The ACMP is the first implementation of the
:class:`repro.machine.MachineModel` protocol (registered as ``acmp``);
importing this package registers the model. The result records,
their JSON form and the simulation driver are machine-neutral
and re-exported here from :mod:`repro.machine`: ``simulate`` resolves
an :class:`AcmpConfig` to this model, and ``AcmpSimulator`` is
:class:`~repro.machine.simulator.SystemSimulator`.
"""

from repro.acmp.config import (
    AcmpConfig,
    all_shared_config,
    baseline_config,
    worker_shared_config,
)
from repro.acmp.model import MODEL
from repro.acmp.system import AcmpSystem, EventQueue
from repro.acmp.topology import CacheGroup, Topology, build_topology
from repro.machine.results import CacheGroupResult, CoreResult, SimulationResult
from repro.machine.serialization import result_from_dict, result_to_dict
from repro.machine.simulator import SystemSimulator as AcmpSimulator
from repro.machine.simulator import simulate

__all__ = [
    "MODEL",
    "result_from_dict",
    "result_to_dict",
    "AcmpConfig",
    "all_shared_config",
    "baseline_config",
    "worker_shared_config",
    "CacheGroupResult",
    "CoreResult",
    "SimulationResult",
    "AcmpSimulator",
    "simulate",
    "AcmpSystem",
    "EventQueue",
    "CacheGroup",
    "Topology",
    "build_topology",
]
