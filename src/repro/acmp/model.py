"""The ACMP machine model: registry glue for the paper's machine."""

from __future__ import annotations

from repro.acmp.config import (
    AcmpConfig,
    all_shared_config,
    baseline_config,
    worker_shared_config,
)
from repro.acmp.system import AcmpSystem
from repro.machine.model import register_model
from repro.machine.serialization import _FORMAT_VERSION
from repro.trace.stream import TraceSet


class AcmpModel:
    """1 big master core + lean workers with shareable I-caches (Fig. 5)."""

    name = "acmp"
    config_type = AcmpConfig

    def default_config(self, **overrides) -> AcmpConfig:
        return baseline_config(**overrides)

    def baseline_config(self, **overrides) -> AcmpConfig:
        """The paper's baseline: private 32 KB worker I-caches."""
        return baseline_config(**overrides)

    def shared_config(
        self,
        cores_per_cache: int = 8,
        icache_kb: int = 16,
        bus_count: int = 2,
        line_buffers: int = 4,
        **overrides,
    ) -> AcmpConfig:
        """A worker-shared design point (the paper's proposal)."""
        return worker_shared_config(
            cores_per_cache=cores_per_cache,
            icache_kb=icache_kb,
            bus_count=bus_count,
            line_buffers=line_buffers,
            **overrides,
        )

    def all_shared_config(
        self, icache_kb: int = 32, bus_count: int = 2, **overrides
    ) -> AcmpConfig:
        """Section VI-E: master and workers share a single I-cache."""
        return all_shared_config(
            icache_kb=icache_kb, bus_count=bus_count, **overrides
        )

    def build_system(self, config: AcmpConfig, traces: TraceSet) -> AcmpSystem:
        return AcmpSystem(config, traces)

    def build_topology(self, config: AcmpConfig):
        from repro.acmp.topology import build_topology

        return build_topology(config)

    def config_space(self) -> dict[str, tuple]:
        """The dimensions the paper sweeps (Figs. 7-13)."""
        return {
            "cores_per_cache": (1, 2, 4, 8),
            "worker_icache_bytes": (16 * 1024, 32 * 1024),
            "bus_count": (1, 2),
            "line_buffers": (2, 4, 8),
            "arbitration": ("round-robin", "icount"),
            "interconnect": ("bus", "crossbar"),
        }

    def standard_design_points(self) -> list[AcmpConfig]:
        """Baseline, the naive-sharing sweep, and the proposal."""
        return [
            baseline_config(),
            worker_shared_config(
                cores_per_cache=2, icache_kb=32, bus_count=1, line_buffers=4
            ),
            worker_shared_config(
                cores_per_cache=4, icache_kb=32, bus_count=1, line_buffers=4
            ),
            worker_shared_config(
                cores_per_cache=8, icache_kb=32, bus_count=1, line_buffers=4
            ),
            worker_shared_config(),  # cpc=8, 16 KB, double bus (Fig. 12 best)
            all_shared_config(),
        ]

    def result_schema(self) -> dict:
        """Shape of this model's serialized :class:`SimulationResult`."""
        return {
            "machine": self.name,
            "version": _FORMAT_VERSION,
            "core_roles": {"0": "big master", "1..worker_count": "lean worker"},
            "cache_groups": "group 0 = master private; workers grouped by "
            "cores_per_cache (all_shared merges everyone)",
        }


MODEL = register_model(AcmpModel())
