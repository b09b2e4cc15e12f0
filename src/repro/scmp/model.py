"""The symmetric-CMP machine model: registry glue."""

from __future__ import annotations

from repro.machine.model import register_model
from repro.machine.serialization import _FORMAT_VERSION
from repro.scmp.config import ScmpConfig, banked_config, private_config
from repro.scmp.system import ScmpSystem
from repro.trace.stream import TraceSet


class ScmpModel:
    """Uniform lean cores with per-core or banked-shared front-ends."""

    name = "scmp"
    config_type = ScmpConfig

    def default_config(self, **overrides) -> ScmpConfig:
        return private_config(**overrides)

    def baseline_config(self, **overrides) -> ScmpConfig:
        """The symmetric baseline: per-core private I-caches."""
        return private_config(**overrides)

    def shared_config(
        self,
        cores_per_cache: int = 8,
        icache_kb: int = 16,
        bus_count: int = 2,
        line_buffers: int = 4,
        **overrides,
    ) -> ScmpConfig:
        """A banked shared-front-end design point."""
        return banked_config(
            cores_per_cache=cores_per_cache,
            icache_kb=icache_kb,
            bus_count=bus_count,
            line_buffers=line_buffers,
            **overrides,
        )

    def all_shared_config(
        self, icache_kb: int = 32, bus_count: int = 2, **overrides
    ) -> ScmpConfig:
        """One banked I-cache across every core. The symmetric machine
        has no private master front-end, so this coincides with
        ``shared_config`` at full sharing degree (core 0 included).

        The sharing degree follows any core-count override, so the
        'every core behind one cache' contract holds at any size.
        """
        from repro.errors import ConfigurationError

        core_count = overrides.pop("core_count", None)
        total = overrides.pop("core_count_total", None)
        if core_count is None:
            core_count = (
                total if total is not None else ScmpConfig().core_count_total
            )
        elif total is not None and total != core_count:
            raise ConfigurationError(
                f"conflicting core-count overrides: core_count="
                f"{core_count}, core_count_total={total}"
            )
        return banked_config(
            cores_per_cache=core_count,
            icache_kb=icache_kb,
            bus_count=bus_count,
            core_count=core_count,
            **overrides,
        )

    def build_system(self, config: ScmpConfig, traces: TraceSet) -> ScmpSystem:
        return ScmpSystem(config, traces)

    def build_topology(self, config: ScmpConfig):
        from repro.scmp.topology import build_topology

        return build_topology(config)

    def config_space(self) -> dict[str, tuple]:
        """The per-core-vs-shared front-end sweep dimensions."""
        return {
            "core_count_total": (4, 8, 16),
            "cores_per_cache": (1, 2, 4, 8),
            "icache_bytes": (16 * 1024, 32 * 1024),
            "bus_count": (1, 2),
            "line_buffers": (2, 4, 8),
            "serial_ipc_scale": (0.5, 1.0),
        }

    def standard_design_points(self) -> list[ScmpConfig]:
        """Private baseline plus the banked-sharing sweep."""
        return [
            private_config(),
            banked_config(cores_per_cache=2, icache_kb=32, bus_count=1),
            banked_config(cores_per_cache=4, icache_kb=32, bus_count=1),
            banked_config(cores_per_cache=8, icache_kb=32, bus_count=1),
            banked_config(),  # cpc=8, 16 KB, double bus
        ]

    def result_schema(self) -> dict:
        """Shape of this model's serialized :class:`SimulationResult`."""
        return {
            "machine": self.name,
            "version": _FORMAT_VERSION,
            "core_roles": {"0..core_count": "uniform lean core"},
            "cache_groups": "cores grouped uniformly by cores_per_cache "
            "(no private master group)",
        }


MODEL = register_model(ScmpModel())
