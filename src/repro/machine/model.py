"""The machine-model protocol and registry.

A *machine model* packages everything one simulated machine needs:
its configuration dataclass, standard design-point factories, the
system builder, and the shape of its results. Models register under a
short name (``acmp``, ``scmp``); every layer above — the campaign
runner, the result store, the experiment context and the CLIs — looks
machines up here instead of hard-wiring one, so adding a machine model
is a leaf change (see README "Adding a machine model").

Built-in models are imported lazily to keep ``import repro`` light and
to avoid import cycles (machine packages import :mod:`repro.machine`
themselves).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.config import BaseMachineConfig
    from repro.machine.system import System
    from repro.trace.stream import TraceSet


@runtime_checkable
class MachineModel(Protocol):
    """Everything the stack needs to simulate one machine family.

    Implementations are small singletons (see ``repro.acmp.model`` and
    ``repro.scmp.model``); the contract every new model must meet is
    spelled out in README "Adding a machine model", including the
    equivalence-grid requirement (bit-identical results under the
    scheduled and reference engines, enforced by
    ``tests/test_scheduler_equivalence.py``).
    """

    #: Registry name; also the store/namespace key for cached results.
    name: str
    #: The model's configuration dataclass (frozen).
    config_type: type

    def default_config(self, **overrides) -> BaseMachineConfig:
        """The model's reference design point."""

    def baseline_config(self, **overrides) -> BaseMachineConfig:
        """The private-front-end baseline (no shared I-cache groups)."""

    def shared_config(
        self,
        cores_per_cache: int = 8,
        icache_kb: int = 16,
        bus_count: int = 2,
        line_buffers: int = 4,
        **overrides,
    ) -> BaseMachineConfig:
        """A shared-front-end design point at the given sharing degree."""

    def all_shared_config(
        self, icache_kb: int = 32, bus_count: int = 2, **overrides
    ) -> BaseMachineConfig:
        """The fully-shared design point: every core, the one running
        the master thread included, behind one I-cache. On machines
        whose shared topology already includes core 0 this coincides
        with ``shared_config`` at full sharing degree."""

    def build_system(
        self, config: BaseMachineConfig, traces: TraceSet
    ) -> System:
        """Assemble the simulated machine for one (config, traces) pair."""

    def build_topology(self, config: BaseMachineConfig):
        """Derive the cache-group topology for a bare configuration
        (no traces needed); used by the area/energy models."""

    def config_space(self) -> dict[str, tuple]:
        """The sweepable dimensions and their standard values."""

    def standard_design_points(self) -> list[BaseMachineConfig]:
        """The design points a standing campaign sweeps for this model."""

    def result_schema(self) -> dict:
        """The serialized result shape this model produces."""


#: Modules providing the built-in models, imported on first lookup.
_BUILTIN_MODULES = {
    "acmp": "repro.acmp.model",
    "scmp": "repro.scmp.model",
}

_MODELS: dict[str, MachineModel] = {}


def register_model(model: MachineModel) -> MachineModel:
    """Register a machine model under :attr:`MachineModel.name`.

    Re-registering the same object is a no-op (modules may be imported
    more than once); registering a *different* model under an existing
    name is refused — silently replacing a machine would let cached
    results be reinterpreted by the wrong model.
    """
    existing = _MODELS.get(model.name)
    if existing is not None and existing is not model:
        raise ConfigurationError(
            f"a different machine model is already registered as "
            f"{model.name!r}"
        )
    _MODELS[model.name] = model
    return model


def _load_builtin(name: str) -> None:
    module = _BUILTIN_MODULES.get(name)
    if module is not None and name not in _MODELS:
        __import__(module)  # the module registers its model on import


def get_model(name: str) -> MachineModel:
    """Look a machine model up by registry name."""
    _load_builtin(name)
    try:
        return _MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine model {name!r}; expected one of "
            f"{model_names()}"
        ) from None


def model_names() -> list[str]:
    """Every known model name (built-ins included), sorted."""
    return sorted(set(_MODELS) | set(_BUILTIN_MODULES))


def _all_models() -> Iterable[MachineModel]:
    for name in model_names():
        _load_builtin(name)
    return _MODELS.values()


def model_for_config(config: object) -> MachineModel:
    """Resolve the model owning a configuration object by its type.

    This is what lets the layers above stay machine-agnostic: a bare
    config (an :class:`~repro.acmp.config.AcmpConfig`, an
    :class:`~repro.scmp.config.ScmpConfig`, ...) is enough to identify
    the machine it describes.
    """
    for model in _all_models():
        if type(config) is model.config_type:
            return model
    raise ConfigurationError(
        f"no registered machine model owns configuration type "
        f"{type(config).__name__!r}"
    )
