"""Warm-state checkpoints: the machine-neutral snapshot protocol.

Sampled simulation (:mod:`repro.sampling`) runs detailed simulation only
over measurement intervals and must carry *warmed* microarchitectural
state between them: the structures whose contents build up over millions
of instructions — L1I and L2 tag/replacement state, line buffers, iTLB
translations, branch-predictor tables — as opposed to transient timing
state (FTQ/IQ occupancy, in-flight requests, commit credit), which
drains at every interval boundary anyway.

:class:`WarmState` is that snapshot. :meth:`System.capture_warm_state`
produces one from any machine model built on the shared assembly layer
(:class:`repro.machine.system.System`), and
:meth:`System.restore_warm_state` installs one into a freshly-built
system of the *same* design point, so both the ACMP and the symmetric
CMP get sampled simulation without model-specific code.

Sharing semantics: for the large tables (cache tags, replacement order,
gshare counters, BTB) capture and restore pass storage **by reference**
— a restored system and the snapshot's source share those lists. This
is deliberate: the sampled simulator alternates one warming machine
with a sequence of short-lived measurement machines, and copying a
megabyte-scale L2 tag array per interval would erase the sampling
speedup. Callers that need an independent, durable snapshot serialize
through :meth:`WarmState.to_dict`, which deep-copies into JSON
primitives; :meth:`WarmState.from_dict` rebuilds a snapshot whose
storage is fresh.

The gshare counter table is a ``bytearray`` (one byte per 2-bit
counter), shared by reference like the other tables; the compiled
warming kernel writes it in place. :meth:`WarmState.to_dict` renders it
as a list of ints, and restoring a list (a :meth:`WarmState.from_dict`
snapshot) converts it back to a ``bytearray`` once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["WarmState"]


@dataclass
class WarmState:
    """One machine's warm microarchitectural state.

    Attributes:
        machine: registry name of the producing machine model; a
            snapshot never restores into a different model.
        config_label: design-point label of the producing configuration;
            shapes are validated structure by structure on restore, the
            label catches whole-design mismatches early.
        cores: per-core state: line buffers plus indices into
            :attr:`predictors` / :attr:`itlbs` (group-shared structures
            are captured once and referenced by every member core).
        predictors: unique fetch-predictor snapshots, in core order of
            first appearance.
        itlbs: unique iTLB snapshots, in core order of first appearance.
        groups: per-cache-group state: L1I and L2 snapshots, in topology
            order.
        shape: warm-shape digest of the producing system (see
            :func:`repro.machine.system.warm_shape_digest`): a hash over
            exactly the structural parameters the snapshot depends on.
            Two design points with equal digests hold interchangeable
            warm state even when their timing parameters differ — the
            property the checkpoint store keys on. Empty on legacy
            payloads, in which case restore falls back to comparing
            design-point labels.
    """

    machine: str
    config_label: str
    cores: list[dict] = field(default_factory=list)
    predictors: list[dict] = field(default_factory=list)
    itlbs: list[dict] = field(default_factory=list)
    groups: list[dict] = field(default_factory=list)
    shape: str = ""

    def to_dict(self) -> dict:
        """Deep-copied, JSON-primitive form of the snapshot.

        The result shares no storage with any simulated machine, so it
        can be persisted or compared while simulation continues. Live
        sets (the compulsory-miss classifiers, captured by reference)
        serialize as sorted lists, so equal states render identically;
        the gshare ``bytearray`` serializes as a list of ints.
        """

        def jsonable(value):
            if isinstance(value, (set, frozenset)):
                return sorted(value)
            if isinstance(value, bytearray):
                return list(value)
            raise TypeError(f"not JSON-serialisable: {type(value)}")

        return json.loads(
            json.dumps(
                {
                    "machine": self.machine,
                    "config_label": self.config_label,
                    "cores": self.cores,
                    "predictors": self.predictors,
                    "itlbs": self.itlbs,
                    "groups": self.groups,
                    "shape": self.shape,
                },
                default=jsonable,
            )
        )

    @classmethod
    def from_dict(cls, data: dict) -> WarmState:
        """Rebuild a snapshot from :meth:`to_dict` output.

        The payload is deep-copied (one JSON round trip), so the
        snapshot owns fresh storage: restoring it never couples a
        system to the caller's dict, matching the docstring promise of
        :meth:`to_dict`.
        """
        try:
            data = json.loads(json.dumps(data))
            return cls(
                machine=data["machine"],
                config_label=data["config_label"],
                cores=list(data["cores"]),
                predictors=list(data["predictors"]),
                itlbs=list(data["itlbs"]),
                groups=list(data["groups"]),
                shape=data.get("shape", ""),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed warm-state payload: {exc}"
            ) from exc

    def check_compatible(
        self, machine: str, config_label: str, shape: str = ""
    ) -> None:
        """Refuse to restore into a different machine or design point.

        When both the snapshot and the target carry a warm-shape digest
        the comparison is structural: any two design points with equal
        digests are interchangeable (their timing parameters may
        differ). Legacy snapshots without a digest fall back to the
        stricter design-point-label comparison.
        """
        if self.machine != machine:
            raise ConfigurationError(
                f"warm state was captured on machine {self.machine!r}, "
                f"cannot restore into {machine!r}"
            )
        if self.shape and shape:
            if self.shape != shape:
                raise ConfigurationError(
                    f"warm state was captured on design point "
                    f"{self.config_label!r} (shape {self.shape}), "
                    f"cannot restore into {config_label!r} "
                    f"(shape {shape})"
                )
        elif self.config_label != config_label:
            raise ConfigurationError(
                f"warm state was captured on design point "
                f"{self.config_label!r}, cannot restore into "
                f"{config_label!r}"
            )
