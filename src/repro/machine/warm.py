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
gshare counters, loop predictor, BTB, seen sets) capture and restore
pass storage **by reference** — a restored system and the snapshot's
source share those tables. Capture is therefore free, and a snapshot
that is restored into exactly one system needs no copy at all (a
decoded checkpoint). Two ways out of the sharing, one per use:

* :meth:`WarmState.copy` serves in-process hand-offs: C-level list,
  ``bytearray``, dict and set copies of every table, no serialization.
  The sampled simulator hands each measurement machine a copy while
  its warming machine keeps (and walks on with) its own tables.
* :func:`repro.sampling.checkpoints.encode_state` packs a snapshot for
  the on-disk checkpoint store without copying it first, and
  :func:`~repro.sampling.checkpoints.decode_state` rebuilds one with
  fresh storage.

Every table is a plain ``dict``, ``list``, ``set`` or ``bytearray``, so
two snapshots compare with ``==`` (the dataclass equality), whichever
of capture, :meth:`WarmState.copy` or a decode produced them.

Cache state is sparse: a cache snapshot carries its geometry (``sets``
and ``ways``), a dict from each *filled* set's index to its valid lines
in way order (the first free way is the row's length) and, under LRU, a
dict from each *touched* set's index to its recency order. A set that
never held a line costs nothing to capture, copy, encode, decode or
restore; of the 131,840 sets a fig07 + fig10 sweep's checkpoints
describe (UA and CG at scale 0.5), 98,957 hold no line. PLRU bits and
FIFO pointers stay one dense row or cell per set.

The gshare counter table is a ``bytearray`` (one byte per 2-bit
counter), shared by reference like the other tables; the warmer's
:func:`~repro.sampling.warmer.lru_walk` writes it in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["WarmState"]


@dataclass
class WarmState:
    """One machine's warm microarchitectural state.

    Attributes:
        machine: registry name of the producing machine model; a
            snapshot never restores into a different model.
        config_label: design-point label of the producing configuration
            (named in error messages).
        shape: warm-shape digest of the producing system (see
            :func:`repro.machine.system.warm_shape_digest`): a hash over
            exactly the structural parameters the snapshot depends on.
            Two design points with equal digests hold interchangeable
            warm state even when their timing parameters differ — the
            property the checkpoint store keys on.
        cores: per-core state: line buffers plus indices into
            :attr:`predictors` / :attr:`itlbs` (group-shared structures
            are captured once and referenced by every member core).
        predictors: unique fetch-predictor snapshots, in core order of
            first appearance.
        itlbs: unique iTLB snapshots, in core order of first appearance.
        groups: per-cache-group state: L1I and L2 snapshots, in topology
            order.
    """

    machine: str
    config_label: str
    shape: str
    cores: list[dict] = field(default_factory=list)
    predictors: list[dict] = field(default_factory=list)
    itlbs: list[dict] = field(default_factory=list)
    groups: list[dict] = field(default_factory=list)

    def copy(self) -> WarmState:
        """A snapshot with the same content and storage of its own.

        The in-process hand-off: every table is copied with one C-level
        call per list (a row at a time for the per-set tables, filled
        or touched sets only for the sparse ones), the gshare
        ``bytearray`` and the seen sets are copied whole, and scalars
        are shared. Restoring the copy never couples the restored
        system to this snapshot's source, and ``copy() == self``.
        """
        return WarmState(
            machine=self.machine,
            config_label=self.config_label,
            shape=self.shape,
            cores=[
                {
                    "line_buffers": {
                        "clock": core["line_buffers"]["clock"],
                        "entries": list(
                            map(list.copy, core["line_buffers"]["entries"])
                        ),
                    },
                    "predictor": core["predictor"],
                    "itlb": core["itlb"],
                }
                for core in self.cores
            ],
            predictors=[
                {
                    "direction": {
                        "counters": bytearray(
                            predictor["direction"]["counters"]
                        ),
                        "history": predictor["direction"]["history"],
                    },
                    "loop": _copy_columns(predictor["loop"]),
                    "btb": _copy_columns(predictor["btb"]),
                }
                for predictor in self.predictors
            ],
            itlbs=[
                {
                    "clock": itlb["clock"],
                    "pages": list(map(list.copy, itlb["pages"])),
                    "seen": set(itlb["seen"]),
                }
                for itlb in self.itlbs
            ],
            groups=[
                {"icache": _copy_cache(group["icache"]),
                 "l2": _copy_cache(group["l2"])}
                for group in self.groups
            ],
        )

    def check_compatible(
        self, machine: str, config_label: str, shape: str
    ) -> None:
        """Refuse to restore into a different machine or warm shape.

        The comparison is structural: any two design points with equal
        warm-shape digests are interchangeable (their timing parameters
        may differ).
        """
        if self.machine != machine:
            raise ConfigurationError(
                f"warm state was captured on machine {self.machine!r}, "
                f"cannot restore into {machine!r}"
            )
        if self.shape != shape:
            raise ConfigurationError(
                f"warm state was captured on design point "
                f"{self.config_label!r} (shape {self.shape}), "
                f"cannot restore into {config_label!r} (shape {shape})"
            )


# -- copies for in-process hand-offs ----------------------------------------


def _copy_columns(state: dict) -> dict:
    """Equal-length flat tables (loop predictor, BTB)."""
    return {name: list(column) for name, column in state.items()}


def _copy_cache(state: dict) -> dict:
    """Geometry, tag rows, replacement state and the seen-lines set.

    Replacement state is a dict of touched sets' rows (LRU), per-set
    rows (PLRU bits), per-set ints (FIFO pointers) or ``None`` (a policy
    without warm state): rows are copied, ints and ``None`` shared.
    """
    tags = state["tags"]
    policy = state["policy"]
    if type(policy) is dict:
        policy = dict(zip(policy, map(list.copy, policy.values())))
    elif policy is not None:
        policy = [row.copy() if type(row) is list else row for row in policy]
    return {
        "sets": state["sets"],
        "ways": state["ways"],
        "tags": dict(zip(tags, map(list.copy, tags.values()))),
        "replacement": state["replacement"],
        "policy": policy,
        "seen": set(state["seen"]),
    }
