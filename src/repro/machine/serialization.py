"""The JSON form of simulation results, across machine models.

Experiment campaigns (hundreds of design-point runs) need durable,
diff-able outputs; this module round-trips :class:`SimulationResult`
through plain JSON primitives, which the campaign's
:class:`~repro.campaign.store.ResultStore` persists, so sweeps can be
resumed, archived and compared without re-simulating. Payloads carry
the producing machine model's registry name; a loader expecting one
model refuses another model's payload instead of silently mixing
machines.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.machine.results import CacheGroupResult, CoreResult, SimulationResult

_FORMAT_VERSION = 1


def result_to_dict(result: SimulationResult) -> dict:
    """Convert a result to JSON-serialisable primitives.

    The ``sampling`` key is present only on sampled (extrapolated)
    results, so full-run payloads are byte-identical to pre-sampling
    ones and a sampled payload is recognisable at a glance.
    """
    payload = {
        "version": _FORMAT_VERSION,
        "machine": result.machine,
        "benchmark": result.benchmark,
        "config_label": result.config_label,
        "cycles": result.cycles,
        "dram_accesses": result.dram_accesses,
        "lock_hand_offs": result.lock_hand_offs,
        "cores": [
            {
                "core_id": core.core_id,
                "committed": core.committed,
                "base_cycles": core.base_cycles,
                "stall_cycles": dict(core.stall_cycles),
                "blocks_fetched": core.blocks_fetched,
                "redirects": core.redirects,
                "line_requests": core.line_requests,
                "buffer_hits": core.buffer_hits,
                "cache_fetches": core.cache_fetches,
                "branch_lookups": core.branch_lookups,
                "branch_mispredictions": core.branch_mispredictions,
                "sync_block_cycles": core.sync_block_cycles,
                "itlb_lookups": core.itlb_lookups,
                "itlb_misses": core.itlb_misses,
            }
            for core in result.cores
        ],
        "cache_groups": [
            {
                "index": group.index,
                "core_ids": list(group.core_ids),
                "size_bytes": group.size_bytes,
                "accesses": group.accesses,
                "hits": group.hits,
                "misses": group.misses,
                "compulsory_misses": group.compulsory_misses,
                "mshr_merges": group.mshr_merges,
                "l2_accesses": group.l2_accesses,
                "l2_misses": group.l2_misses,
                "bus_transactions": group.bus_transactions,
                "bus_wait_cycles": group.bus_wait_cycles,
                "bus_busy_cycles": group.bus_busy_cycles,
            }
            for group in result.cache_groups
        ],
    }
    if result.sampling is not None:
        payload["sampling"] = result.sampling
    # ``result.metrics`` is deliberately NOT part of this payload: the
    # dict is the bit-identity contract (engine cross-checks and
    # serial/parallel comparisons assert equality on it), and recorded
    # metrics legitimately differ across engines and wall clocks. The
    # result store persists them as a sibling of the result payload.
    return payload


def result_from_dict(data: dict, expect_machine: str | None = None) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output.

    Every field :func:`result_to_dict` writes is required (only
    ``sampling`` is optional); a payload missing one is malformed.

    Args:
        expect_machine: when given, the payload must have been produced
            by this machine model; a payload from any other model is
            rejected with a :class:`SimulationError` instead of being
            silently reinterpreted.
    """
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise SimulationError(
            f"unsupported result format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    try:
        machine = data["machine"]
        if expect_machine is not None and machine != expect_machine:
            raise SimulationError(
                f"result payload was produced by machine model "
                f"{machine!r}, not the expected {expect_machine!r}; "
                f"results do not transfer between machine models"
            )
        result = SimulationResult(
            benchmark=data["benchmark"],
            config_label=data["config_label"],
            cycles=data["cycles"],
            dram_accesses=data["dram_accesses"],
            lock_hand_offs=data["lock_hand_offs"],
            machine=machine,
            sampling=data.get("sampling"),
        )
        for core_data in data["cores"]:
            result.cores.append(CoreResult(**core_data))
        for group_data in data["cache_groups"]:
            group_data = dict(group_data)
            group_data["core_ids"] = tuple(group_data["core_ids"])
            result.cache_groups.append(CacheGroupResult(**group_data))
    except (KeyError, TypeError) as exc:
        raise SimulationError(f"malformed result payload: {exc}") from exc
    return result
