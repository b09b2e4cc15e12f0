"""Pure-Python kernels: the ``py`` backend and the compiled spec.

These functions are what the pure-Python backend runs in production —
:class:`repro.sampling.warmer.BatchedWarmer` and
:class:`repro.backend.backend.CommitEngine` call them through
:mod:`repro.kernels` unconditionally — and they define the exact
semantics the compiled backend (``repro.kernels._native``) must
reproduce bit for bit: first-match scans, first-minimum victim
tie-breaks, lazy LRU order-list materialization, insertion order of the
seen-sets, float credit additions. The equivalence tests run both
backends over the same randomized inputs and compare final table
states.
"""

from __future__ import annotations

__all__ = [
    "warm_span",
    "replay_walk",
    "REPLAY_NEXT",
    "REPLAY_HORIZON",
    "REPLAY_DRAIN",
    "REPLAY_STEPS",
]

#: :func:`replay_walk` mode selectors (one compiled entry point serves
#: all four deterministic commit-trajectory walks of
#: :class:`repro.backend.backend.CommitEngine`).
REPLAY_NEXT = 0  # cycles_to_next_commit: first credit >= 1.0 crossing
REPLAY_HORIZON = 1  # replay_horizon: drain/space trigger, else cap
REPLAY_DRAIN = 2  # drain_horizon: exact queue-empty cycle, else none
REPLAY_STEPS = 3  # replay_steps: settle a span, return the new state


def warm_span(
    line_bytes: int,
    starts: list[int],
    counts: list[int],
    kinds: list[int],
    keys: list[int],
    targets: list[int],
    takens: list[int],
    lb_lines: list,
    lb_uses: list[int],
    lb_clock: int,
    l1_tags: list[list],
    l1_order: list,
    l1_ways: int,
    l1_shift: int,
    l1_set_mask: int,
    l1_seen: set[int],
    l2_tags: list[list],
    l2_order: list,
    l2_ways: int,
    l2_shift: int,
    l2_set_mask: int,
    l2_seen: set[int],
    g_counters: list[int],
    g_history: int,
    g_mask: int,
    g_shift: int,
    lp_tags: list[int],
    lp_trips: list[int],
    lp_currents: list[int],
    lp_conf: list[int],
    lp_mask: int,
    lp_shift: int,
    b_tags: list[int],
    b_targets: list[int],
    b_mask: int,
    b_shift: int,
    t_map: dict[int, int] | None,
    t_seen: set[int] | None,
    t_clock: int,
    t_shift: int,
    t_capacity: int,
) -> tuple[int, int, int]:
    """Functionally warm one encoded span in one call.

    The :class:`~repro.sampling.warmer.BatchedWarmer` span walk: the
    blocks of one thread's flat span encoding (``starts``/``counts``
    give each block's first line address and line count;
    ``kinds``/``keys``/``targets``/``takens`` its terminating branch —
    kind 0 trains nothing, 1 is conditional, 2 is indirect) walk the
    iTLB, the line buffers and the LRU L1I/L2 per line, then the
    gshare, loop-predictor and BTB updates per block — exactly the
    per-structure operation sequences of the scalar walk, including
    LRU tie-breaks, seen-set/translation insertion order and clock
    bumps. ``t_map=None`` skips the iTLB (a core without one). Returns
    ``(lb_clock, g_history, t_clock)``; all tables are mutated in
    place.
    """
    lb_range = range(len(lb_lines))
    lb_uses_get = lb_uses.__getitem__
    have_itlb = t_map is not None
    if have_itlb:
        t_map_get = t_map.__getitem__
    for line, count, kind, address, target, taken in zip(
        starts, counts, kinds, keys, targets, takens
    ):
        for _ in range(count):
            if have_itlb:
                page = line >> t_shift
                t_clock += 1
                if page in t_map:
                    t_map[page] = t_clock
                else:
                    t_seen.add(page)
                    if len(t_map) >= t_capacity:
                        del t_map[min(t_map, key=t_map_get)]
                    t_map[page] = t_clock
            lb_clock += 1
            for slot in lb_range:
                if lb_lines[slot] == line:
                    lb_uses[slot] = lb_clock
                    break
            else:
                victim = min(lb_range, key=lb_uses_get)
                lb_clock += 1
                lb_lines[victim] = line
                lb_uses[victim] = lb_clock
                set_index = (line >> l1_shift) & l1_set_mask
                row = l1_tags[set_index]
                try:
                    way = row.index(line)
                    hit = True
                except ValueError:
                    hit = False
                if hit:
                    order = l1_order[set_index]
                    if order is None:
                        order = list(range(l1_ways))
                        l1_order[set_index] = order
                    order.remove(way)
                    order.append(way)
                else:
                    try:
                        way = row.index(None)
                    except ValueError:
                        order = l1_order[set_index]
                        if order is None:
                            order = list(range(l1_ways))
                            l1_order[set_index] = order
                        way = order[0]
                    row[way] = line
                    order = l1_order[set_index]
                    if order is None:
                        order = list(range(l1_ways))
                        l1_order[set_index] = order
                    order.remove(way)
                    order.append(way)
                    l1_seen.add(line)
                    l2_set = (line >> l2_shift) & l2_set_mask
                    l2_row = l2_tags[l2_set]
                    try:
                        l2_way = l2_row.index(line)
                        l2_hit = True
                    except ValueError:
                        l2_hit = False
                    if not l2_hit:
                        try:
                            l2_way = l2_row.index(None)
                        except ValueError:
                            order = l2_order[l2_set]
                            if order is None:
                                order = list(range(l2_ways))
                                l2_order[l2_set] = order
                            l2_way = order[0]
                        l2_row[l2_way] = line
                        l2_seen.add(line)
                    order = l2_order[l2_set]
                    if order is None:
                        order = list(range(l2_ways))
                        l2_order[l2_set] = order
                    order.remove(l2_way)
                    order.append(l2_way)
            line += line_bytes
        if kind == 1:
            gi = ((address >> g_shift) ^ g_history) & g_mask
            counter = g_counters[gi]
            if taken:
                if counter < 3:
                    g_counters[gi] = counter + 1
            elif counter > 0:
                g_counters[gi] = counter - 1
            g_history = ((g_history << 1) | (1 if taken else 0)) & g_mask
            tag = address >> lp_shift
            lp_index = tag & lp_mask
            if lp_tags[lp_index] != tag:
                if not taken:
                    lp_tags[lp_index] = tag
                    lp_trips[lp_index] = 0
                    lp_currents[lp_index] = 0
                    lp_conf[lp_index] = 0
            elif taken:
                lp_currents[lp_index] += 1
            else:
                observed = lp_currents[lp_index] + 1
                if observed == lp_trips[lp_index]:
                    confidence = lp_conf[lp_index]
                    if confidence < 3:
                        lp_conf[lp_index] = confidence + 1
                else:
                    lp_trips[lp_index] = observed
                    lp_conf[lp_index] = 0
                lp_currents[lp_index] = 0
        elif kind == 2:
            bi = (address >> b_shift) & b_mask
            b_tags[bi] = address
            b_targets[bi] = target
    return lb_clock, g_history, t_clock


def replay_walk(
    mode: int,
    credit: float,
    ipc: float,
    iq: int,
    count: int,
    space_limit: int,
):
    """Walk a deterministic commit/pacing trajectory in one call.

    The four planning/settlement walks of
    :class:`repro.backend.backend.CommitEngine` share one float credit
    trajectory — repeated ``credit += ipc`` additions with truncating
    commits — whose rounding must match the stepped engine bit for
    bit, so every mode replays exactly the additions ``step``
    performs:

    * ``REPLAY_NEXT`` (``cycles_to_next_commit``): the first cycle the
      credit crosses 1.0; returns the relative cycle, or 0 when no
      crossing lands within ``count`` cycles.
    * ``REPLAY_HORIZON`` (``replay_horizon``): the replay-window
      bound — one cycle past the commit that drains the queue or frees
      ``iq <= space_limit`` room, else ``count``. Pass
      ``space_limit=-1`` for no space gate.
    * ``REPLAY_DRAIN`` (``drain_horizon``): the exact cycle the queue
      empties, or 0 when it does not drain within ``count`` cycles.
    * ``REPLAY_STEPS`` (``replay_steps``): settle ``count``
      consecutive commit/pacing cycles; returns ``(committed,
      base_cycles, last_commit, iq, credit, stalled)`` where
      ``last_commit`` is the 1-based offset of the last committing
      cycle (0 for pure pacing) and ``stalled`` flags a span that
      crossed a stall boundary — the walk stops on the stall cycle
      with its credit addition applied and no base cycle charged,
      exactly the prefix state a stepped run raises from.

    Modes 0-2 mutate nothing and return a plain int; mode 3 is pure
    too — the caller applies the returned state.
    """
    if mode == REPLAY_NEXT:
        for ahead in range(1, count + 1):
            credit += ipc
            if credit >= 1.0:
                return ahead
        return 0
    if mode == REPLAY_HORIZON:
        for ahead in range(1, count + 1):
            credit += ipc
            commit = min(int(credit), iq)
            if commit:
                iq -= commit
                credit = min(credit - commit, ipc)
                if iq <= space_limit or iq == 0:
                    return ahead + 1
        return count
    if mode == REPLAY_DRAIN:
        for ahead in range(1, count + 1):
            credit += ipc
            commit = min(int(credit), iq)
            if commit:
                iq -= commit
                credit = min(credit - commit, ipc)
                if iq == 0:
                    return ahead
        return 0
    committed = 0
    base_cycles = 0
    last_commit = 0
    for offset in range(1, count + 1):
        credit += ipc
        commit = min(int(credit), iq)
        if commit > 0:
            iq -= commit
            credit -= commit
            base_cycles += 1
            credit = min(credit, ipc)
            committed += commit
            last_commit = offset
        elif credit >= 1.0:
            return (committed, base_cycles, last_commit, iq, credit, True)
        else:
            base_cycles += 1
    return (committed, base_cycles, last_commit, iq, credit, False)
