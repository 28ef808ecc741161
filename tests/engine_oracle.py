"""The per-step MDT event engine, kept as the reference for `simgen.engine.simulate`.

It advances every UE one step at a time: mobility, the t = 0 attach, the
A2-RSRP and A2-RSRQ machines, random-access resolution and A3 with
time-to-trigger, in that order within each step, emitting records as it
goes.  `simgen.engine.simulate` must return the same log and flags bit
for bit.
"""

from __future__ import annotations

import numpy as np

from sleepscan.config import SimConfig
from sleepscan.mdtlog import NO_TARGET, EventId, EventLog
from sleepscan.simgen.dominance import RadioMap
from sleepscan.simgen.layout import NetworkLayout


def simulate(
    layout: NetworkLayout, sim: SimConfig, radio: RadioMap, seed: int, faulty_cell: int | None = None
) -> tuple[EventLog, np.ndarray]:
    """Run one dataset; deterministic for a fixed mobility seed.

    Random access toward `faulty_cell` fails; None injects no fault.
    Returns the log in emission order and each record's fault-affected flag.
    """
    grid = radio.grid_spec
    cell_ids = radio.cell_ids
    n_cells = len(cell_ids)
    # The radio map by flat pixel index (iy * nx + ix); RSRP is copied
    # pixel-major so that each step gathers whole rows.
    rsrp_by_pixel = radio.rsrp_dbm.reshape(n_cells, -1).T.copy()  # (pixels, n_cells)
    total_by_pixel = radio.total_dbm.reshape(-1)
    dominance_by_pixel = radio.dominance.grid.reshape(-1)
    faulty_idx = -1 if faulty_cell is None else layout.index_of(faulty_cell)

    n_ue = sim.ues_per_cell * n_cells
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0, x1, y0, y1 = grid.extent
    pos = rng.uniform([x0, y0], [x1, y1], size=(n_ue, 2))
    waypoint = rng.uniform([x0, y0], [x1, y1], size=(n_ue, 2))
    speed = sim.ue_speed_kmh / 3.6 * sim.step_seconds  # meters per step

    ttt_steps = sim.steps(sim.ttt_ms, round_up=True)
    t304_steps = sim.steps(sim.t304_ms)
    complete_steps = 0 if sim.ho_complete_ms <= 0 else sim.steps(sim.ho_complete_ms)
    backoff_steps = sim.steps(sim.ho_backoff_ms)

    report_steps = sim.steps(sim.a2_report_interval_ms) if sim.a2_report_interval_ms > 0 else 0

    serving = np.zeros(n_ue, dtype=np.int64)          # cell index
    a2_rsrp_on = np.zeros(n_ue, dtype=bool)
    a2_rsrq_on = np.zeros(n_ue, dtype=bool)
    a2_rsrq_last = np.zeros(n_ue, dtype=np.int64)     # step of last RSRQ report
    a3_count = np.zeros(n_ue, dtype=np.int64)
    pending_target = np.full(n_ue, -1, dtype=np.int64)  # cell index, -1 = none
    pending_timer = np.zeros(n_ue, dtype=np.int64)
    bar_cell = np.full(n_ue, -1, dtype=np.int64)
    bar_until = np.zeros(n_ue, dtype=np.int64)

    rows: list[tuple] = []  # (event, ue, t, x, y, serving, target)
    affected: list[bool] = []
    ue_range = np.arange(n_ue)

    def emit(event, ue, t, dom_cell, target_idx=None):
        target = NO_TARGET if target_idx is None else int(cell_ids[target_idx])
        x, y = pos[ue].tolist()
        rows.append((int(event), int(ue), int(t), x, y, int(cell_ids[serving[ue]]), target))
        affected.append(faulty_cell is not None and faulty_cell in (target, int(dom_cell)))

    def best_healthy(rsrp_row):
        row = rsrp_row.copy()
        row[faulty_idx] = -np.inf
        return int(np.argmax(row))

    for t in range(sim.duration_steps):
        if t > 0:
            vec = waypoint - pos
            dist = np.hypot(vec[:, 0], vec[:, 1])
            arrive = dist <= speed
            if arrive.any():
                pos[arrive] = waypoint[arrive]
                waypoint[arrive] = rng.uniform([x0, y0], [x1, y1], size=(int(arrive.sum()), 2))
            move = ~arrive
            pos[move] += vec[move] / dist[move, None] * speed

        iy, ix = grid.indices_for(pos[:, 0], pos[:, 1])
        pixel = iy * grid.nx + ix
        rsrp = rsrp_by_pixel[pixel]  # (n_ue, n_cells)
        dom_now = dominance_by_pixel[pixel]

        if t == 0:
            serving[:] = np.argmax(rsrp, axis=1)
            if faulty_cell is not None:
                for u in np.nonzero(serving == faulty_idx)[0]:
                    # initial attach toward the sleeping cell fails
                    emit(EventId.PL_PROBLEM, u, t, dom_now[u])
                    emit(EventId.RLF, u, t, dom_now[u])
                    best = best_healthy(rsrp[u])
                    emit(EventId.RLF_REESTAB, u, t, dom_now[u], target_idx=best)
                    serving[u] = best
                    bar_cell[u] = faulty_idx
                    bar_until[u] = t + backoff_steps

        serving_rsrp = rsrp[ue_range, serving]
        rsrq = serving_rsrp - total_by_pixel[pixel] - sim.rsrq_load_db

        # A2 RSRP enter/leave on threshold-with-hysteresis crossings
        enter = ~a2_rsrp_on & (serving_rsrp < sim.a2_rsrp_threshold_dbm - sim.a2_rsrp_hysteresis_db)
        leave = a2_rsrp_on & (serving_rsrp > sim.a2_rsrp_threshold_dbm + sim.a2_rsrp_hysteresis_db)
        for u in np.nonzero(enter)[0]:
            emit(EventId.A2_RSRP_ENTER, u, t, dom_now[u])
        for u in np.nonzero(leave)[0]:
            emit(EventId.A2_RSRP_LEAVE, u, t, dom_now[u])
        a2_rsrp_on |= enter
        a2_rsrp_on &= ~leave

        # A2 RSRQ has an enter event only; the leave crossing resets silently.
        # While the condition holds the report repeats every report interval.
        enter_q = ~a2_rsrq_on & (rsrq < sim.a2_rsrq_threshold_db - sim.a2_rsrq_hysteresis_db)
        reset_q = a2_rsrq_on & (rsrq > sim.a2_rsrq_threshold_db + sim.a2_rsrq_hysteresis_db)
        repeat_q = (
            a2_rsrq_on & ~reset_q & (t - a2_rsrq_last >= report_steps)
            if report_steps
            else np.zeros(n_ue, dtype=bool)
        )
        for u in np.nonzero(enter_q | repeat_q)[0]:
            emit(EventId.A2_RSRQ_ENTER, u, t, dom_now[u])
            a2_rsrq_last[u] = t
        a2_rsrq_on |= enter_q
        a2_rsrq_on &= ~reset_q

        # resolve random access started by earlier HO COMMANDs
        active = pending_target >= 0
        pending_timer[active] -= 1
        for u in np.nonzero(active & (pending_timer <= 0))[0]:
            target = pending_target[u]
            if faulty_cell is not None and target == faulty_idx:
                emit(EventId.PL_PROBLEM, u, t, dom_now[u])
                emit(EventId.RLF, u, t, dom_now[u])
                best = best_healthy(rsrp[u])
                emit(EventId.RLF_REESTAB, u, t, dom_now[u], target_idx=best)
                serving[u] = best
                bar_cell[u] = faulty_idx
                bar_until[u] = t + backoff_steps
            else:
                emit(EventId.HO_COMPLETE, u, t, dom_now[u], target_idx=target)
                serving[u] = target
            pending_target[u] = -1
            a3_count[u] = 0

        # A3 evaluation over non-serving, non-barred cells
        candidates = rsrp.copy()
        candidates[ue_range, serving] = -np.inf
        barred = (bar_cell >= 0) & (t < bar_until)
        candidates[ue_range[barred], bar_cell[barred]] = -np.inf
        bar_cell[(bar_cell >= 0) & ~barred] = -1
        best_idx = np.argmax(candidates, axis=1)
        best_val = candidates[ue_range, best_idx]
        condition = (best_val - serving_rsrp > sim.a3_margin_db) & (pending_target < 0)
        a3_count = np.where(condition, a3_count + 1, 0)
        for u in np.nonzero(condition & (a3_count >= ttt_steps))[0]:
            target = int(best_idx[u])
            failing = faulty_cell is not None and target == faulty_idx
            timer = t304_steps if failing else complete_steps
            if t + timer >= sim.duration_steps:
                continue  # would never resolve before the run ends
            emit(EventId.A3_RSRP, u, t, dom_now[u], target_idx=target)
            emit(EventId.HO_COMMAND, u, t, dom_now[u], target_idx=target)
            a3_count[u] = 0
            if timer == 0:
                # random access succeeds within the step
                emit(EventId.HO_COMPLETE, u, t, dom_now[u], target_idx=target)
                serving[u] = target
            else:
                pending_target[u] = target
                pending_timer[u] = timer

    return EventLog.from_rows(rows), np.array(affected, dtype=bool)
