"""MDT event simulator with an injectable random-access failure.

Each UE is one continuous call: it moves on random waypoints, measures
RSRP/RSRQ from the precomputed radio map at its pixel, and emits the
nine MDT-triggering events.  Handovers follow A3 with time-to-trigger;
random access toward the faulty cell always fails (the T304 timer
expires), producing PL PROBLEM / RLF / RLF REESTAB. and a re-attach to
the strongest healthy cell.  A short backoff bars the failed target so
a UE does not retry every TTT interval.

The model is defined step by step: at each step every UE moves, then
(at t = 0 only) attaches to its strongest cell, then runs the A2-RSRP
and A2-RSRQ hysteresis machines, then resolves a pending random access,
then evaluates A3.  Records of one step are emitted in that phase
order, UE by UE within a phase.

The engine does not run it step by step.  The random draws feed only
mobility, and no UE affects another, so it works trajectory first, one
block of steps at a time:

1. Mobility alone runs per step, with the same draws in the same order,
   and the block's pixel indices come from one lookup.
2. Each UE's handover machine then jumps from one state change to the
   next, in rounds over all UEs.  Between changes its serving cell is
   fixed, so the A3 condition over a window of steps is one lookup in a
   table of the condition per (pixel, serving cell), made once per run:
   the best candidate is the strongest cell, or the runner-up where the
   strongest serves.  Barred steps, and the step a random access
   resolved, read the whole RSRP row instead.  The run length of the
   condition, carried across windows, gives the first step that reaches
   time-to-trigger; random access resolves `timer` steps later.
3. With the serving cells known, the A2 machines read the serving RSRP
   once per run of steps with one pixel and one serving cell.  A
   machine's state is the type of its last threshold crossing, and it
   emits where that state changes; RSRQ reports repeat every report
   interval while it is on.
4. Records are gathered as columns and sorted once on (step, phase,
   UE, index within the step).

The step-by-step order leaves four effects that the engine reproduces:

- In the step where random access resolves, A3 compares the best
  candidate against the *old* serving cell's RSRP (read before the
  resolution), while the candidate excludes the *new* serving cell.
- A trigger whose timer would run past the end of the run is skipped
  without resetting the time-to-trigger count, so a later trigger
  toward a cell with a shorter timer can still fire.
- The t = 0 attach runs before A2, so A2 at t = 0 sees the post-attach
  cell.
- A random-access failure and an immediate handover completion can
  both change the serving cell in one step; the later change wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..mdtlog import NO_TARGET, EventId, EventLog
from .dominance import RadioMap
from .layout import NetworkLayout

if TYPE_CHECKING:
    from ..config import SimConfig

# Steps held at once: positions, pixels and the A2 passes are per block.
BLOCK_STEPS = 256
# Steps of the A3 condition one handover round evaluates per UE.
WINDOW_STEPS = 64

# Emission phases within a step, in emission order.
ATTACH, A2_RSRP_ENTER, A2_RSRP_LEAVE, A2_RSRQ, RA_RESOLUTION, A3 = range(6)


@dataclass(frozen=True)
class _Block:
    """Consecutive steps of every UE's trajectory."""

    start: int
    pos: np.ndarray    # (steps, 2, n_ue): x and y
    pixel: np.ndarray  # (n_ue, steps) flat pixel index iy * nx + ix; a UE's steps are contiguous

    @property
    def stop(self) -> int:
        return self.start + self.pixel.shape[1]


def _trajectory(sim: SimConfig, grid, n_ue: int, seed: int):
    """The blocks of every UE's path, drawing a new waypoint at each arrival.

    A UE that arrives takes its waypoint's position; the others move
    `speed` meters toward theirs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0, x1, y0, y1 = grid.extent
    low, high = np.array([x0, y0]), np.array([x1, y1])
    pos = rng.uniform(low, high, size=(n_ue, 2)).T.copy()  # (2, n_ue)
    waypoint = rng.uniform(low, high, size=(n_ue, 2)).T.copy()
    speed = sim.ue_speed_kmh / 3.6 * sim.step_seconds  # meters per step
    for start in range(0, sim.duration_steps, BLOCK_STEPS):
        block = np.empty((min(BLOCK_STEPS, sim.duration_steps - start), 2, n_ue))
        for k in range(len(block)):
            if start + k > 0:
                vec = waypoint - pos
                dist = np.hypot(vec[0], vec[1])
                pos += vec / dist * speed
                arrive = np.flatnonzero(dist <= speed)
                if len(arrive):
                    pos[:, arrive] = waypoint[:, arrive]
                    waypoint[:, arrive] = rng.uniform(low, high, size=(len(arrive), 2)).T
            block[k] = pos
        iy, ix = grid.indices_for(block[:, 0], block[:, 1])
        yield _Block(start, block, np.ascontiguousarray((iy * grid.nx + ix).T))


class _RadioTables:
    """The radio map by flat pixel index, as the machines read it."""

    def __init__(self, radio: RadioMap, a3_margin_db: float):
        self.cell_ids = radio.cell_ids
        self.n_cells = n_cells = len(radio.cell_ids)
        self.rsrp = radio.rsrp_dbm.reshape(n_cells, -1).T.copy()  # (pixels, n_cells)
        self.total = radio.total_dbm.reshape(-1)
        self.dominance = radio.dominance.grid.reshape(-1)
        # Whether the A3 condition holds at each pixel for each serving
        # cell while no cell is barred.  The best candidate is the
        # strongest cell, or the runner-up where the strongest serves:
        # there the difference is the negated runner-up gap, as float
        # subtraction is antisymmetric.
        pixels = np.arange(len(self.rsrp))
        self.top_cell = np.argmax(self.rsrp, axis=1)
        gap = self.rsrp[pixels, self.top_cell][:, None] - self.rsrp
        gap[pixels, self.top_cell] = np.inf
        gap[pixels, self.top_cell] = -gap.min(axis=1)
        self.a3_holds = (gap > a3_margin_db).reshape(-1)

    def rsrp_of(self, pixel, cell):
        return self.rsrp.reshape(-1)[pixel * self.n_cells + cell]

    def strongest(self, pixel, *excluded):
        """Index and RSRP of each pixel's strongest cell not in `excluded` (-1: none), in `np.argmax` order."""
        skip = np.zeros((len(pixel), self.n_cells), dtype=bool)
        for cell in excluded:
            skip |= np.arange(self.n_cells) == np.asarray(cell)[..., None]
        rows = np.where(skip, -np.inf, self.rsrp[pixel])
        best = np.argmax(rows, axis=1)
        return best, rows[np.arange(len(best)), best]


class _Records:
    """Record columns emitted in any order, sorted into emission order at the end."""

    def __init__(self, tables: _RadioTables):
        self.tables = tables
        empty = np.zeros(0, dtype=np.int64)
        self.parts = [(empty,) * 7 + (np.zeros(0),) * 2 + (empty,)]

    def emit(self, block: _Block, phase: int, ue, k, serving, *events) -> None:
        """Records of each ue at its block step k, serving cell index `serving`.

        Each of `events` is an (EventId, target cell index or None) pair;
        a UE's records of one phase follow in that order.
        """
        n = len(ue)
        if not n:
            return
        cell_ids = self.tables.cell_ids
        x, y = block.pos[k, 0, ue], block.pos[k, 1, ue]
        dom = self.tables.dominance[block.pixel[ue, k]]
        for sub, (event, target) in enumerate(events):
            target_id = np.full(n, NO_TARGET, dtype=np.int64) if target is None else cell_ids[target]
            self.parts.append((
                block.start + k, np.full(n, phase), ue, np.full(n, sub), np.full(n, int(event)),
                cell_ids[serving], target_id, x, y, dom,
            ))

    def log(self) -> tuple[EventLog, np.ndarray]:
        """The log in emission order and each record's dominance cell id."""
        t, phase, ue, sub, event, serving, target, x, y, dom = (
            np.concatenate(column) for column in zip(*self.parts)
        )
        order = np.lexsort((sub, ue, phase, t))
        log = EventLog(event=event, ue=ue, t=t, x=x, y=y, serving=serving, target=target)
        return log.take(order), dom[order]


_FAILURE = ((EventId.PL_PROBLEM, None), (EventId.RLF, None))


class _Handover:
    """Each UE's serving cell through A3 time-to-trigger and random access.

    A UE's machine jumps from one state change to the next.  `at` is the
    next step it evaluates.  With no `pending` target, A3 runs there
    with `count` steps of its condition already held, comparing against
    the RSRP of `compare`: the old serving cell in the step a random
    access resolved, else the serving cell.  With one, that random
    access resolves there.
    """

    def __init__(self, sim: SimConfig, tables: _RadioTables, records: _Records, n_ue: int, faulty_idx: int):
        self.tables, self.records, self.faulty_idx = tables, records, faulty_idx
        self.margin = sim.a3_margin_db
        self.duration = sim.duration_steps
        self.ttt_steps = sim.steps(sim.ttt_ms, round_up=True)
        self.t304_steps = sim.steps(sim.t304_ms)
        self.complete_steps = 0 if sim.ho_complete_ms <= 0 else sim.steps(sim.ho_complete_ms)
        self.backoff_steps = sim.steps(sim.ho_backoff_ms)
        self.serving = np.zeros(n_ue, dtype=np.int64)
        self.compare = np.zeros(n_ue, dtype=np.int64)
        self.at = np.zeros(n_ue, dtype=np.int64)
        self.count = np.zeros(n_ue, dtype=np.int64)
        self.pending = np.full(n_ue, -1, dtype=np.int64)
        self.bar_until = np.zeros(n_ue, dtype=np.int64)  # the faulty cell is barred before this step
        self.changes: list[tuple] = []

    def attach(self, block: _Block) -> None:
        """Step 0: each UE attaches to its strongest cell; toward the faulty cell that fails."""
        serving = self.serving
        serving[:] = self.tables.top_cell[block.pixel[:, 0]]
        ue = np.flatnonzero(serving == self.faulty_idx)
        new = self.tables.strongest(block.pixel[ue, 0], self.faulty_idx)[0]
        k = np.zeros(len(ue), dtype=np.int64)
        self.records.emit(block, ATTACH, ue, k, serving[ue], *_FAILURE, (EventId.RLF_REESTAB, new))
        serving[ue] = new
        self.bar_until[ue] = self.backoff_steps
        self.compare[:] = serving

    def advance(self, block: _Block):
        """Run every UE through the block; the (step, ue, cell) of each serving-cell change, in order.

        A change takes effect at its step: A2 reads the old cell before it.
        """
        self.changes = []
        # each UE's pixels from each step of the block on, one window long
        ahead = np.lib.stride_tricks.sliding_window_view(
            np.pad(block.pixel, ((0, 0), (0, WINDOW_STEPS - 1)), mode="edge"), WINDOW_STEPS, axis=1
        )
        while True:
            due = self.at < block.stop
            self._resolve(block, np.flatnonzero(due & (self.pending >= 0)))
            ue = np.flatnonzero(due & (self.pending < 0))
            if not len(ue):
                break
            self._evaluate(block, ahead, ue)
        if not self.changes:
            return (np.zeros(0, dtype=np.int64),) * 3
        return tuple(np.concatenate(column) for column in zip(*self.changes))

    def _resolve(self, block: _Block, ue) -> None:
        """Random access of each ue resolves at its step `at`."""
        tables, serving, at = self.tables, self.serving, self.at
        k = at[ue] - block.start
        target = self.pending[ue]
        new = target.copy()
        f = np.flatnonzero(target == self.faulty_idx)
        new[f] = tables.strongest(block.pixel[ue[f], k[f]], self.faulty_idx)[0]
        self.records.emit(block, RA_RESOLUTION, ue[f], k[f], serving[ue[f]], *_FAILURE, (EventId.RLF_REESTAB, new[f]))
        s = np.flatnonzero(target != self.faulty_idx)
        self.records.emit(block, RA_RESOLUTION, ue[s], k[s], serving[ue[s]], (EventId.HO_COMPLETE, target[s]))
        self.bar_until[ue[f]] = at[ue[f]] + self.backoff_steps
        self.changes.append((at[ue] + 1, ue, new))
        self.compare[ue] = serving[ue]
        serving[ue] = new
        self.pending[ue] = -1
        self.count[ue] = 0

    def _evaluate(self, block: _Block, ahead, ue) -> None:
        """A3 over the next window of steps of each ue; fire the first trigger."""
        tables, serving, at, count = self.tables, self.serving, self.at, self.count
        window = np.arange(WINDOW_STEPS)
        steps = at[ue, None] + window
        inside = steps < block.stop
        pixel = ahead[ue, at[ue] - block.start]
        condition = tables.a3_holds[pixel * tables.n_cells + serving[ue, None]] & inside
        # Steps the table does not cover: barred ones, and the step a
        # random access resolved, which compares against the old cell.
        barred = steps < self.bar_until[ue, None]
        odd = barred.copy()
        odd[:, 0] |= self.compare[ue] != serving[ue]
        r, j = np.nonzero(odd & inside)
        if len(r):
            u = ue[r]
            best = tables.strongest(pixel[r, j], serving[u], np.where(barred[r, j], self.faulty_idx, -1))[1]
            against = np.where(j == 0, self.compare[u], serving[u])
            condition[r, j] = best - tables.rsrp_of(pixel[r, j], against) > self.margin
        # The condition has held since its last failure, or since a
        # virtual one `count` steps before the window.
        last_false = np.maximum.accumulate(np.where(condition, -1 - count[ue, None], window), axis=1)
        fire = last_false <= window - self.ttt_steps
        while True:
            rows = np.flatnonzero(fire.any(axis=1))
            w = np.argmax(fire[rows], axis=1)
            u = ue[rows]
            excluded = np.where(at[u] + w < self.bar_until[u], self.faulty_idx, -1)
            target = tables.strongest(pixel[rows, w], serving[u], excluded)[0]
            timer = np.where(target == self.faulty_idx, self.t304_steps, self.complete_steps)
            late = at[u] + w + timer >= self.duration  # would never resolve before the run ends
            if not late.any():
                break
            fire[rows[late], w[late]] = False  # skipped; the count runs on

        quiet = np.ones(len(ue), dtype=bool)
        quiet[rows] = False
        q = ue[quiet]
        used = np.minimum(WINDOW_STEPS, block.stop - at[q])
        count[q] = used - 1 - last_false[quiet, used - 1]
        at[q] += used
        self.compare[q] = serving[q]

        k = at[u] + w - block.start
        now = timer == 0  # random access succeeds within the step
        for sel, completion in ((~now, ()), (now, ((EventId.HO_COMPLETE, target[now]),))):
            self.records.emit(
                block, A3, u[sel], k[sel], serving[u[sel]],
                (EventId.A3_RSRP, target[sel]), (EventId.HO_COMMAND, target[sel]), *completion,
            )
        count[u] = 0
        at[u] += w + np.maximum(timer, 1)
        self.pending[u[~now]] = target[~now]
        self.changes.append((at[u[now]], u[now], target[now]))
        serving[u[now]] = target[now]
        self.compare[u[now]] = target[now]


def _switches(ue, on, off, state):
    """Where hysteresis machines switch, read at the runs of one block.

    A UE's machine switches on where `on` and off where `off` (never
    both); `ue` orders the runs by UE, then step.  `state` holds each
    machine before the block and is updated to its state after it.
    Returns the indices of the runs where a machine switches, and the
    state each switches to.
    """
    signal = np.flatnonzero(on | off)
    who, new = ue[signal], on[signal]
    first = np.ones(len(who), dtype=bool)
    first[1:] = who[1:] != who[:-1]
    before = np.empty_like(new)
    before[1:] = new[:-1]
    before[first] = state[who[first]]
    last = np.roll(first, -1)  # a UE's last signal precedes the next UE's first
    state[who[last]] = new[last]
    switch = new != before
    return signal[switch], new[switch]


class _A2:
    """The A2-RSRP and A2-RSRQ machines of each UE, given its serving cells.

    A2 RSRQ has an enter event only; the leave crossing resets silently.
    While its condition holds the report repeats every report interval.
    """

    def __init__(self, sim: SimConfig, tables: _RadioTables, records: _Records, n_ue: int):
        self.tables, self.records = tables, records
        self.rsrq_load_db = sim.rsrq_load_db
        self.rsrp_enter = sim.a2_rsrp_threshold_dbm - sim.a2_rsrp_hysteresis_db
        self.rsrp_leave = sim.a2_rsrp_threshold_dbm + sim.a2_rsrp_hysteresis_db
        self.rsrq_enter = sim.a2_rsrq_threshold_db - sim.a2_rsrq_hysteresis_db
        self.rsrq_reset = sim.a2_rsrq_threshold_db + sim.a2_rsrq_hysteresis_db
        self.report_steps = sim.steps(sim.a2_report_interval_ms) if sim.a2_report_interval_ms > 0 else 0
        self.rsrp_on = np.zeros(n_ue, dtype=bool)
        self.rsrq_on = np.zeros(n_ue, dtype=bool)
        self.rsrq_since = np.zeros(n_ue, dtype=np.int64)  # step the RSRQ condition last came on

    def advance(self, block: _Block, serving, changes) -> None:
        """Run the block, from each UE's serving cell at its start and the handover's changes."""
        tables, records = self.tables, self.records
        n_ue, n_steps = block.pixel.shape
        # Serving-cell change points by flat index ue * n_steps + k: each
        # UE's cell at the block start, then its changes in order.
        step, ue, cell = changes
        inside = step < block.stop
        point = np.concatenate((np.arange(n_ue) * n_steps, ue[inside] * n_steps + step[inside] - block.start))
        order = np.argsort(point, kind="stable")
        point = point[order]
        point_cell = np.concatenate((serving, cell[inside]))[order]

        def serving_at(flat):
            # of two changes at one step, the later wins
            return point_cell[np.searchsorted(point, flat, side="right") - 1]

        # Read the serving RSRP once per run of steps with one pixel and one serving cell.
        run = np.ones(block.pixel.shape, dtype=bool)
        run[:, 1:] = block.pixel[:, 1:] != block.pixel[:, :-1]
        run.reshape(-1)[point] = True
        flat = np.flatnonzero(run)
        ue, k = np.divmod(flat, n_steps)
        cell = serving_at(flat)
        pixel = block.pixel.reshape(-1)[flat]
        rsrp = tables.rsrp_of(pixel, cell)
        rsrq = rsrp - tables.total[pixel] - self.rsrq_load_db

        i, new = _switches(ue, rsrp < self.rsrp_enter, rsrp > self.rsrp_leave, self.rsrp_on)
        for phase, event, at in (
            (A2_RSRP_ENTER, EventId.A2_RSRP_ENTER, i[new]),
            (A2_RSRP_LEAVE, EventId.A2_RSRP_LEAVE, i[~new]),
        ):
            records.emit(block, phase, ue[at], k[at], cell[at], (event, None))

        on_before = self.rsrq_on.copy()
        i, new = _switches(ue, rsrq < self.rsrq_enter, rsrq > self.rsrq_reset, self.rsrq_on)
        if self.report_steps:
            flip = np.zeros(block.pixel.shape, dtype=np.int8)
            flip[ue[i], k[i]] = np.where(new, 1, -1)
            on = on_before[:, None] + np.cumsum(flip, axis=1) > 0
            steps = np.arange(block.start, block.stop)
            since = np.maximum.accumulate(np.where(flip > 0, steps, -1), axis=1)
            since = np.where(since >= 0, since, self.rsrq_since[:, None])
            self.rsrq_since = since[:, -1]
            report_ue, report_k = np.nonzero(on & ((steps - since) % self.report_steps == 0))
            report_cell = serving_at(report_ue * n_steps + report_k)
        else:
            at = i[new]
            report_ue, report_k, report_cell = ue[at], k[at], cell[at]
        records.emit(block, A2_RSRQ, report_ue, report_k, report_cell, (EventId.A2_RSRQ_ENTER, None))


def simulate(
    layout: NetworkLayout, sim: SimConfig, radio: RadioMap, seed: int, faulty_cell: int | None = None
) -> tuple[EventLog, np.ndarray]:
    """Run one dataset; deterministic for a fixed mobility seed.

    Random access toward `faulty_cell` fails; None injects no fault.
    Returns the log in emission order and each record's fault-affected flag.
    """
    n_ue = sim.ues_per_cell * len(radio.cell_ids)
    faulty_idx = -1 if faulty_cell is None else layout.index_of(faulty_cell)
    tables = _RadioTables(radio, sim.a3_margin_db)
    records = _Records(tables)
    handover = _Handover(sim, tables, records, n_ue, faulty_idx)
    a2 = _A2(sim, tables, records, n_ue)
    for block in _trajectory(sim, radio.grid_spec, n_ue, seed):
        if block.start == 0:
            handover.attach(block)  # before A2, which sees the post-attach cell
        serving = handover.serving.copy()
        a2.advance(block, serving, handover.advance(block))
    log, dom = records.log()
    if faulty_cell is None:
        return log, np.zeros(len(log), dtype=bool)
    return log, (log.target == faulty_cell) | (dom == faulty_cell)
