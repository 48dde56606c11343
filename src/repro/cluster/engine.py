"""Scheduling disciplines beyond FCFS, on the same columnar pipeline.

Every discipline runs through :func:`repro.cluster.simulator._simulate`:
one FCFS intake (``(submit_h, job_id)`` order, the oversize check), the
exact occupancy helpers, the vectorized busy-hours pass and the shared
accounting tail.  Only the placer differs:

* ``backfill`` implements EASY backfill — strict FCFS start order is
  relaxed so queued jobs may jump ahead when doing so cannot delay the
  head-of-queue job's resource reservation.
* ``carbon-aware`` keeps FCFS admission order but delays each job
  within its ``slack_h`` budget toward the lowest forward-window-mean
  intensity start (the paper's "operate on carbon" discipline).
* ``power-cap`` holds the cluster's instantaneous GPU draw — hence its
  per-hour busy profile — under a configurable fraction of capacity (a
  demand-response contract).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ceil, inf
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accounting.pue import PUELike
from repro.core.config import ModelConfig
from repro.core.errors import SimulationError
from repro.cluster.job import Job, JobBatch
from repro.cluster.simulator import (
    Cluster,
    SimulationResult,
    _admits_at,
    _earliest_start,
    _node_profile,
    _prune,
    _simulate,
    _walk_earliest,
)
from repro.intensity.trace import IntensityTrace

__all__ = [
    "simulate_cluster_backfill",
    "simulate_cluster_carbon_aware",
    "simulate_cluster_power_cap",
]


# --- EASY backfill on columns ------------------------------------------------
def _place_backfill(
    batch: JobBatch, n_nodes: int, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """EASY-backfill placement: FCFS with reservation-safe jump-ahead.

    Discrete-event queue simulation over the batch columns.  At every
    event time (an arrival or a completion):

    1. queued jobs start in FCFS order while the head of the queue fits
       on some node *now* (first fitting node in index order);
    2. when the head cannot start, it gets a **reservation** — the
       earliest time a node can seat it given only the currently
       *running* jobs (earliest such time, lowest node index on ties);
    3. the remaining queue is scanned in FCFS order and a job may
       **backfill** (start immediately on the first node with enough
       free GPUs) iff doing so cannot delay the reservation: it ends by
       the reserved time, runs on a different node, or leaves the
       reserved node with enough free GPUs at the reserved time.

    Jobs start only at event times, so instantaneous free-GPU counts
    are exact (no committed future starts exist).  Deterministic by
    construction: FCFS queue order, index-order node scans, and
    time-then-index reservation tie-breaks.
    """
    n = len(batch)
    submits = batch.submit_h.tolist()
    durations = batch.duration_h.tolist()
    gpus_list = batch.n_gpus.tolist()

    free = [capacity] * n_nodes
    running: List[Tuple[float, int, int]] = []  # (end, node, gpus)
    node_running: List[List[Tuple[float, int]]] = [
        [] for _ in range(n_nodes)
    ]  # (end, gpus) per node, pruned lazily
    queue: List[int] = []  # job positions (FCFS order)
    nodes_out = [0] * n
    starts_out = [0.0] * n
    node_range = range(n_nodes)
    arrival = 0  # next unqueued job position

    def _start_job(pos: int, nd: int, now: float) -> None:
        g = gpus_list[pos]
        end = now + durations[pos]
        free[nd] -= g
        heappush(running, (end, nd, g))
        node_running[nd].append((end, g))
        nodes_out[pos] = nd
        starts_out[pos] = now

    def _first_fit(g: int) -> int:
        for nd in node_range:
            if free[nd] >= g:
                return nd
        return -1

    def _reservation(now: float, g: int) -> Tuple[float, int]:
        """Earliest (time, node) seating ``g`` GPUs, running jobs only."""
        best_t = None
        best_nd = -1
        for nd in node_range:
            live = [iv for iv in node_running[nd] if iv[0] > now]
            node_running[nd] = live
            avail = free[nd]
            if avail >= g:  # pragma: no cover - head would have started
                return now, nd
            t_nd = None
            for end, gg in sorted(live):
                avail += gg
                if avail >= g:
                    t_nd = end
                    break
            if t_nd is not None and (best_t is None or t_nd < best_t):
                best_t, best_nd = t_nd, nd
        assert best_t is not None  # running jobs always release the cap
        return best_t, best_nd

    def _free_at(nd: int, when: float) -> int:
        """Free GPUs on ``nd`` at ``when`` given currently running jobs."""
        return capacity - sum(
            gg for end, gg in node_running[nd] if end > when
        )

    while queue or arrival < n or running:
        # Next event: the earlier of the next arrival and completion.
        if not queue:
            if arrival < n:
                now = submits[arrival]
                if running and running[0][0] < now:
                    now = running[0][0]
            elif running:
                now = running[0][0]
            else:
                break
        else:
            # Queue is non-empty: progress needs a completion, but an
            # arrival may come first and join the queue.
            now = running[0][0]
            if arrival < n and submits[arrival] < now:
                now = submits[arrival]
        while running and running[0][0] <= now:
            _, nd, gg = heappop(running)
            free[nd] += gg
        while arrival < n and submits[arrival] <= now:
            queue.append(arrival)
            arrival += 1
        # Scheduling pass: drain the head while it fits.
        while queue:
            head_g = gpus_list[queue[0]]
            nd = _first_fit(head_g)
            if nd < 0:
                break
            _start_job(queue.pop(0), nd, now)
        if queue:
            res_t, res_nd = _reservation(now, gpus_list[queue[0]])
            remaining: List[int] = [queue[0]]
            for pos in queue[1:]:
                g = gpus_list[pos]
                nd = _first_fit(g)
                if nd < 0:
                    remaining.append(pos)
                    continue
                end = now + durations[pos]
                safe = (
                    end <= res_t
                    or nd != res_nd
                    or _free_at(res_nd, res_t) - g >= gpus_list[queue[0]]
                )
                if safe:
                    _start_job(pos, nd, now)
                else:
                    remaining.append(pos)
            queue = remaining

    return np.asarray(nodes_out, dtype=np.int64), np.asarray(starts_out)


# --- carbon-aware admission on columns ---------------------------------------
def _place_carbon_aware(
    batch: JobBatch,
    n_nodes: int,
    capacity: int,
    *,
    score_table,
    slack_override: Optional[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Carbon-aware admission: FCFS order, slack-bounded greener starts.

    Jobs are processed in FCFS ``(submit_h, job_id)`` order.  Each job's
    candidate starts are its submit time plus every whole hour up to
    ``submit + slack`` (``slack_override`` when set, else the job's own
    ``slack_h`` column), ranked by the per-start-hour forward-window
    mean from ``score_table(window, limit)`` (``window =
    ceil(duration)``) with earlier starts breaking score ties.

    Candidate admission is hour-granular and conservative: every
    commitment charges its GPUs to each whole hour it touches, and a
    ``g``-GPU candidate admits on the lowest-indexed node that keeps
    ``g`` GPUs free in every hour of ``[floor(t), ceil(t +
    duration))`` under that accounting.  Per-hour node bitmasks
    ``levels[c][h]`` (bit ``nd`` set when node ``nd``'s hourly charge
    is at least ``c``) make the test one OR across the window plus the
    complement's lowest set bit — no interval arithmetic on the
    delayed path.  Ceil-to-hour charging never under-counts, so
    admitted placements can never overcommit a node; the price is that
    boundary-fraction fits only exact interval math would accept defer
    to the next candidate.  Jobs whose every candidate fails (and jobs
    with no delayed candidate, or no hourly signal — ``score_table``
    returning ``None``) take the exact FCFS earliest-fit start
    instead, so every job is always scheduled and the slack-budget
    guarantee survives: whenever any in-budget start is feasible,
    earliest-fit returns one at least as early.
    """
    n = len(batch)
    submits = batch.submit_h.tolist()
    durations = batch.duration_h.tolist()
    gpus_list = batch.n_gpus.tolist()
    if slack_override is not None:
        slk_np = np.full(n, float(slack_override))
        score_limit = max(submits) + float(slack_override)
    else:
        slk_np = np.asarray(batch.slack_h, dtype=float)
        score_limit = float(
            np.max(batch.submit_h + np.clip(batch.slack_h, 0.0, None))
        )
    if not np.isfinite(score_limit):
        score_limit = float("inf")

    # Candidate try-order pre-pass.  Each job's candidates are its
    # submit time (column 0) plus every whole hour up to the slack
    # deadline, capped at one trace cycle (scores repeat modulo the
    # trace length, so delaying further can never find a strictly
    # better score); the try order sorts them by (score, t).  Jobs
    # grouped by scoring window share a table, so per-job score rows
    # and best-candidate columns come from one gather + argmin per
    # window (ties resolve to the first = earliest column, identical
    # to a tuple sort); the rest of a row's ordering is materialized
    # lazily only when the best candidate fails.  Columns past a job's
    # deadline score +inf and sort last; only the first ``cand_counts``
    # entries are ever tried.
    sub_np = np.asarray(batch.submit_h, dtype=float)
    dur_np = np.asarray(batch.duration_h, dtype=float)
    win_np = np.ceil(dur_np).astype(np.int64)
    np.maximum(win_np, 1, out=win_np)
    wins = win_np.tolist()
    mats: List[np.ndarray] = []  # score-matrix chunks, scoring order
    step = 1
    cand_pos = [0] * n  # flat row index into the chunks
    cand_counts = [0] * n
    cand_bases = [0] * n
    cand_ft = [0.0] * n  # best candidate's start / window, precomputed
    cand_fh0 = [0] * n
    cand_fhc = [0] * n
    scoring = np.flatnonzero(slk_np >= 0.0)
    probe = (
        score_table(int(win_np[scoring[0]]), score_limit)
        if scoring.size
        else None
    )
    if probe is not None:
        hi = len(probe)  # truncated table length, shared across windows
        ceil_s = np.ceil(sub_np)
        # The submit time is its own candidate; whole hours start at
        # the next hour boundary (skipping an integral submit itself).
        base_np = ceil_s.astype(np.int64) + (ceil_s == sub_np)
        dl_np = sub_np + np.minimum(slk_np, float(hi))
        k_np = np.floor(dl_np).astype(np.int64) - base_np + 1
        np.maximum(k_np, 0, out=k_np)
        # Jobs with no delayed candidate take the FCFS fallback whole —
        # bit-identical to fcfs, node tie-break included.
        scoring = scoring[k_np[scoring] >= 1]
        s_idx = sub_np.astype(np.int64)
    if probe is not None and scoring.size:
        # One stacked (window, hour) table — every window's table is
        # truncated to the same scoring horizon — turns the whole
        # pre-pass into a few fancy-indexed gathers; grouping by window
        # instead costs a dozen numpy dispatches per distinct window,
        # and long-tail duration mixes touch dozens of them.
        uw = np.unique(win_np[scoring])
        stacked = np.empty((uw.size, hi))
        for wi, w in enumerate(uw.tolist()):
            stacked[wi] = score_table(int(w), score_limit)
        wmap = np.zeros(int(uw[-1]) + 1, dtype=np.int64)
        wmap[uw] = np.arange(uw.size)
        # Rows sorted by candidate count, then fixed-row-count chunks,
        # each as wide as its own widest row: the matrices stay dense
        # (a rectangle over the global max would be ~20x the work for a
        # long-tailed slack mix) and a candidate's chunk and offset are
        # recoverable from its sorted position alone.
        K_max = int(k_np[scoring].max()) + 1
        srt = scoring[np.argsort(k_np[scoring])]
        step = max(1, min(256, 2_000_000 // K_max))
        firsts_np = np.zeros(n, dtype=np.int64)
        for c0 in range(0, srt.size, step):
            rr = srt[c0:c0 + step]
            kk = k_np[rr]
            Kc = int(kk[-1]) + 1
            cols = np.arange(1, Kc)
            wr = wmap[win_np[rr]]
            mat = np.empty((rr.size, Kc))
            mat[:, 0] = stacked[wr, s_idx[rr]]
            hrs = base_np[rr, None] + cols[None, :] - 1
            np.clip(hrs, 0, hi - 1, out=hrs)
            mat[:, 1:] = stacked[wr[:, None], hrs]
            mat[:, 1:][cols[None, :] > kk[:, None]] = np.inf
            firsts_np[rr] = np.argmin(mat, axis=1)
            mats.append(mat)
        # Scatter the per-job candidate metadata in bulk; rows outside
        # ``scoring`` keep count 0 and never touch the candidate path.
        cnt_np = np.zeros(n, dtype=np.int64)
        cnt_np[scoring] = k_np[scoring] + 1
        pos_np = np.zeros(n, dtype=np.int64)
        pos_np[srt] = np.arange(srt.size)
        # The best candidate's start and hour window, resolved here so
        # the placement loop's dominant path (first try admits) is a
        # straight line: column 0 is the submit time with window
        # ``[int(s), ceil(s + d))``; delayed columns start on whole
        # hours with window ``[t, t + ceil(d))``.
        col0 = firsts_np == 0
        delayed_t = base_np + firsts_np - 1
        ft_np = np.where(col0, sub_np, delayed_t)
        fh0_np = np.where(col0, s_idx, delayed_t)
        fhc_np = np.where(
            col0, np.ceil(sub_np + dur_np).astype(np.int64),
            delayed_t + win_np,
        )
        cand_pos = pos_np.tolist()
        cand_counts = cnt_np.tolist()
        cand_bases = base_np.tolist()
        cand_ft = ft_np.tolist()
        cand_fh0 = fh0_np.tolist()
        cand_fhc = fhc_np.tolist()

    node_jobs: List[List[Tuple[float, float, int]]] = [
        [] for _ in range(n_nodes)
    ]
    # Hour-granular conservative occupancy as per-hour node bitmasks:
    # bit ``nd`` of ``levels[c][h]`` says the commitments touching hour
    # ``h`` on node ``nd`` charge at least ``c`` GPUs to it (every
    # commitment charges its full GPUs to each whole hour it touches —
    # an upper bound on true occupancy anywhere in the hour).  Bits
    # saturate at ``c == capacity``; admission thresholds never exceed
    # it, so deeper charges carry no extra information.  A ``g``-GPU
    # candidate is blocked exactly on the nodes of ``levels[capacity -
    # g + 1]``, so one OR across the window classifies every node at
    # once and the complement's lowest set bit is the winning node.
    # Charges are monotone (commitments are never retracted), so commit
    # probes each touched hour's current level and sets the newly
    # crossed bits.
    levels: List[List[int]] = [[] for _ in range(capacity + 1)]
    level1 = levels[1]
    # Memoized fallback profiles (see _node_profile); a commit to a
    # node is the only thing that can change its earliest-fit answer.
    node_prof: List[Optional[tuple]] = [None] * n_nodes
    all_mask = (1 << n_nodes) - 1
    cap1 = capacity + 1
    occ_len = 0
    nodes_out = [0] * n
    starts_out = [0.0] * n
    node_range = range(n_nodes)

    for i, (s, d, g, pos, cnt, b, w_i, ft, fh0, fhc) in enumerate(
        zip(
            submits, durations, gpus_list, cand_pos, cand_counts,
            cand_bases, wins, cand_ft, cand_fh0, cand_fhc,
        )
    ):
        if cnt:
            # Most jobs place at their best-scored candidate — one OR
            # over its precomputed hour window and out.
            blocked = levels[cap1 - g]
            hcap = fhc if fhc <= occ_len else occ_len
            bm = 0
            for v in blocked[fh0:hcap]:
                bm |= v
            avail = ~bm & all_mask
            if avail:
                start = ft
                placed = (avail & -avail).bit_length() - 1
                h_lo = fh0
                touch_hi = fhc
            else:
                # The full (score, t) ordering is only materialized
                # when the best candidate fails; its head repeats the
                # argmin column (stable sort), so resume past it.
                start = None
                scores = mats[pos // step][pos % step].tolist()
                order_cols = sorted(
                    range(len(scores)), key=scores.__getitem__
                )
                for ci in range(1, cnt):
                    col = order_cols[ci]
                    if col == 0:
                        t = s
                        h0 = int(s)
                        tch = ceil(s + d)
                    else:
                        # Whole-hour start: the window is hour-aligned,
                        # so its hour span is just the scoring window.
                        t = b + col - 1
                        h0 = t
                        tch = t + w_i
                    hcap = tch if tch <= occ_len else occ_len
                    bm = 0
                    for v in blocked[h0:hcap]:
                        bm |= v
                    avail = ~bm & all_mask
                    if avail:
                        placed = (avail & -avail).bit_length() - 1
                        start = t
                        h_lo = h0
                        touch_hi = tch
                        break
        else:
            start = None
        if start is None:
            # Slack exhausted, no delayed candidate, or no hourly
            # signal: exact FCFS earliest-fit.
            best = inf
            if cnt:
                # Every in-budget candidate was blocked; scanning on
                # past the deadline for the first conservatively clear
                # whole-hour window yields a certainly feasible start.
                # Seeding ``best`` with it lets every node walk abort
                # early, and the true earliest fit — which is never
                # later — still wins any strict comparison, so the
                # committed start is exact either way.
                h = b + cnt - 1
                avail = 0
                while h < occ_len:
                    hc = h + w_i
                    if hc > occ_len:
                        hc = occ_len
                    bm = 0
                    for v in blocked[h:hc]:
                        bm |= v
                    avail = ~bm & all_mask
                    if avail:
                        break
                    h += 1
                if avail:
                    low = avail & -avail
                    placed = low.bit_length() - 1
                else:
                    placed = 0  # past every tracked hour: all clear
                best = float(h)
            free_cap = capacity - g
            for nd in node_range:
                prof = node_prof[nd]
                if prof is None:
                    jobs_nd = node_jobs[nd]
                    _prune(jobs_nd, s)
                    prof = _node_profile(jobs_nd)
                    node_prof[nd] = prof
                cand = _walk_earliest(
                    prof[0], prof[1], s, d, free_cap, best
                )
                if cand < best:
                    best, placed = cand, nd
                    if best <= s:
                        break
            start = best
            h_lo = int(best)
            touch_hi = ceil(best + d)
        end = start + d
        node_jobs[placed].append((start, end, g))
        node_prof[placed] = None
        if touch_hi > occ_len:
            grown = touch_hi + 64
            pad = grown - occ_len
            for lvl in levels:
                lvl.extend([0] * pad)
            occ_len = grown
        bit = 1 << placed
        if g == 1:
            # Single level crossing per hour, usually the first (a
            # fresh hour) — the majority of jobs.
            for hh in range(h_lo, touch_hi):
                if level1[hh] & bit:
                    c = 2
                    while c < cap1 and levels[c][hh] & bit:
                        c += 1
                    if c < cap1:
                        levels[c][hh] |= bit
                else:
                    level1[hh] |= bit
        else:
            for hh in range(h_lo, touch_hi):
                c = 1
                while c < cap1 and levels[c][hh] & bit:
                    c += 1
                stop = c + g
                if stop > cap1:
                    stop = cap1
                while c < stop:
                    levels[c][hh] |= bit
                    c += 1
        nodes_out[i] = placed
        starts_out[i] = start

    # Delayed candidates carry integer start hours; force float so the
    # output dtype never depends on the placement mix.
    return (
        np.asarray(nodes_out, dtype=np.int64),
        np.asarray(starts_out, dtype=float),
    )


# --- power-capped placement on columns ---------------------------------------
def _place_power_cap(
    batch: JobBatch,
    n_nodes: int,
    capacity: int,
    *,
    cap_gpus: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """FCFS earliest-fit under a cluster-wide instantaneous GPU cap.

    Identical to FCFS earliest-fit (the ``fcfs`` placer) except that, on
    top of per-node capacity, the *cluster's* concurrently-busy GPU count
    may never exceed ``cap_gpus``.  The cap is enforced as one extra
    commitment timeline spanning all nodes (checked with the same exact
    occupancy primitives), so overflow demand slides to the next
    instant — hence the next hour bin — with headroom under the cap.
    Bounding instantaneous draw bounds the integral: every hour's busy
    GPU-hours is at most ``cap_gpus``, the demand-response contract.
    """
    n = len(batch)
    over_cap = batch.n_gpus > cap_gpus
    if over_cap.any():
        bad = int(np.argmax(over_cap))
        raise SimulationError(
            f"job {int(batch.job_ids[bad])} requests "
            f"{int(batch.n_gpus[bad])} GPUs; the power cap admits {cap_gpus}"
        )
    submits = batch.submit_h.tolist()
    durations = batch.duration_h.tolist()
    gpus_list = batch.n_gpus.tolist()

    free = [capacity] * n_nodes
    global_free = cap_gpus
    global_future = 0
    global_jobs: List[Tuple[float, float, int]] = []
    running: List[Tuple[float, int, int]] = []  # (end, node, gpus)
    pending: List[Tuple[float, float, int, int]] = []  # (start, end, node, gpus)
    node_future = [0] * n_nodes
    node_jobs: List[List[Tuple[float, float, int]]] = [
        [] for _ in range(n_nodes)
    ]
    nodes_out = [0] * n
    starts_out = [0.0] * n
    node_range = range(n_nodes)

    for i in range(n):
        s = submits[i]
        d = durations[i]
        g = gpus_list[i]
        while pending and pending[0][0] <= s:
            _, e, nd, gg = heappop(pending)
            node_future[nd] -= 1
            global_future -= 1
            free[nd] -= gg
            global_free -= gg
            heappush(running, (e, nd, gg))
        while running and running[0][0] <= s:
            _, nd, gg = heappop(running)
            free[nd] += gg
            global_free += gg
        start = None
        placed = -1
        # Does the cap admit the window at the submit time?
        if not global_future and global_free >= g:
            cap_ok = True
        else:
            _prune(global_jobs, s)
            cap_ok = _admits_at(global_jobs, s, s + d, g, cap_gpus)
        if cap_ok:
            for nd in node_range:
                if node_future[nd]:
                    jobs_nd = node_jobs[nd]
                    _prune(jobs_nd, s)
                    if _admits_at(jobs_nd, s, s + d, g, capacity):
                        placed = nd
                        break
                elif free[nd] >= g:
                    placed = nd
                    break
            if placed >= 0:
                start = s
        if start is None:
            # Joint earliest feasible start: alternate between the cap
            # timeline and the per-node timelines until they agree.
            # Each round either commits or advances strictly past an
            # occupancy breakpoint, so the loop terminates.
            _prune(global_jobs, s)
            for nd in node_range:
                _prune(node_jobs[nd], s)
            t = s
            while True:
                t_cap = _earliest_start(global_jobs, t, d, g, cap_gpus)
                best = None
                for nd in node_range:
                    cand = _earliest_start(
                        node_jobs[nd], t_cap, d, g, capacity
                    )
                    if best is None or cand < best:
                        best, placed = cand, nd
                if best == t_cap or _admits_at(
                    global_jobs, best, best + d, g, cap_gpus
                ):
                    start = best
                    break
                t = best
        end = start + d
        if start > s:
            node_future[placed] += 1
            global_future += 1
            heappush(pending, (start, end, placed, g))
        else:
            free[placed] -= g
            global_free -= g
            heappush(running, (end, placed, g))
        node_jobs[placed].append((start, end, g))
        global_jobs.append((start, end, g))
        nodes_out[i] = placed
        starts_out[i] = start

    return np.asarray(nodes_out, dtype=np.int64), np.asarray(starts_out)


# --- entry points -------------------------------------------------------------
def simulate_cluster_backfill(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
) -> SimulationResult:
    """EASY backfill on ``JobBatch`` columns (``backfill``).

    Relaxes strict FCFS start order: queued jobs may start ahead of the
    head of the queue when doing so cannot delay the head's resource
    reservation (see :func:`_place_backfill` for the exact rules).
    Under contention this trades head-of-line blocking for utilization —
    mean waits drop while FCFS fairness is preserved for the head job.
    """
    return _simulate(
        jobs, cluster, _place_backfill,
        horizon_h=horizon_h, intensity=intensity, pue=pue, config=config,
    )


def simulate_cluster_carbon_aware(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
    slack_h: Optional[float] = None,
    slack: Optional[float] = None,
) -> SimulationResult:
    """Carbon-aware admission on ``JobBatch`` columns (``carbon-aware``).

    Keeps FCFS intake order but delays each job — never past ``submit +
    slack`` — toward the start hour with the lowest forward-window-mean
    grid intensity, the paper's operate-on-carbon discipline.  Scoring
    reads :meth:`repro.intensity.api.CarbonIntensityService.window_score_table`
    built over ``intensity`` with ``forecast_error=0.0`` (the oracle
    table, memoized per window), so each candidate costs one O(1)
    lookup.  ``slack_h=`` (alias ``slack=``) overrides every job's
    budget uniformly; by default each job spends its own ``slack_h``
    column.  With a constant ``intensity`` there is no hourly signal and
    placement degenerates to FCFS earliest-fit, as it does for any job
    whose slack budget holds no feasible start.
    """
    if slack_h is not None and slack is not None:
        raise SimulationError(
            "pass slack_h= or its alias slack=, not both"
        )
    override = slack_h if slack_h is not None else slack
    if override is not None:
        override = float(override)
        if not (override >= 0.0):
            raise SimulationError(
                f"slack_h must be non-negative, got {override!r}"
            )
    if isinstance(intensity, IntensityTrace):
        # Oracle score tables (forecast_error=0.0): per-start-hour
        # forward-window means, numerically identical to
        # :meth:`repro.intensity.api.CarbonIntensityService.window_score_table`
        # over this trace, but built from one shared doubled cumulative
        # sum and truncated to the caller's scoring horizon.  Long-tail
        # duration mixes touch dozens of distinct windows; full-length
        # per-window builds over a year-long trace would dwarf the
        # placement loop itself.
        vals = np.asarray(intensity.values, dtype=float)
        n_tbl = vals.shape[0]
        total = float(vals.sum())
        csum2 = np.concatenate(([0.0], np.cumsum(np.concatenate([vals, vals]))))
        tables: dict = {}

        def score_table(window: int, limit: float):
            table = tables.get(window)
            if table is None:
                hi = n_tbl if limit >= n_tbl else int(limit) + 1
                full_cycles, partial = divmod(window, n_tbl)
                base = full_cycles * total
                if partial == 0:
                    arr = np.full(hi, base / window)
                else:
                    arr = (
                        base + (csum2[partial:partial + hi] - csum2[:hi])
                    ) / window
                table = arr
                tables[window] = table
            return table
    else:
        def score_table(window: int, limit: float):
            return None

    def placer(batch: JobBatch, n_nodes: int, capacity: int):
        return _place_carbon_aware(
            batch, n_nodes, capacity,
            score_table=score_table, slack_override=override,
        )

    return _simulate(
        jobs, cluster, placer,
        horizon_h=horizon_h, intensity=intensity, pue=pue, config=config,
    )


#: Default power-cap level: 80% of installed GPUs, a typical
#: demand-response curtailment contract.
DEFAULT_CAP_FRACTION = 0.8


def simulate_cluster_power_cap(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
    cap_fraction: Optional[float] = None,
    cap: Optional[float] = None,
) -> SimulationResult:
    """Power-capped FCFS on ``JobBatch`` columns (``power-cap``).

    Earliest-fit placement under one extra constraint: the cluster-wide
    concurrently-busy GPU count never exceeds ``floor(cap_fraction *
    total_gpus)``, so the per-hour busy profile is bounded by the cap
    everywhere — demand above it slides to the next instant with
    headroom (the next uncapped hour).  ``cap_fraction=`` (alias
    ``cap=``) defaults to ``DEFAULT_CAP_FRACTION``; it must lie in
    ``(0, 1]`` and admit the largest single job, otherwise the workload
    is unschedulable and placement raises ``SimulationError``.
    """
    if cap_fraction is not None and cap is not None:
        raise SimulationError(
            "pass cap_fraction= or its alias cap=, not both"
        )
    fraction = cap_fraction if cap_fraction is not None else cap
    fraction = DEFAULT_CAP_FRACTION if fraction is None else float(fraction)
    if not (0.0 < fraction <= 1.0):
        raise SimulationError(
            f"cap_fraction must be in (0, 1], got {fraction!r}"
        )
    cap_gpus = int(np.floor(fraction * cluster.total_gpus + 1e-9))
    if cap_gpus < 1:
        raise SimulationError(
            f"cap_fraction {fraction!r} admits no GPUs on "
            f"{cluster.total_gpus} installed"
        )

    def placer(batch: JobBatch, n_nodes: int, capacity: int):
        return _place_power_cap(batch, n_nodes, capacity, cap_gpus=cap_gpus)

    return _simulate(
        jobs, cluster, placer,
        horizon_h=horizon_h, intensity=intensity, pue=pue, config=config,
    )
