"""Instance generation: geometric topologies, traffic traces, demand synthesis.

This replaces the proprietary cell-trace data with synthetic inputs of the
same shape: per-cell aggregate volumes in fixed windows, split pro rata into
individually small delay-constrained demands assigned to random users and
start slots.  Every generator is deterministic given its seed; per-cell work
derives child seeds by spawning, so cells are independent streams.

The named paper instances (the two-cell toy, the intra-cell rate example,
the six-task heuristic example, the ring and complete constructions) are
available through fixture().
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Iterable, Sequence

import numpy as np

from . import bounds
from .model import DemandSet, ModelError, Topology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeoParams:
    """Geometry and radio parameters for topology synthesis."""

    cell_radius_m: float = 300.0
    d2d_range_m: float = 30.0
    users_per_cell: int = 40
    transmit_power_dbm: float = 21.0
    noise_power_dbm: float = -102.0
    path_loss_exponent: float = 3.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cell_radius_m <= 0 or self.d2d_range_m <= 0:
            raise ModelError("radii must be positive")
        if self.path_loss_exponent <= 2:
            raise ModelError("path-loss exponent must exceed 2")
        if self.users_per_cell < 1:
            raise ModelError("need at least one user per cell")


def shannon_rate(distance_m: float, params: GeoParams) -> float:
    """Link rate in bits/slot/Hz at a given distance.

    log2(1 + P * d^-exponent / N) with powers converted from dBm; distances
    under one meter are clamped to keep the ratio finite.
    """
    d = max(distance_m, 1.0)
    snr = 10 ** ((params.transmit_power_dbm - params.noise_power_dbm) / 10.0) * d ** (
        -params.path_loss_exponent
    )
    return math.log2(1.0 + snr)


def generate_topology(
    bs_positions: Sequence[tuple[float, float]],
    params: GeoParams,
    rng: np.random.Generator | None = None,
) -> Topology:
    """Drop users uniformly in each cell's disc and wire up links by range.

    Every user gets an uplink to its own BS (it is always within the cell
    radius); D2D links connect user pairs within the D2D range, across cell
    borders included.  Users with no D2D neighbor are normal; users that
    somehow end up isolated from every BS would be a bug and are logged.
    """
    if len(set(bs_positions)) != len(bs_positions):
        raise ModelError("BS positions must be distinct")
    rng = rng if rng is not None else np.random.default_rng(params.seed)
    bs_ids = [f"b{i}" for i in range(1, len(bs_positions) + 1)]
    positions: dict[str, tuple[float, float]] = {
        b: tuple(map(float, p)) for b, p in zip(bs_ids, bs_positions)
    }
    user_ids: list[str] = []
    home: dict[str, str] = {}
    for b, (cx, cy) in zip(bs_ids, bs_positions):
        radii = params.cell_radius_m * np.sqrt(rng.random(params.users_per_cell))
        angles = 2.0 * math.pi * rng.random(params.users_per_cell)
        for k in range(params.users_per_cell):
            u = f"{b}_u{k + 1}"
            user_ids.append(u)
            home[u] = b
            positions[u] = (cx + float(radii[k] * math.cos(angles[k])),
                            cy + float(radii[k] * math.sin(angles[k])))

    def dist(a: str, b2: str) -> float:
        (x1, y1), (x2, y2) = positions[a], positions[b2]
        return math.hypot(x1 - x2, y1 - y2)

    links: list[tuple[str, str, float]] = []
    for u in user_ids:
        links.append((u, home[u], shannon_rate(dist(u, home[u]), params)))
    connected = set()
    for u in user_ids:
        for v in user_ids:
            if u != v and dist(u, v) <= params.d2d_range_m:
                links.append((u, v, shannon_rate(dist(u, v), params)))
                connected.add(u)
    lonely = len(user_ids) - len(connected)
    if lonely:
        logger.debug("%d of %d users have no D2D neighbor", lonely, len(user_ids))
    return Topology(
        bs_ids=tuple(bs_ids),
        user_ids=tuple(user_ids),
        home_bs=home,
        links=tuple(links),
        positions=positions,
    )


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRecord:
    timestamp: datetime  # window start, aligned to the window length
    cell_id: str
    volume_bits: float

    def __post_init__(self) -> None:
        if self.volume_bits < 0:
            raise ModelError("trace volumes must be nonnegative")


TRACE_EPOCH = datetime(2015, 1, 5, tzinfo=timezone.utc)


def synthesize_trace(
    cells: Sequence[str],
    days: int,
    profile: str,
    rng: np.random.Generator,
    windows_per_day: int = 96,
    base_volume: float = 100.0,
    phases: Sequence[float] | None = None,
) -> list[TraceRecord]:
    """Per-cell aggregate volumes for ``days`` days of equal windows.

    Profiles: "uniform" (every record exactly base_volume), "diurnal-offset"
    (one sinusoidal day-cycle per cell with a random phase so neighboring
    peaks misalign, plus mild noise), "bursty" (exponential draws).
    """
    if profile not in ("uniform", "diurnal-offset", "bursty"):
        raise ModelError(f"unknown trace profile {profile!r}")
    window = timedelta(days=1) / windows_per_day
    if phases is None:
        phases = [2.0 * math.pi * rng.random() for _ in cells]
    elif len(phases) != len(cells):
        raise ModelError("need one phase per cell")
    records: list[TraceRecord] = []
    for c_idx, cell in enumerate(cells):
        for k in range(days * windows_per_day):
            if profile == "uniform":
                vol = base_volume
            elif profile == "diurnal-offset":
                angle = 2.0 * math.pi * (k % windows_per_day) / windows_per_day
                vol = base_volume * (1.0 + 0.8 * math.sin(angle + phases[c_idx]))
                vol = max(vol + rng.normal(0.0, 0.05 * base_volume), 0.0)
            else:
                vol = float(base_volume * rng.exponential())
            records.append(TraceRecord(TRACE_EPOCH + k * window, cell, vol))
    return records


def write_trace_csv(records: Iterable[TraceRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "cell_id", "volume_bits"])
        for r in records:
            writer.writerow([r.timestamp.isoformat(), r.cell_id, repr(r.volume_bits)])


def read_trace_csv(path: str) -> list[TraceRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                TraceRecord(
                    datetime.fromisoformat(row["timestamp"]),
                    row["cell_id"],
                    float(row["volume_bits"]),
                )
            )
    return records


def synthesize_demands(
    trace_records: Sequence[TraceRecord],
    topology: Topology,
    rng: np.random.Generator,
    delays: Sequence[int] = (3, 4, 5),
    splits: int = 120,
    slot_seconds: float = 2.0,
) -> DemandSet:
    """Split each window's aggregate volume into per-user demands.

    Each window yields ``splits`` demands whose volumes are the aggregate
    split pro rata by uniform (0, 1] weights renormalized to sum one.  Every
    demand gets a uniform user of the window's cell, a uniform start slot
    within the window, and a uniform delay from ``delays``.  Zero-volume
    windows yield no demands.  Starts near the end of the horizon are pulled
    back so deadlines never exceed it.
    """
    if not trace_records:
        return DemandSet(1, ())
    window_seconds = _infer_window_seconds(trace_records)
    slots_per_window = max(int(round(window_seconds / slot_seconds)), 1)
    t0 = min(r.timestamp for r in trace_records)
    n_windows = max(_window_index(r, t0, window_seconds) for r in trace_records) + 1
    horizon = n_windows * slots_per_window
    users_by_cell = {b: topology.users_of(b) for b in topology.bs_ids}
    rows: list[tuple[str, int, int, float]] = []
    for rec in sorted(trace_records, key=lambda r: (r.timestamp, r.cell_id)):
        if rec.volume_bits == 0:
            continue
        cell_users = users_by_cell.get(rec.cell_id)
        if not cell_users:
            raise ModelError(f"trace references unknown cell {rec.cell_id!r}")
        w_idx = _window_index(rec, t0, window_seconds)
        first_slot = w_idx * slots_per_window + 1
        weights = 1.0 - rng.random(splits)  # uniform in (0, 1]
        weights /= weights.sum()
        for w in weights:
            user = cell_users[int(rng.integers(len(cell_users)))]
            start = first_slot + int(rng.integers(slots_per_window))
            delay = int(delays[int(rng.integers(len(delays)))])
            start = min(start, horizon - delay + 1)  # keep the deadline inside the horizon
            rows.append((user, start, start + delay - 1, float(w * rec.volume_bits)))
    return DemandSet.build(horizon, rows)


def _infer_window_seconds(records: Sequence[TraceRecord]) -> float:
    times = sorted({r.timestamp for r in records})
    if len(times) < 2:
        return 900.0
    return min((b - a).total_seconds() for a, b in zip(times, times[1:]))


def _window_index(record: TraceRecord, origin: datetime, window_seconds: float) -> int:
    delta = (record.timestamp - origin).total_seconds()
    idx = round(delta / window_seconds)
    if abs(idx * window_seconds - delta) > 1e-6:
        raise ModelError(
            f"trace timestamp {record.timestamp.isoformat()} is not aligned to"
            f" the {window_seconds:.0f}s window"
        )
    return int(idx)


# ---------------------------------------------------------------------------
# Named paper instances
# ---------------------------------------------------------------------------


def toy_two_cell() -> tuple[Topology, DemandSet]:
    """Two adjacent cells, four users, three unit packets each, delay two."""
    topology = Topology(
        bs_ids=("alpha", "beta"),
        user_ids=("a", "b", "c", "d"),
        home_bs={"a": "alpha", "b": "alpha", "c": "beta", "d": "beta"},
        links=(
            ("a", "alpha", 1),
            ("b", "alpha", 1),
            ("c", "beta", 1),
            ("d", "beta", 1),
            ("b", "c", 1),
            ("c", "b", 1),
        ),
    )
    demands = DemandSet.build(
        4, [("a", 1, 2, 3), ("b", 1, 2, 3), ("c", 3, 4, 3), ("d", 3, 4, 3)]
    )
    return topology, demands


def intra_cell_example(
    rate_ratio: float, delay: int, volume: float = 1.0
) -> tuple[Topology, DemandSet]:
    """One cell, two users: a slow direct uplink vs a fast two-hop detour.

    User a uplinks at rate 1, reaches user b at rate ``rate_ratio``, and b
    uplinks at rate (delay - 1) * rate_ratio; a single demand of ``volume``
    with the given delay starts at slot 1.
    """
    if delay < 2:
        raise ModelError("the detour needs delay >= 2")
    topology = Topology(
        bs_ids=("b1",),
        user_ids=("a", "b"),
        home_bs={"a": "b1", "b": "b1"},
        links=(
            ("a", "b1", 1),
            ("a", "b", rate_ratio),
            ("b", "b1", (delay - 1) * rate_ratio),
        ),
    )
    demands = DemandSet.build(delay, [("a", 1, delay, volume)])
    return topology, demands


def heuristic_six_task() -> tuple[Topology, DemandSet]:
    """Two cells, three tasks each, volumes 20/20/80 and 80/20/20, unit rates."""
    topology = Topology(
        bs_ids=("b1", "b2"),
        user_ids=("u1", "u2"),
        home_bs={"u1": "b1", "u2": "b2"},
        links=(
            ("u1", "b1", 1),
            ("u2", "b2", 1),
            ("u1", "u2", 1),
            ("u2", "u1", 1),
        ),
    )
    demands = DemandSet.build(
        6,
        [
            ("u1", 1, 2, 20),  # A
            ("u1", 3, 4, 20),  # B
            ("u1", 5, 6, 80),  # C
            ("u2", 1, 2, 80),  # D
            ("u2", 3, 4, 20),  # E
            ("u2", 5, 6, 20),  # F
        ],
    )
    return topology, demands


_FIXTURE_RE = re.compile(r"^(?P<name>[\w-]+)(?:\((?P<args>[^)]*)\))?$")


def fixture(name: str) -> tuple[Topology, DemandSet]:
    """Named instances: toy-fig1, intra-fig3(r,D[,V]), heuristic-appF,
    ring(D[,V]), complete(N,D[,V])."""
    m = _FIXTURE_RE.match(name.strip())
    if not m:
        raise ModelError(f"cannot parse fixture name {name!r}")
    base = m.group("name")
    args = [a.strip() for a in (m.group("args") or "").split(",") if a.strip()]

    def arg(i: int, kind: type, default: float = 0) -> float:
        if i >= len(args):
            return default
        try:
            return kind(args[i])
        except ValueError:
            raise ModelError(
                f"--fixture {name!r}: argument {i + 1} must be {kind.__name__}, got {args[i]!r}"
            ) from None

    if base == "toy-fig1":
        return toy_two_cell()
    if base == "intra-fig3":
        if len(args) < 2:
            raise ModelError("intra-fig3 needs (rate_ratio, delay[, volume])")
        return intra_cell_example(arg(0, float), arg(1, int), arg(2, float, 1.0))
    if base == "heuristic-appF":
        return heuristic_six_task()
    if base == "ring":
        if len(args) < 1:
            raise ModelError("ring needs (delay[, volume])")
        inst = bounds.build_ring_instance(arg(0, int), arg(1, float, 1))
        return inst.topology, inst.demands
    if base == "complete":
        if len(args) < 2:
            raise ModelError("complete needs (n_cells, delay[, volume])")
        inst = bounds.build_complete_instance(arg(0, int), arg(1, int), arg(2, float, 1))
        return inst.topology, inst.demands
    raise ModelError(f"unknown fixture {name!r}")


def random_multicell_instance(
    rng: np.random.Generator,
    n_cells: int,
    users_per_cell: int,
    n_demands: int,
    horizon: int,
    delays: Sequence[int] = (1, 2, 3, 4),
    d2d_link_prob: float = 0.35,
    rate_range: tuple[float, float] = (0.5, 4.0),
) -> tuple[Topology, DemandSet]:
    """Small random instance for property tests and the bound suite.

    Uplink rates and D2D rates are drawn uniformly from rate_range; each
    ordered pair of distinct users gets a D2D link with d2d_link_prob.
    """
    bs_ids = [f"b{i}" for i in range(1, n_cells + 1)]
    user_ids = []
    home = {}
    for b in bs_ids:
        for k in range(users_per_cell):
            u = f"{b}_u{k + 1}"
            user_ids.append(u)
            home[u] = b
    lo, hi = rate_range
    links = [(u, home[u], float(rng.uniform(lo, hi))) for u in user_ids]
    for u in user_ids:
        for v in user_ids:
            if u != v and rng.random() < d2d_link_prob:
                links.append((u, v, float(rng.uniform(lo, hi))))
    topology = Topology(
        bs_ids=tuple(bs_ids), user_ids=tuple(user_ids), home_bs=home, links=tuple(links)
    )
    rows = []
    for _ in range(n_demands):
        u = user_ids[int(rng.integers(len(user_ids)))]
        delay = int(delays[int(rng.integers(len(delays)))])
        if delay > horizon:
            raise ModelError(f"a delay of {delay} slots does not fit a horizon of {horizon}")
        start = int(rng.integers(1, horizon - delay + 2))
        rows.append((u, start, start + delay - 1, float(rng.uniform(0.5, 5.0))))
    return topology, DemandSet.build(horizon, rows)
