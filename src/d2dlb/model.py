"""Domain model: cellular topology, delay-constrained demands, schedules, metrics.

Conventions used throughout the package:
  * slots are 1-indexed integers in [1, T];
  * spectrum is in Hz, traffic volume in bits, link rates in bits/slot/Hz;
  * a transmission of x Hz on link (u, v) in one slot moves x * rate(u, v) bits;
  * self-links (u, u) exist at users only; they have rate 1, represent
    traffic stored at the user for one slot and never consume spectrum;
  * a base station is a sink: bits that enter it within a demand's lifetime
    are delivered, so it stores nothing and has no self-link.

All types are plain immutable-by-convention dataclasses; every operation in
this module is a pure function.

A ``Schedule`` is parallel arrays, one entry per (demand, src, dst, slot)
key, with the nodes as positions in a tuple of names.  Storage fill,
validation, volumes and loads are array code over integer (demand, node,
slot) keys.  Every float sum they return adds its terms in entry order, one
after another (``bincount``, never the pairwise ``np.sum``), and a schedule
of exact numbers (``Fraction``) stays exact.  ``Topology.arrays`` and
``DemandSet.arrays`` hold the lookups they share, built once per instance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Number = float | int | Fraction

#: absolute tolerance on per-node flow residuals (double-precision LP noise)
FLOW_ABS_TOL = 1e-9
#: relative tolerance on demand volume totals
VOLUME_REL_TOL = 1e-6


class ModelError(ValueError):
    """Raised when input data violates a structural invariant."""


class FlowResidualError(ModelError):
    """A computed schedule is wrong beyond tolerance: a numerical failure, not a fault of the input.

    Raised by ``fill_storage`` when the transmissions it completes do not
    conserve the volume, hold volume back past a deadline or relay it before
    it exists, and by the no-D2D stage when its EDF witness misses a deadline
    at the capacity the interval search proved sufficient.
    """


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


class NodeArrays(NamedTuple):
    """A topology's nodes as positions in ``all_nodes()`` (users first, then BSs)."""

    nodes: tuple[str, ...]
    index: dict[str, int]
    n_users: int
    billed: np.ndarray  # per node: position in bs_ids of the BS billed for traffic into it
    bs_rank: np.ndarray  # per position in bs_ids: rank of the BS id in sorted order
    bs_by_name: np.ndarray  # positions in bs_ids, sorted by BS id
    link_key: np.ndarray  # src * len(nodes) + dst of every link and user self-link, sorted
    link_rate: np.ndarray  # the rate of each of those links, as a float

    def rates(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Float rate of each link (src, dst) of node positions; 0 where there is no such link."""
        n = len(self.nodes)
        key = src * n + dst
        at = np.minimum(np.searchsorted(self.link_key, key), len(self.link_key) - 1)
        found = (src >= 0) & (dst >= 0) & (self.link_key[at] == key)
        return np.where(found, self.link_rate[at], 0.0)


@dataclass(frozen=True)
class Topology:
    """Directed uplink network of base stations, users and wireless links.

    ``links`` holds directed edges (src_user, dst_node, rate) where dst is a
    user (D2D link) or a base station (uplink).  Each user's self-link is
    implicit and never listed here; a BS has none.
    """

    bs_ids: tuple[str, ...]
    user_ids: tuple[str, ...]
    home_bs: Mapping[str, str]
    links: tuple[tuple[str, str, Number], ...]
    positions: Mapping[str, tuple[float, float]] | None = None

    # derived lookups, filled in __post_init__
    rate_map: dict[tuple[str, str], Number] = field(default_factory=dict, repr=False)
    bs_set: frozenset = field(default_factory=frozenset, repr=False)

    def __post_init__(self) -> None:
        bs_set = set(self.bs_ids)
        user_set = set(self.user_ids)
        if len(bs_set) != len(self.bs_ids):
            raise ModelError("duplicate BS ids")
        if len(user_set) != len(self.user_ids):
            raise ModelError("duplicate user ids")
        if bs_set & user_set:
            raise ModelError(f"ids used both as BS and user: {sorted(bs_set & user_set)}")
        for u in self.user_ids:
            if u not in self.home_bs:
                raise ModelError(f"user {u!r} has no home BS")
            if self.home_bs[u] not in bs_set:
                raise ModelError(f"user {u!r} has unknown home BS {self.home_bs[u]!r}")
        if len(self.home_bs) != len(user_set):  # so a node with a home BS is a user
            raise ModelError(f"home BS given for non-users: {sorted(set(self.home_bs) - user_set)}")
        rate_map: dict[tuple[str, str], Number] = {}
        for src, dst, rate in self.links:
            if src not in user_set:
                raise ModelError(f"link source {src!r} is not a declared user")
            if dst not in user_set and dst not in bs_set:
                raise ModelError(f"link target {dst!r} is not a declared node")
            if src == dst:
                raise ModelError(f"explicit self-link {src!r} not allowed")
            if not (rate > 0) or (isinstance(rate, float) and not math.isfinite(rate)):
                raise ModelError(f"link ({src!r}, {dst!r}) has invalid rate {rate!r}")
            if (src, dst) in rate_map:
                raise ModelError(f"duplicate link ({src!r}, {dst!r})")
            rate_map[(src, dst)] = rate
        object.__setattr__(self, "rate_map", rate_map)
        object.__setattr__(self, "bs_set", frozenset(bs_set))

    def all_nodes(self) -> tuple[str, ...]:
        return tuple(self.user_ids) + tuple(self.bs_ids)

    @cached_property
    def arrays(self) -> NodeArrays:
        nodes = self.all_nodes()
        index = {v: i for i, v in enumerate(nodes)}
        bs_position = {b: i for i, b in enumerate(self.bs_ids)}
        by_name = np.array(sorted(range(len(self.bs_ids)), key=self.bs_ids.__getitem__), dtype=np.int64)
        rank = np.empty(len(by_name), dtype=np.int64)
        rank[by_name] = np.arange(len(by_name))
        n = len(nodes)
        n_users = len(self.user_ids)
        self_links = [i * (n + 1) for i in range(n_users)]  # users come first; a BS has none
        keys = [index[u] * n + index[v] for u, v, _ in self.links] + self_links
        order = np.argsort(np.array(keys, dtype=np.int64))
        rates = np.array([float(r) for _, _, r in self.links] + [1.0] * n_users)
        return NodeArrays(
            nodes=nodes,
            index=index,
            n_users=n_users,
            billed=np.array(
                [bs_position[self.home_bs[u]] for u in self.user_ids] + list(range(len(self.bs_ids))),
                dtype=np.int64,
            ),
            bs_rank=rank,
            bs_by_name=by_name,
            link_key=np.array(keys, dtype=np.int64)[order],
            link_rate=rates[order],
        )

    def is_bs(self, node: str) -> bool:
        return node in self.bs_set

    def rate(self, src: str, dst: str) -> Number:
        """Rate of link (src, dst); a user's self-link has rate 1 by definition."""
        if src == dst and src in self.home_bs:
            return 1
        try:
            return self.rate_map[(src, dst)]
        except KeyError:
            raise ModelError(f"no link ({src!r}, {dst!r})") from None

    def has_link(self, src: str, dst: str) -> bool:
        return (src == dst and src in self.home_bs) or (src, dst) in self.rate_map

    def users_of(self, bs: str) -> tuple[str, ...]:
        return tuple(u for u in self.user_ids if self.home_bs[u] == bs)

    def to_json_dict(self) -> dict:
        d = {
            "bs": list(self.bs_ids),
            "users": [{"id": u, "home": self.home_bs[u]} for u in self.user_ids],
            "links": [[s, t, float(r)] for s, t, r in self.links],
        }
        if self.positions is not None:
            d["positions"] = {k: list(v) for k, v in self.positions.items()}
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "Topology":
        positions = None
        if "positions" in d:
            positions = {k: (float(v[0]), float(v[1])) for k, v in d["positions"].items()}
        return Topology(
            bs_ids=tuple(d["bs"]),
            user_ids=tuple(u["id"] for u in d["users"]),
            home_bs={u["id"]: u["home"] for u in d["users"]},
            links=tuple((s, t, r) for s, t, r in d["links"]),
            positions=positions,
        )


# ---------------------------------------------------------------------------
# Demands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Demand:
    id: int
    user: str
    start: int
    end: int
    volume: Number

    @property
    def delay(self) -> int:
        return self.end - self.start + 1


class DemandArrays(NamedTuple):
    """A demand set's fields, one entry per demand in its order."""

    ids: np.ndarray
    users: tuple[str, ...]
    start: np.ndarray
    end: np.ndarray
    volume: np.ndarray  # as floats
    volumes: tuple[Number, ...]  # as given, exact numbers included
    by_id: np.ndarray  # the positions sorted by id, for ``_demand_positions``


@dataclass(frozen=True)
class DemandSet:
    """Delay-constrained traffic demands over a horizon of ``horizon`` slots."""

    horizon: int
    demands: tuple[Demand, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ModelError("horizon must be >= 1")
        seen = set()
        for j in self.demands:
            if j.id in seen:
                raise ModelError(f"duplicate demand id {j.id}")
            seen.add(j.id)
            if not (1 <= j.start <= j.end <= self.horizon):
                raise ModelError(
                    f"demand {j.id}: lifetime [{j.start}, {j.end}] outside [1, {self.horizon}]"
                )
            if not j.volume > 0:
                raise ModelError(f"demand {j.id}: volume must be positive")

    @staticmethod
    def build(horizon: int, rows: Iterable[tuple[str, int, int, Number]]) -> "DemandSet":
        """Assign dense integer ids (ingestion order) to (user, start, end, volume) rows."""
        demands = tuple(
            Demand(i, user, start, end, vol) for i, (user, start, end, vol) in enumerate(rows)
        )
        return DemandSet(horizon, demands)

    def check_users(self, topology: Topology) -> None:
        at = self.user_positions(topology)
        unknown = np.flatnonzero((at < 0) | (at >= topology.arrays.n_users))
        if unknown.size:
            j = self.demands[unknown[0]]
            raise ModelError(f"demand {j.id}: unknown user {j.user!r}")

    @cached_property
    def arrays(self) -> DemandArrays:
        ds = self.demands
        ids = np.array([j.id for j in ds], dtype=np.int64)
        return DemandArrays(
            ids=ids,
            users=tuple(j.user for j in ds),
            start=np.array([j.start for j in ds], dtype=np.int64),
            end=np.array([j.end for j in ds], dtype=np.int64),
            volume=np.array([float(j.volume) for j in ds]),
            volumes=tuple(j.volume for j in ds),
            by_id=np.argsort(ids, kind="stable"),
        )

    def user_positions(self, topology: Topology) -> np.ndarray:
        """Per demand, its user's position in ``topology.all_nodes()``; -1 for a node it lacks.

        Both are immutable, so the array is kept for the last topology asked:
        ``check_users``, storage fill and every validation of a schedule of
        the instance read it.
        """
        kept = self.__dict__.get("_user_positions")
        if kept is None or kept[0] is not topology:
            index = topology.arrays.index
            at = np.array([index.get(u, -1) for u in self.arrays.users], dtype=np.int64)
            at.flags.writeable = False
            kept = self.__dict__["_user_positions"] = (topology, at)
        return kept[1]

    @cached_property
    def max_delay(self) -> int:
        if not self.demands:
            return 1
        return max(j.delay for j in self.demands)

    @cached_property
    def total_volume(self) -> Number:
        return sum(j.volume for j in self.demands)

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "demands": [[j.id, j.user, j.start, j.end, float(j.volume)] for j in self.demands],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "DemandSet":
        return DemandSet(
            horizon=int(d["horizon"]),
            demands=tuple(Demand(int(i), u, int(s), int(e), r) for i, u, s, e, r in d["demands"]),
        )


def instance_to_json(topology: Topology, demands: DemandSet) -> str:
    return json.dumps(
        {"topology": topology.to_json_dict(), "demands": demands.to_json_dict()}, indent=2
    )


def instance_from_json(text: str) -> tuple[Topology, DemandSet]:
    d = json.loads(text)
    return Topology.from_json_dict(d["topology"]), DemandSet.from_json_dict(d["demands"])


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def sum_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Per-index sums of ``values``, each sum adding its terms in input order from 0.

    Floats go through ``bincount``, which adds one term after another as a
    loop over dict entries would; ``np.sum`` adds pairwise and would not.
    Exact numbers (an object array) go through ``np.add.at``, which keeps
    them exact.
    """
    if values.dtype == object:
        out = np.zeros(size, dtype=object)
        np.add.at(out, index, values)
        return out
    return np.bincount(index, weights=values, minlength=size)


def _total(values: np.ndarray) -> Number:
    """Sum of ``values`` added left to right from 0, as a Python number."""
    if values.dtype == object:
        return sum(values.tolist())
    return float(sum_by(np.zeros(len(values), dtype=np.intp), values, 1)[0])


@dataclass(frozen=True, eq=False)
class Schedule:
    """Sparse allocations: entry i gives ``value[i]`` Hz to demand ``demand[i]`` on
    link ``(nodes[src[i]], nodes[dst[i]])`` in slot ``slot[i]``.

    The arrays are parallel, ``demand``/``src``/``dst``/``slot`` int64 and
    ``value`` float64, or an object array of exact numbers (``Fraction``)
    that every routine here keeps exact.  No (demand, src, dst, slot) key
    appears twice.  Entries with src == dst are virtual self-links at users:
    the value is traffic stored at the user during the slot (rate 1, no
    spectrum cost).  A BS is a sink and has none: what enters it within the
    demand's lifetime is delivered.
    ``allocations`` is the same schedule as a read-only map keyed by
    (demand, src name, dst name, slot), in entry order.
    """

    nodes: tuple[str, ...]
    demand: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    slot: np.ndarray
    value: np.ndarray

    @staticmethod
    def empty(nodes: tuple[str, ...] = ()) -> "Schedule":
        none = np.zeros(0, dtype=np.int64)
        return Schedule(nodes, none, none, none, none, np.zeros(0))

    @staticmethod
    def from_allocations(allocations: Mapping[tuple[int, str, str, int], Number]) -> "Schedule":
        """The schedule of a (demand, src, dst, slot) -> value map; Fraction values stay exact."""
        keys = list(allocations)
        values = list(allocations.values())
        nodes = tuple(sorted({u for _, u, _, _ in keys} | {v for _, _, v, _ in keys}))
        index = {v: i for i, v in enumerate(nodes)}
        exact = any(isinstance(x, Fraction) for x in values)
        return Schedule(
            nodes,
            np.array([j for j, _, _, _ in keys], dtype=np.int64),
            np.array([index[u] for _, u, _, _ in keys], dtype=np.int64),
            np.array([index[v] for _, _, v, _ in keys], dtype=np.int64),
            np.array([t for _, _, _, t in keys], dtype=np.int64),
            np.array(values, dtype=object if exact else float),
        )

    def __len__(self) -> int:
        return len(self.demand)

    @property
    def exact(self) -> bool:
        return self.value.dtype == object

    @cached_property
    def allocations(self) -> Mapping[tuple[int, str, str, int], Number]:
        nodes = self.nodes
        return MappingProxyType(
            {
                (j, nodes[u], nodes[v], t): x
                for j, u, v, t, x in zip(
                    self.demand.tolist(),
                    self.src.tolist(),
                    self.dst.tolist(),
                    self.slot.tolist(),
                    self.value.tolist(),
                )
            }
        )

    def select(self, entries: np.ndarray) -> "Schedule":
        """The entries a boolean mask or an index array picks, in that order."""
        return Schedule(
            self.nodes,
            self.demand[entries],
            self.src[entries],
            self.dst[entries],
            self.slot[entries],
            self.value[entries],
        )

    @staticmethod
    def concatenate(parts: Sequence["Schedule"]) -> "Schedule":
        """The entries of ``parts`` in order, on the union of their nodes.

        A key in several parts gets the sum of its values, added in part order.
        """
        if not parts:
            return Schedule.empty()
        nodes = parts[0].nodes
        src, dst = [part.src for part in parts], [part.dst for part in parts]
        if any(part.nodes != nodes for part in parts):
            nodes = tuple(dict.fromkeys(v for part in parts for v in part.nodes))
            index = {v: i for i, v in enumerate(nodes)}
            at = [np.array([index[v] for v in part.nodes], dtype=np.int64) for part in parts]
            src = [a[i] for a, i in zip(at, src)]
            dst = [a[i] for a, i in zip(at, dst)]
        merged = Schedule(
            nodes,
            np.concatenate([part.demand for part in parts]),
            np.concatenate(src),
            np.concatenate(dst),
            np.concatenate([part.slot for part in parts]),
            np.concatenate([part.value for part in parts]),
        )
        demands = np.concatenate([np.unique(part.demand) for part in parts])
        if len(np.unique(demands)) == len(demands):
            return merged  # no demand, so no key, in two parts
        return merged._summed()

    def _summed(self) -> "Schedule":
        """Entries with equal keys summed in entry order, each key where it first appears."""
        if len(self) == 0:
            return self
        _, demand = np.unique(self.demand, return_inverse=True)
        n = len(self.nodes)
        first_slot = self.slot.min()
        span = self.slot.max() - first_slot + 1
        key = ((demand * n + self.src) * n + self.dst) * span + (self.slot - first_slot)
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        if len(first) == len(key):
            return self
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        value = sum_by(rank[group], self.value, len(order))
        picked = self.select(first[order])
        return replace(picked, value=value)

    def to_csv(self, path: str, topology: Topology, header_lines: Iterable[str] = ()) -> None:
        """One row per entry, sorted by (demand, src name, dst name, slot), as ``csv.writer`` writes it.

        Node names go through ``csv.writer`` once each, for its quoting; the
        numbers need none, so the rows are formatted directly.
        """
        nodes = self.nodes
        rank = np.empty(len(nodes), dtype=np.int64)
        rank[sorted(range(len(nodes)), key=nodes.__getitem__)] = np.arange(len(nodes))
        rows = self.select(np.lexsort((self.slot, rank[self.dst], rank[self.src], self.demand)))
        spectrum = rows.value.tolist()
        bits = (rows.value * _entry_rates(rows, topology)).tolist()
        if rows.exact:
            spectrum = [float(x) for x in spectrum]
            bits = [float(x) for x in bits]
        names = np.array([_csv_field(v) for v in nodes], dtype=object)
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("demand,src,dst,slot,spectrum,bits\r\n")
            fh.write(
                "".join(
                    [
                        f"{j},{u},{v},{t},{x!r},{b!r}\r\n"
                        for j, u, v, t, x, b in zip(
                            rows.demand.tolist(),
                            names[rows.src].tolist(),
                            names[rows.dst].tolist(),
                            rows.slot.tolist(),
                            spectrum,
                            bits,
                        )
                    ]
                )
            )

    @staticmethod
    def from_csv(path: str) -> "Schedule":
        """Read a schedule CSV; rows with the same key are summed in file order."""
        index: dict[str, int] = {}  # node name -> position, in order of appearance
        demand, src, dst, slot, spectrum = [], [], [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader, None)
            if header is None:
                return Schedule.empty()
            column = {name: i for i, name in enumerate(header)}
            j, u, v, t, x = (column[name] for name in ("demand", "src", "dst", "slot", "spectrum"))
            for row in reader:
                if row:
                    demand.append(int(row[j]))
                    src.append(index.setdefault(row[u], len(index)))
                    dst.append(index.setdefault(row[v], len(index)))
                    slot.append(int(row[t]))
                    spectrum.append(float(row[x]))
        return Schedule(
            tuple(index),
            np.array(demand, dtype=np.int64),
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(slot, dtype=np.int64),
            np.array(spectrum, dtype=float),
        )._summed()


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row, quoted where needed."""
    row = io.StringIO()
    csv.writer(row).writerow([text, ""])
    return row.getvalue()[: -len(",\r\n")]


def node_positions(nodes: tuple[str, ...], topology: Topology) -> np.ndarray:
    """Position of each of ``nodes`` in ``topology.all_nodes()``; -1 for a node it lacks."""
    table = topology.arrays
    if nodes is table.nodes or nodes == table.nodes:
        return np.arange(len(nodes), dtype=np.int64)
    return np.array([table.index.get(v, -1) for v in nodes], dtype=np.int64)


def _entry_rates(schedule: Schedule, topology: Topology) -> np.ndarray:
    """The rate of each entry's link: floats, or the topology's own numbers for an exact schedule.

    Raises ModelError naming the first entry whose link the topology lacks.
    """
    at = node_positions(schedule.nodes, topology)
    rate = topology.arrays.rates(at[schedule.src], at[schedule.dst])
    missing = np.flatnonzero(rate == 0.0)
    if missing.size:
        i = int(missing[0])
        u, v = schedule.nodes[schedule.src[i]], schedule.nodes[schedule.dst[i]]
        raise ModelError(f"no link ({u!r}, {v!r})")
    if schedule.exact:
        nodes = schedule.nodes
        pairs = zip(schedule.src.tolist(), schedule.dst.tolist())
        return np.array([topology.rate(nodes[u], nodes[v]) for u, v in pairs], dtype=object)
    return rate


def fill_storage(
    schedule: Schedule, topology: Topology, demands: DemandSet
) -> Schedule:
    """Complete a schedule of real-link transmissions with self-link storage at users.

    Self-link values are the unique ones making flow conservation hold at
    every user, given the real transmissions.  Bits sent into a BS are
    delivered and get no storage.  The schedules it completes are
    computed ones, so every failure is numerical and raises
    FlowResidualError: conservation would need negative storage, a non-source
    node transmits at the demand's start slot, or a user still holds volume
    at the deadline.  Of several failures, one of the earliest demand (in
    ``demands`` order) is reported.

    Entries of demands outside ``demands`` are dropped.  The result lists,
    demand by demand in ``demands`` order, the transmissions in input order
    and then the storage by (user, slot).  A user's storage in slot t is what
    it holds after sending in t: a running sum over the demand's lifetime of
    the volume (at the source), minus the bits sent in each slot, plus the
    bits received in the slot before, added in that order and clamped at 0
    after each slot.  All rows advance together, one slot at a time.
    """
    table = topology.arrays
    n = len(table.nodes)
    demands.check_users(topology)
    d = demands.arrays
    n_demands = len(d.ids)
    if n_demands == 0:
        return Schedule.empty(table.nodes)
    k = _demand_positions(d, schedule.demand)
    keep = np.flatnonzero((schedule.src != schedule.dst) & (k >= 0))
    keep = keep[np.argsort(k[keep], kind="stable")]
    k = k[keep]
    real = schedule.select(keep)
    at = node_positions(real.nodes, topology)
    src, dst, slot = at[real.src], at[real.dst], real.slot
    bits = real.value * _entry_rates(real, topology)
    exact = real.exact
    volume = np.array(d.volumes, dtype=object) if exact else d.volume
    tol = FLOW_ABS_TOL * np.maximum(1.0, d.volume)

    # one row per (demand, user) the demand touches, its source included;
    # only users send, and what a BS receives is delivered
    user = demands.user_positions(topology)
    m = len(keep)
    into = np.flatnonzero(dst < table.n_users)
    pairs, pair_of = np.unique(
        np.concatenate([np.arange(n_demands) * n + user, k * n + src, k[into] * n + dst[into]]),
        return_inverse=True,
    )
    rows = len(pairs)
    pair_k, pair_node = pairs // n, pairs % n
    is_source = pair_node == user[pair_k]
    delay = (d.end - d.start + 1)[pair_k]
    span = int(delay.max())
    # per slot offset and row, the bits sent (negated) and the bits received
    offset = slot - d.start[k]
    sent = (offset >= 0) & (slot <= d.end[k])
    received = (offset[into] >= 0) & (slot[into] < d.end[k[into]])
    neg_sent = sum_by(
        offset[sent] * rows + pair_of[n_demands : n_demands + m][sent], -bits[sent], span * rows
    ).reshape(span, rows)
    recv = sum_by(
        offset[into][received] * rows + pair_of[n_demands + m :][received],
        bits[into][received],
        span * rows,
    ).reshape(span, rows)

    failures: list[tuple[int, int, str]] = []  # (demand position, order, message)
    early = np.flatnonzero(~is_source & (neg_sent[0] < 0).astype(bool))
    for p in early.tolist():
        j = demands.demands[pair_k[p]]
        failures.append(
            (
                int(pair_k[p]),
                0,
                f"demand {j.id}: node {table.nodes[pair_node[p]]!r} transmits at start slot"
                f" {j.start} but only the source holds the data then",
            )
        )
    neg_sent[0, ~is_source] = 0  # only the source holds data at the start slot

    # storage after sending in each slot, clamped at 0; the first offset at
    # which a row goes below -tol fails it
    row_tol = tol[pair_k]
    store = np.empty((span, rows), dtype=neg_sent.dtype)
    failed_at = np.full(rows, -1, dtype=np.int64)
    held = np.where(is_source, volume[pair_k], 0) + neg_sent[0]
    for s in range(span):
        if s:
            held = held + recv[s - 1] + neg_sent[s]
        below = (held < -row_tol).astype(bool) & (failed_at < 0) & (s < delay)
        failed_at[below] = s
        held = np.maximum(held, 0)
        store[s] = held
    for p in np.flatnonzero(failed_at >= 0).tolist():
        j = demands.demands[pair_k[p]]
        if failed_at[p] == 0:
            message = f"demand {j.id}: source sends more than its volume at start"
        else:
            message = (
                f"demand {j.id}: node {table.nodes[pair_node[p]]!r} slot"
                f" {j.start + failed_at[p]}: sends more than it holds"
            )
        failures.append((int(pair_k[p]), 1, message))
    last = store[delay - 1, np.arange(rows)]
    holding = (last > row_tol).astype(bool) & (failed_at < 0)
    for p in np.flatnonzero(holding).tolist():
        j = demands.demands[pair_k[p]]
        failures.append(
            (
                int(pair_k[p]),
                1,
                f"demand {j.id}: user {table.nodes[pair_node[p]]!r} still holds"
                f" {last[p]} at deadline",
            )
        )
    if failures:
        raise FlowResidualError(min(failures)[2])

    # storage cells row by row, each row's by slot
    p, cell = np.nonzero(((store > 0).astype(bool) & (np.arange(span)[:, None] < delay)).T)
    out_k = np.concatenate([k, pair_k[p]])
    order = np.argsort(out_k, kind="stable")
    return Schedule(
        table.nodes,
        d.ids[out_k[order]],
        np.concatenate([src, pair_node[p]])[order],
        np.concatenate([dst, pair_node[p]])[order],
        np.concatenate([slot, d.start[pair_k[p]] + cell])[order],
        np.concatenate([real.value, store[cell, p]])[order],
    )


def _demand_positions(d: DemandArrays, query: np.ndarray) -> np.ndarray:
    """Position in ``d.ids`` of each queried demand id; -1 for an id not there."""
    if len(d.ids) == 0:
        return np.full(len(query), -1, dtype=np.int64)
    at = d.by_id[np.minimum(np.searchsorted(d.ids, query, sorter=d.by_id), len(d.ids) - 1)]
    return np.where(d.ids[at] == query, at, -1)


# ---------------------------------------------------------------------------
# Validation of the scheduling-policy constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    demand: int
    kind: str  # source_balance | arrival | conservation | negative | lifetime | unknown_link
    node: str | None
    slot: int | None
    residual: float

    def __str__(self) -> str:
        where = f" node={self.node}" if self.node else ""
        when = f" slot={self.slot}" if self.slot is not None else ""
        return f"[{self.kind}] demand={self.demand}{where}{when} residual={self.residual:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_residual(self) -> float:
        return max((abs(v.residual) for v in self.violations), default=0.0)

    def summary(self) -> str:
        if self.ok:
            return "schedule valid"
        lines = [f"{len(self.violations)} violations:"]
        lines += [str(v) for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def validate_schedule(
    schedule: Schedule,
    topology: Topology,
    demands: DemandSet,
    flow_abs_tol: float = FLOW_ABS_TOL,
) -> ValidationReport:
    """Check a schedule against the traffic-scheduling-policy constraints.

    Per demand: full volume leaves the source at its start slot, full volume
    enters base stations within its lifetime (a BS is a sink), flow is
    conserved at every user in every intermediate slot, and all allocations
    are nonnegative.  A self-link at a BS is an ``unknown_link``.  Violations
    are reported with residuals, never raised: first those of single entries
    (unknown demand or link, negative value, slot outside the lifetime) in
    entry order, then per demand in ``demands`` order its source balance,
    arrival and conservation (by node name, then slot).  An exact schedule is
    checked in floats.  The entry and conservation checks of demand j allow
    ``flow_abs_tol`` times max(1, V_j), and its source and arrival balances
    max(``flow_abs_tol``, ``VOLUME_REL_TOL`` * V_j), so that a schedule is
    held alike in any unit.
    """
    table = topology.arrays
    n = len(table.nodes)
    d = demands.arrays
    names = schedule.nodes
    at = node_positions(names, topology)  # -1 for a node the topology lacks, on no link
    src, dst, slot = at[schedule.src], at[schedule.dst], schedule.slot
    x = np.asarray(schedule.value, dtype=float)
    k = _demand_positions(d, schedule.demand)
    known = k >= 0
    kk = np.where(known, k, 0)
    rate = table.rates(src, dst)
    link = rate > 0
    negative = known & link & (x < -flow_abs_tol * np.maximum(1.0, d.volume[kk]))
    inside = (d.start[kk] <= slot) & (slot <= d.end[kk])

    violations: list[Violation] = []
    flagged = ~known | ~link | negative | ~inside
    for i in np.flatnonzero(flagged).tolist():
        jid, t, value = int(schedule.demand[i]), int(slot[i]), float(x[i])
        arc = f"{names[schedule.src[i]]}->{names[schedule.dst[i]]}"
        if not known[i]:
            violations.append(Violation(jid, "unknown_demand", None, t, value))
        elif not link[i]:
            violations.append(Violation(jid, "unknown_link", arc, t, value))
        else:
            if negative[i]:
                violations.append(Violation(jid, "negative", arc, t, value))
            if not inside[i]:
                violations.append(Violation(jid, "lifetime", arc, t, value))

    use = np.flatnonzero(known & link & inside)
    k, src, dst, slot = k[use], src[use], dst[use], slot[use]
    bits = x[use] * rate[use]
    start, end = d.start[k], d.end[k]
    flow_tol = flow_abs_tol * np.maximum(1.0, d.volume)
    vol_tol = np.maximum(flow_abs_tol, VOLUME_REL_TOL * d.volume)
    n_demands = len(d.ids)
    user = demands.user_positions(topology)
    found: list[tuple[tuple, Violation]] = []  # (sort key, violation)

    # source balance: the volume leaves the source at the start slot, nothing else does
    at_start = slot == start
    from_source = at_start & (src == user[k])
    res = sum_by(k[from_source], bits[from_source], n_demands) - d.volume
    for q in np.flatnonzero(np.abs(res) > vol_tol).tolist():
        j = demands.demands[q]
        found.append(((q, 0), Violation(j.id, "source_balance", j.user, j.start, float(res[q]))))
    others = np.flatnonzero(at_start & (src != user[k]))
    if others.size:
        _, first, group = np.unique(k[others] * n + src[others], return_index=True, return_inverse=True)
        sent = sum_by(group, bits[others], len(first))
        for g in np.flatnonzero(sent > flow_tol[k[others[first]]]).tolist():
            i = others[first[g]]
            j = demands.demands[k[i]]
            violation = Violation(j.id, "source_balance", table.nodes[src[i]], j.start, float(sent[g]))
            found.append(((int(k[i]), 1, int(i)), violation))

    # arrival: the bits into base stations within the lifetime, added in entry order
    arriving = np.flatnonzero(dst >= table.n_users)
    res = sum_by(k[arriving], bits[arriving], n_demands) - d.volume
    for q in np.flatnonzero(np.abs(res) > vol_tol).tolist():
        j = demands.demands[q]
        found.append(((q, 2), Violation(j.id, "arrival", None, j.end, float(res[q]))))

    # conservation: what (user, t) receives it sends on in t + 1, for t in [start, end)
    into = (slot < end) & (dst < table.n_users)
    out_of = slot > start
    span = int(d.end.max(initial=0)) + 2
    keys = np.concatenate(
        [
            (k[into] * n + dst[into]) * span + slot[into],
            (k[out_of] * n + src[out_of]) * span + slot[out_of] - 1,
        ]
    )
    cells, cell_of = np.unique(keys, return_inverse=True)
    n_in = int(into.sum())
    res = sum_by(cell_of[:n_in], bits[into], len(cells)) - sum_by(
        cell_of[n_in:], bits[out_of], len(cells)
    )
    cell_k = cells // span // n
    bad = np.flatnonzero(np.abs(res) > flow_tol[cell_k])
    for c in bad.tolist():
        q, t = int(cell_k[c]), int(cells[c] % span)
        name = table.nodes[cells[c] // span % n]
        violation = Violation(demands.demands[q].id, "conservation", name, t, float(res[c]))
        found.append(((q, 3, name, t), violation))
    found.sort(key=lambda item: item[0])
    return ValidationReport(tuple(violations) + tuple(v for _, v in found))


# ---------------------------------------------------------------------------
# Volumes, per-slot loads, spectrum results, metrics
# ---------------------------------------------------------------------------


def compute_volumes(schedule: Schedule, topology: Topology) -> tuple[Number, Number]:
    """Total D2D traffic and total user-to-BS traffic moved by a schedule (bits).

    Each total adds its entries' bits in entry order.
    """
    real = schedule.select(schedule.src != schedule.dst)
    bits = real.value * _entry_rates(real, topology)
    at = node_positions(real.nodes, topology)
    n_users = topology.arrays.n_users
    into_user = at[real.dst] < n_users
    return _total(bits[into_user & (at[real.src] < n_users)]), _total(bits[~into_user])


def billed_slots(
    schedule: Schedule, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (BS, slot) pairs a schedule's real entries are billed to (``slot_loads``).

    Returns the real (not self-link) entries, each one's pair as a position
    in the pairs, and the pairs' BSs (positions in ``topology.bs_ids``) and
    slots, sorted by BS id, then slot.
    """
    table = topology.arrays
    real = np.flatnonzero(schedule.src != schedule.dst)
    receiver = node_positions(schedule.nodes, topology)[schedule.dst[real]]
    if (receiver < 0).any():
        unknown = schedule.nodes[schedule.dst[real[np.argmin(receiver)]]]
        raise ModelError(f"unknown node {unknown!r}")
    slot = schedule.slot[real]
    first = int(slot.min(initial=0))
    span = int(slot.max(initial=0)) - first + 1
    keys, key_of = np.unique(
        table.bs_rank[table.billed[receiver]] * span + (slot - first), return_inverse=True
    )
    return real, key_of, table.bs_by_name[keys // span], keys % span + first


def slot_loads(schedule: Schedule, topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectrum billed to each (BS, slot) under the receiver-takeover rule, as arrays.

    Uplink transmissions into a BS are billed to that BS; D2D transmissions
    are billed to the receiving user's BS; self-links cost nothing.  Returns
    (BS as a position in ``topology.bs_ids``, slot, load) of every billed
    (BS, slot), sorted by BS id, then slot; each load adds its entries in
    entry order.
    """
    real, pair, bs, slot = billed_slots(schedule, topology)
    return bs, slot, sum_by(pair, schedule.value[real], len(bs))


def per_slot_loads(
    schedule: Schedule, topology: Topology
) -> dict[tuple[str, int], Number]:
    """``slot_loads`` as a map (BS id, slot) -> load."""
    bs, slot, load = slot_loads(schedule, topology)
    ids = topology.bs_ids
    return {(ids[b], t): x for b, t, x in zip(bs.tolist(), slot.tolist(), load.tolist())}


@dataclass(frozen=True)
class SpectrumResult:
    """Per-BS peak spectrum and its sum."""

    per_bs_peak: Mapping[str, Number]
    total: Number


@dataclass(frozen=True)
class Metrics:
    spectrum_reduction: Number  # (F_nd - F_d2d) / F_nd
    overhead_ratio: Number  # v_d2d / (v_d2d + v_bs)


def compute_metrics(
    f_nd: Number, f_d2d: Number, v_d2d: Number, v_bs: Number
) -> Metrics:
    """Benefit and cost of D2D load balancing from totals and volumes."""
    if f_nd == 0:
        raise ModelError("spectrum reduction undefined: no-D2D total is zero")
    if v_d2d + v_bs == 0:
        raise ModelError("overhead ratio undefined: no traffic moved")
    rho = (f_nd - f_d2d) / f_nd
    eta = v_d2d / (v_d2d + v_bs)
    return Metrics(rho, eta)


# ---------------------------------------------------------------------------
# BS-level D2D communication graph and link-rate discrepancy parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class D2DCommGraph:
    """BS-level graph with an edge (b, b') when some inter-cell D2D link
    goes from a user of b to a user of b'."""

    edges: frozenset[tuple[str, str]]
    in_degree: Mapping[str, int]
    max_in_degree: int


def build_d2d_comm_graph(topology: Topology) -> D2DCommGraph:
    user_set = set(topology.user_ids)
    edges = set()
    for (u, v), _rate in topology.rate_map.items():
        if v in user_set:
            bu, bv = topology.home_bs[u], topology.home_bs[v]
            if bu != bv:
                edges.add((bu, bv))
    in_deg = {b: 0 for b in topology.bs_ids}
    for _, b2 in edges:
        in_deg[b2] += 1
    return D2DCommGraph(
        edges=frozenset(edges),
        in_degree=in_deg,
        max_in_degree=max(in_deg.values(), default=0),
    )


@dataclass(frozen=True)
class DiscrepancyParams:
    """Maxima of D2D-to-uplink rate ratios, per user, cell, and cell pair.

    Every entry is a max of R(s, v) / R(s, home(s)) over D2D links (s, v);
    maxima over empty candidate sets are 0.
    """

    per_user_intra: Mapping[str, float]  # over intra-cell D2D links of s
    per_user_to_cell: Mapping[tuple[str, str], float]  # over links of s into users of b
    per_cell_intra: Mapping[str, float]
    per_cell_pair: Mapping[tuple[str, str], float]
    intra_max: float
    inter_max: float  # over edges of the D2D communication graph


def discrepancy_params(topology: Topology) -> DiscrepancyParams:
    user_set = set(topology.user_ids)
    for u in topology.user_ids:
        if (u, topology.home_bs[u]) not in topology.rate_map:
            raise ModelError(f"user {u!r} has no direct link to its home BS")
    home = topology.home_bs
    per_user_intra = dict.fromkeys(topology.user_ids, 0.0)
    per_user_to_cell = {(s, b): 0.0 for s in topology.user_ids for b in topology.bs_ids}
    for (s, v), rate in topology.rate_map.items():
        if v not in user_set:
            continue
        ratio = float(rate) / float(topology.rate_map[(s, home[s])])
        per_user_to_cell[(s, home[v])] = max(per_user_to_cell[(s, home[v])], ratio)
        if home[v] == home[s]:
            per_user_intra[s] = max(per_user_intra[s], ratio)
    per_cell_intra = {
        b: max((per_user_intra[s] for s in topology.users_of(b)), default=0.0)
        for b in topology.bs_ids
    }
    per_cell_pair = {
        (b, b2): max((per_user_to_cell[(s, b2)] for s in topology.users_of(b)), default=0.0)
        for b in topology.bs_ids
        for b2 in topology.bs_ids
    }
    comm = build_d2d_comm_graph(topology)
    intra_max = max(per_cell_intra.values(), default=0.0)
    inter_max = max((per_cell_pair[e] for e in comm.edges), default=0.0)
    return DiscrepancyParams(
        per_user_intra=per_user_intra,
        per_user_to_cell=per_user_to_cell,
        per_cell_intra=per_cell_intra,
        per_cell_pair=per_cell_pair,
        intra_max=intra_max,
        inter_max=inter_max,
    )
