"""Domain model: cellular topology, delay-constrained demands, schedules, metrics.

Conventions used throughout the package:
  * slots are 1-indexed integers in [1, T];
  * spectrum is in Hz, traffic volume in bits, link rates in bits/slot/Hz;
  * a transmission of x Hz on link (u, v) in one slot moves x * rate(u, v) bits;
  * self-links (u, u) have rate 1 and represent traffic stored at a node for
    one slot; they never consume spectrum.

All types are plain immutable-by-convention dataclasses; every operation in
this module is a pure function.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

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
    conserve the volume, and by the no-D2D stage when its EDF witness misses
    a deadline at the capacity the interval search proved sufficient.
    """


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """Directed uplink network of base stations, users and wireless links.

    ``links`` holds directed edges (src_user, dst_node, rate) where dst is a
    user (D2D link) or a base station (uplink).  Self-links are implicit and
    never listed here.
    """

    bs_ids: tuple[str, ...]
    user_ids: tuple[str, ...]
    home_bs: Mapping[str, str]
    links: tuple[tuple[str, str, Number], ...]
    positions: Mapping[str, tuple[float, float]] | None = None

    # derived lookups, filled in __post_init__
    rate_map: dict[tuple[str, str], Number] = field(default_factory=dict, repr=False)
    out_neighbors: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)
    in_neighbors: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)
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
        rate_map: dict[tuple[str, str], Number] = {}
        outs: dict[str, list[str]] = {v: [] for v in self.all_nodes()}
        ins: dict[str, list[str]] = {v: [] for v in self.all_nodes()}
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
            outs[src].append(dst)
            ins[dst].append(src)
        object.__setattr__(self, "rate_map", rate_map)
        object.__setattr__(self, "out_neighbors", {v: tuple(ns) for v, ns in outs.items()})
        object.__setattr__(self, "in_neighbors", {v: tuple(ns) for v, ns in ins.items()})
        object.__setattr__(self, "bs_set", frozenset(bs_set))

    def all_nodes(self) -> tuple[str, ...]:
        return tuple(self.user_ids) + tuple(self.bs_ids)

    def is_bs(self, node: str) -> bool:
        return node in self.bs_set

    def rate(self, src: str, dst: str) -> Number:
        """Rate of link (src, dst); self-links have rate 1 by definition."""
        if src == dst:
            return 1
        try:
            return self.rate_map[(src, dst)]
        except KeyError:
            raise ModelError(f"no link ({src!r}, {dst!r})") from None

    def has_link(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) in self.rate_map

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
        users = set(topology.user_ids)
        for j in self.demands:
            if j.user not in users:
                raise ModelError(f"demand {j.id}: unknown user {j.user!r}")

    @property
    def max_delay(self) -> int:
        if not self.demands:
            return 1
        return max(j.delay for j in self.demands)

    @property
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


@dataclass(frozen=True)
class Schedule:
    """Sparse allocation map (demand, src, dst, slot) -> spectrum in Hz.

    Entries with src == dst are virtual self-links: the value is traffic
    stored at the node during the slot (rate 1, no spectrum cost).
    """

    allocations: Mapping[tuple[int, str, str, int], Number]

    def __len__(self) -> int:
        return len(self.allocations)

    def merged_with(self, other: "Schedule") -> "Schedule":
        merged = dict(self.allocations)
        for key, x in other.allocations.items():
            merged[key] = merged.get(key, 0) + x
        return Schedule(merged)

    def to_csv(self, path: str, topology: Topology, header_lines: Iterable[str] = ()) -> None:
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(["demand", "src", "dst", "slot", "spectrum", "bits"])
            for (j, u, v, t), x in sorted(self.allocations.items()):
                writer.writerow([j, u, v, t, repr(float(x)), repr(float(x * topology.rate(u, v)))])

    @staticmethod
    def from_csv(path: str) -> "Schedule":
        alloc: dict[tuple[int, str, str, int], float] = {}
        with open(path, newline="") as fh:
            rows = (line for line in fh if not line.startswith("#"))
            reader = csv.DictReader(rows)
            for row in reader:
                key = (int(row["demand"]), row["src"], row["dst"], int(row["slot"]))
                alloc[key] = alloc.get(key, 0.0) + float(row["spectrum"])
        return Schedule(alloc)


def fill_storage(
    schedule: Schedule, topology: Topology, demands: DemandSet
) -> Schedule:
    """Complete a schedule of real-link transmissions with self-link storage.

    Self-link values are the unique ones making per-node flow conservation
    hold, given the real transmissions.  Raises FlowResidualError if
    conservation would need negative storage, and ModelError if a non-source
    node transmits at the demand's start slot or a user still holds volume
    at the deadline.
    """
    by_demand: dict[int, dict[tuple[str, str, int], Number]] = {}
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue  # recomputed below
        by_demand.setdefault(j, {})[(u, v, t)] = x
    out: dict[tuple[int, str, str, int], Number] = {}
    user_set = set(topology.user_ids)
    for j in demands.demands:
        entries = by_demand.get(j.id, {})
        for (u, v, t), x in entries.items():
            out[(j.id, u, v, t)] = x
        # bits sent/received per node per slot
        sent: dict[tuple[str, int], Number] = {}
        received: dict[tuple[str, int], Number] = {}
        for (u, v, t), x in entries.items():
            bits = x * topology.rate(u, v)
            sent[(u, t)] = sent.get((u, t), 0) + bits
            received[(v, t)] = received.get((v, t), 0) + bits
        nodes = {u for (u, _, _) in entries} | {v for (_, v, _) in entries} | {j.user}
        for node in nodes:
            if node != j.user and sent.get((node, j.start), 0) > 0:
                raise ModelError(
                    f"demand {j.id}: node {node!r} transmits at start slot {j.start}"
                    " but only the source holds the data then"
                )
        for node in nodes:
            store_prev = j.volume - sent.get((node, j.start), 0) if node == j.user else 0
            if store_prev < -FLOW_ABS_TOL * max(1.0, float(j.volume)):
                raise FlowResidualError(
                    f"demand {j.id}: source sends more than its volume at start"
                )
            store_prev = max(store_prev, 0)
            if store_prev > 0:
                out[(j.id, node, node, j.start)] = store_prev
            for t in range(j.start + 1, j.end + 1):
                store_t = store_prev + received.get((node, t - 1), 0) - sent.get((node, t), 0)
                if store_t < -FLOW_ABS_TOL * max(1.0, float(j.volume)):
                    raise FlowResidualError(
                        f"demand {j.id}: node {node!r} slot {t}: sends more than it holds"
                    )
                store_t = max(store_t, 0)
                if store_t > 0:
                    out[(j.id, node, node, t)] = store_t
                store_prev = store_t
            # users must not hold volume at the deadline; BS storage is delivery
            if node in user_set and store_prev > FLOW_ABS_TOL * max(1.0, float(j.volume)):
                raise ModelError(
                    f"demand {j.id}: user {node!r} still holds {store_prev} at deadline"
                )
    return Schedule(out)


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
    volume_rel_tol: float = VOLUME_REL_TOL,
) -> ValidationReport:
    """Check a schedule against the traffic-scheduling-policy constraints.

    Per demand: full volume leaves the source at its start slot, full volume
    reaches base stations at its deadline, flow is conserved at every node in
    every intermediate slot, and all allocations are nonnegative.  Violations
    are reported with residuals, never raised.
    """
    violations: list[Violation] = []
    demand_map = {j.id: j for j in demands.demands}
    by_demand: dict[int, list[tuple[str, str, int, Number]]] = {}
    for (jid, u, v, t), x in schedule.allocations.items():
        if jid not in demand_map:
            violations.append(Violation(jid, "unknown_demand", None, t, float(x)))
            continue
        j = demand_map[jid]
        if not topology.has_link(u, v):
            violations.append(Violation(jid, "unknown_link", f"{u}->{v}", t, float(x)))
            continue
        if x < -flow_abs_tol:
            violations.append(Violation(jid, "negative", f"{u}->{v}", t, float(x)))
        if not (j.start <= t <= j.end):
            violations.append(Violation(jid, "lifetime", f"{u}->{v}", t, float(x)))
            continue
        by_demand.setdefault(jid, []).append((u, v, t, x))

    bs_set = set(topology.bs_ids)
    for j in demands.demands:
        jid = j.id
        entries = by_demand.get(jid, [])
        vol_tol = max(flow_abs_tol, volume_rel_tol * float(j.volume))
        flow_tol = flow_abs_tol * max(1.0, float(j.volume))
        inflow: dict[tuple[str, int], Number] = {}
        outflow: dict[tuple[str, int], Number] = {}
        for u, v, t, x in entries:
            bits = x * topology.rate(u, v)
            outflow[(u, t)] = outflow.get((u, t), 0) + bits
            inflow[(v, t)] = inflow.get((v, t), 0) + bits
        # source balance at the start slot
        res = float(outflow.get((j.user, j.start), 0) - j.volume)
        if abs(res) > vol_tol:
            violations.append(Violation(jid, "source_balance", j.user, j.start, res))
        # nothing emanates from other nodes at the start slot
        for (u, t), bits in outflow.items():
            if t == j.start and u != j.user and bits > flow_tol:
                violations.append(Violation(jid, "source_balance", u, t, float(bits)))
        # arrival at base stations at the deadline
        arrived = sum(bits for (v, t), bits in inflow.items() if t == j.end and v in bs_set)
        res = float(arrived - j.volume)
        if abs(res) > vol_tol:
            violations.append(Violation(jid, "arrival", None, j.end, res))
        # per-node conservation on the time-expanded graph
        nodes = {u for (u, _) in inflow} | {u for (u, _) in outflow}
        for node in sorted(nodes):
            for t in range(j.start, j.end):
                res = float(inflow.get((node, t), 0) - outflow.get((node, t + 1), 0))
                if abs(res) > flow_tol:
                    violations.append(Violation(jid, "conservation", node, t, res))
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# Volumes, per-slot loads, spectrum results, metrics
# ---------------------------------------------------------------------------


def compute_volumes(schedule: Schedule, topology: Topology) -> tuple[Number, Number]:
    """Total D2D traffic and total user-to-BS traffic moved by a schedule (bits)."""
    user_set = set(topology.user_ids)
    bs_set = set(topology.bs_ids)
    v_d2d: Number = 0
    v_bs: Number = 0
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue
        bits = x * topology.rate(u, v)
        if u in user_set and v in user_set:
            v_d2d += bits
        elif v in bs_set:
            v_bs += bits
    return v_d2d, v_bs


def per_slot_loads(
    schedule: Schedule, topology: Topology
) -> dict[tuple[str, int], Number]:
    """Spectrum billed to each (BS, slot) under the receiver-takeover rule.

    Uplink transmissions into a BS are billed to that BS; D2D transmissions
    are billed to the receiving user's BS; self-links cost nothing.
    """
    user_set = set(topology.user_ids)
    loads: dict[tuple[str, int], Number] = {}
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue
        bs = topology.home_bs[v] if v in user_set else v
        loads[(bs, t)] = loads.get((bs, t), 0) + x
    return loads


def split_loads(
    schedule: Schedule, topology: Topology
) -> tuple[dict[tuple[str, int], Number], dict[tuple[str, int], Number]]:
    """Per-(BS, slot) uplink load (into the BS) and D2D load (into its users)."""
    user_set = set(topology.user_ids)
    uplink: dict[tuple[str, int], Number] = {}
    d2d: dict[tuple[str, int], Number] = {}
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue
        if v in user_set:
            key = (topology.home_bs[v], t)
            d2d[key] = d2d.get(key, 0) + x
        else:
            key = (v, t)
            uplink[key] = uplink.get(key, 0) + x
    return uplink, d2d


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
    per_user_intra: dict[str, float] = {}
    per_user_to_cell: dict[tuple[str, str], float] = {}
    for s in topology.user_ids:
        denom = float(topology.rate_map[(s, topology.home_bs[s])])
        intra = 0.0
        to_cell: dict[str, float] = {}
        for v in topology.out_neighbors.get(s, ()):
            if v not in user_set:
                continue
            ratio = float(topology.rate_map[(s, v)]) / denom
            bv = topology.home_bs[v]
            to_cell[bv] = max(to_cell.get(bv, 0.0), ratio)
            if bv == topology.home_bs[s]:
                intra = max(intra, ratio)
        per_user_intra[s] = intra
        for b in topology.bs_ids:
            per_user_to_cell[(s, b)] = to_cell.get(b, 0.0)
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
