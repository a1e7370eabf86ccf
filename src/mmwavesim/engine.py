"""TTI-stepped simulation of one mmWave cell.

Each TTI runs these stages in order: packet arrivals; mobility (every
`move_interval_ttis` TTIs, or the rows of a position trace); the
geometry stage, which clusters the positions the base station believes
in, points beams at the cluster centroids, and evaluates coverage and
every (beam, member) link; per-beam RBG scheduling by the DQN agents;
serving, which drains the queues with the allocated bits; and learning
(agent training and target sync at their intervals). Coverage and links
are always evaluated against the TRUE positions; scheduling and beam
pointing only ever see the reported ones, which is what makes
localization error costly.

The geometry stage is event-driven: its inputs are the positions and
the warm-start centers, so it is recomputed only at a movement event or
while clustering has not reached a fixed point, and every other TTI
reuses the previous result (exactly, as clustering draws no random
numbers). Scheduling reuses the agents' LSTM rollouts and greedy picks
of earlier TTIs in the same geometry while the weights are unchanged, and
builds only the replay experiences that a training sample can read.

Scenarios differ only in the (N, 2) array the clustering step consumes:
the true positions, the distorted reported positions, or the means of
the reported uncertainty PDFs, whose spread (expected-distance
clustering) shifts only the objective.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .agent import (
    AgentConfig,
    AgentStack,
    DqnAgent,
    ExperienceTuple,
    RolloutMemo,
    UserClass,
    encode_state,
    reward,
)
from .beams import (
    DB_LIMIT,
    AntennaConfig,
    compute_sinr,
    coverage_rate,
    form_beams,
    rbg_rate,
    sinr_to_cqi,
)
from .clustering import ClusteringConfig, InitStrategy, run_clustering
from .errors import ConfigError
from .fields import check_fields, fmt, ranged, same_as, shared_values
from .geometry import Point2D, SampleBased, UncertainPoint, UniformDisk, moments, uniform_disk_point
from .seeding import derive_seed, make_rng
from .stats import confidence_interval
from .traffic import PacketQueue, generate_arrivals

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "TtiRecord",
    "RunSummary",
    "RunReport",
    "inject_error",
    "reported_center",
    "load_position_trace",
    "check_trace_ids",
    "ScenarioRun",
    "run_scenario",
    "mean_coverage",
    "write_per_tti_csv",
    "write_summary_csv",
    "SUMMARY_METRICS",
    "MIN_GNB_DISTANCE_M",
]

SUMMARY_METRICS = ("coverage_rate", "sum_rate_bps", "mean_delay_ttis")

# the closest a UE may be to the gNB (1 mm): a trace row closer is rejected,
# a random placement closer is drawn again
MIN_GNB_DISTANCE_M = 1e-3

# the most packets a UE may expect per TTI; numpy's Poisson draw fails near 9.2e18
MAX_ARRIVALS_PER_TTI = 1e4


class Scenario(Enum):
    KMEANS_ERROR = "kmeans_error"
    UKMEANS_ERROR = "ukmeans_error"
    KMEANS_EXACT = "kmeans_exact"


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's parameters. Each field's default and range is declared
    here or, for a field shared with a component config, on that config."""

    scenario: Scenario = Scenario.KMEANS_ERROR
    n_ues: int = ranged(6, lo=1)
    n_clusters: int = ranged(3, lo=1)
    n_beams: int = ranged(3, lo=1)
    beam_width_deg: float = ranged(20.0, lo=0.0, hi=180.0, closed=False)
    cell_radius_m: float = ranged(160.0, lo=1.0, hi=1e6)
    error_rmse_m: float = ranged(8.0, lo=0.0, hi=1e6)
    informative_pdf: bool = False
    tti_count: int = ranged(1400, lo=1)
    tti_duration_s: float = ranged(1.25e-4, lo=0.0, closed=False)
    move_interval_ttis: int = ranged(10, lo=1)
    qos_latency_ttis: int = ranged(8, lo=1)  # 1 ms at the default TTI duration
    qos_sinr_db: float = ranged(15.0, lo=-DB_LIMIT, hi=DB_LIMIT)
    runs: int = ranged(5, lo=1)
    master_seed: int = ranged(12345, lo=0)
    load_bps: float = ranged(2e6, lo=0.0)  # offered load per UE
    packet_size_bytes: int = ranged(32, lo=1)
    rbg_count: int = ranged(24, lo=1)
    gamma: float = same_as(AgentConfig, "gamma")
    epsilon: float = same_as(AgentConfig, "epsilon")
    nn_learning_rate: float = same_as(AgentConfig, "nn_learning_rate")
    hidden_units: int = same_as(AgentConfig, "hidden_units")
    minibatch: int = same_as(AgentConfig, "minibatch")
    replay_capacity: int = same_as(AgentConfig, "replay_capacity")
    train_interval_ttis: int = same_as(AgentConfig, "train_interval_ttis")
    target_copy_interval_ttis: int = same_as(AgentConfig, "target_copy_interval_ttis")
    cluster_max_iterations: int = same_as(ClusteringConfig, "max_iterations")
    cluster_convergence_epsilon: float = same_as(ClusteringConfig, "convergence_epsilon")
    cluster_init: InitStrategy = same_as(ClusteringConfig, "init_strategy")
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    trace_csv: str = ""

    def validate(self) -> None:
        check_fields(self)
        if self.n_clusters > self.n_ues:
            raise ConfigError("n_clusters cannot exceed n_ues", ("n_clusters", "n_ues"))
        if self.arrivals_per_tti > MAX_ARRIVALS_PER_TTI:
            raise ConfigError(
                f"the mean arrivals per UE and TTI cannot exceed {MAX_ARRIVALS_PER_TTI:g}; "
                f"load_bps, packet_size_bytes and tti_duration_s give {self.arrivals_per_tti:g}",
                ("load_bps", "tti_duration_s", "packet_size_bytes"),
            )
        self.agent_config(action_count=self.n_ues, seed=0)  # the agent's replay rule

    def agent_config(self, action_count: int, seed: int) -> AgentConfig:
        return AgentConfig(action_count=action_count, seed=seed, **shared_values(self, AgentConfig))

    def clustering_config(self, seed: int) -> ClusteringConfig:
        return ClusteringConfig(k=self.n_clusters, seed=seed, **shared_values(self, ClusteringConfig))

    @property
    def arrivals_per_tti(self) -> float:
        """The mean packet arrivals per UE and TTI."""
        return self.load_bps / (8 * self.packet_size_bytes) * self.tti_duration_s


class _Link(NamedTuple):
    """What scheduling one RBG of a beam to one of its members yields,
    apart from the reward (which reads the head-of-line delay)."""

    sinr_db: float
    bits: float  # RBG rate times the TTI duration
    cqi: int
    next_state: float
    sinr_ratio: float  # linear SINR over the QoS requirement


class _Geometry(NamedTuple):
    """The geometry stage's result for one set of positions; coverage-only
    runs leave the link fields None."""

    beams: list
    coverage: float
    mask: Optional[np.ndarray] = None  # (beam, UE): True for the beam's members
    masks: Optional[list] = None  # the rows of `mask` as tuples of bools
    feasible: Optional[list] = None  # per beam: its members' ids in ascending order
    links: Optional[list] = None  # per beam: {member id: _Link}
    memo: Optional[RolloutMemo] = None  # the schedule's LSTM rollouts


@dataclass
class TtiRecord:
    run: int
    tti: int
    coverage_rate: float
    delivered_bits: int
    mean_delay_ttis: float  # nan when nothing was delivered this TTI


@dataclass
class RunSummary:
    coverage_rate: float
    sum_rate_bps: float
    mean_delay_ttis: float
    delivered_bits: int


@dataclass
class RunReport:
    config: ScenarioConfig
    records: list  # one list of TtiRecord per run
    summaries: list  # one RunSummary per run
    aggregate: dict  # metric -> (mean, ci95_halfwidth)

    def summary_rows(self) -> list:
        """The aggregate as `scenario,metric,mean,ci95_halfwidth` rows."""
        rows = []
        for metric in SUMMARY_METRICS:
            mean, hw = self.aggregate[metric]
            rows.append(f"{self.config.scenario.value},{metric},{fmt(mean)},{fmt(hw)}")
        return rows


def inject_error(
    true_position: Point2D,
    error_rmse_m: float,
    rng: np.random.Generator,
    informative: bool = False,
) -> UncertainPoint:
    """Distort a true position and attach the matching uncertainty PDF.

    Disk mode: the reported center is the true position plus an offset
    drawn uniformly in a disk of radius R = rmse * sqrt(2), so the
    expected squared offset is R^2/2 = rmse^2; the PDF is that disk
    around the reported center.

    Informative mode (two-mode fixture): a ghost displacement g of
    magnitude rmse * sqrt(2) and uniform direction is drawn; with
    probability 1/2 the report lands on the ghost. The PDF holds both
    hypotheses, {reported, reported - g} at weight 1/2 each, with the
    reported location always first; the true position is one of the two
    modes, and the empirical RMSE of the report is again rmse. Exact
    clustering of the report ignores the ghost mode; expected-distance
    clustering exploits it.

    Both modes consume the same number of random draws, so scenarios
    sharing a seed see identical movement regardless of the mode.
    """
    if error_rmse_m < 0:
        raise ConfigError("error_rmse_m must be >= 0")
    r_err = error_rmse_m * math.sqrt(2.0)
    if not informative:
        center = uniform_disk_point(rng, r_err, true_position)
        return UncertainPoint(pdf=UniformDisk(center, r_err))
    ghosted = rng.random() < 0.5
    theta = rng.random() * 2.0 * math.pi
    gx = r_err * math.cos(theta)
    gy = r_err * math.sin(theta)
    if ghosted:
        rep = Point2D(true_position.x + gx, true_position.y + gy)
    else:
        rep = Point2D(true_position.x, true_position.y)
    alt = Point2D(rep.x - gx, rep.y - gy)
    return UncertainPoint(pdf=SampleBased((rep, alt), (0.5, 0.5)))


def reported_center(p: UncertainPoint) -> Point2D:
    """The raw reported location inside an injected PDF.

    UniformDisk reports its center; SampleBased PDFs built by
    `inject_error` keep the reported location as the first sample.
    """
    if isinstance(p.pdf, UniformDisk):
        return p.pdf.center
    return p.pdf.samples[0]


def load_position_trace(path):
    """Parse a `tti,ue_id,x_m,y_m` CSV into {tti: [(ue_id, Point2D), ...]}.

    Rows must be at TTIs >= 0, sorted by (tti, ue_id), and hold finite
    coordinates at least MIN_GNB_DISTANCE_M from the gNB at the origin
    (closer, the free-space path loss overflows and the SINR is not a
    number); TTIs without rows hold the last position; an unreadable file
    is a ConfigError.
    """
    trace = {}
    last = None
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    rdr = csv.reader(lines)
    header = next(rdr, None)
    if header is None or [h.strip() for h in header] != ["tti", "ue_id", "x_m", "y_m"]:
        raise ConfigError(f"{path}: expected header tti,ue_id,x_m,y_m")
    for lineno, row in enumerate(rdr, start=2):
        if not row:
            continue
        try:
            tti, ue_id = int(row[0]), int(row[1])
            x, y = float(row[2]), float(row[3])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: line {lineno}: malformed row {row}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(f"{path}: line {lineno}: non-finite position {row}")
        if math.hypot(x, y) < MIN_GNB_DISTANCE_M:
            raise ConfigError(
                f"{path}: line {lineno}: position is within {MIN_GNB_DISTANCE_M} m "
                f"of the gNB (0, 0)"
            )
        if tti < 0:
            raise ConfigError(f"{path}: line {lineno}: tti must be >= 0")
        key = (tti, ue_id)
        if last is not None and key <= last:
            raise ConfigError(f"{path}: line {lineno}: rows not sorted by (tti, ue_id)")
        last = key
        trace.setdefault(tti, []).append((ue_id, Point2D(x, y)))
    return trace


def check_trace_ids(trace: dict, cfg: ScenarioConfig) -> None:
    """Raise ConfigError if a row of `trace` holds a ue_id outside [0, n_ues)."""
    bad = sorted(uid for rows in trace.values() for uid, _ in rows if not 0 <= uid < cfg.n_ues)
    if bad:
        raise ConfigError(
            f"{cfg.trace_csv or 'position trace'}: ue_id {bad[0]} is outside [0, n_ues), "
            f"n_ues = {cfg.n_ues}"
        )


class ScenarioRun:
    """One seeded run of one scenario; `step` advances a single TTI.

    With coverage_only=True the traffic and DRL stages are skipped and
    the geometry stage builds no link tables, so the run reduces to
    movement, clustering, beam formation and coverage (the positions
    are identical to the full run under the same seed: random streams
    are stream-separated).

    `step` is meant for the TTIs 0 .. tti_count - 1: experiences that no
    training sample in that range can read are not pushed to replay.
    """

    def __init__(
        self,
        cfg: ScenarioConfig,
        run_seed: int,
        run_index: int = 0,
        trace: Optional[dict] = None,
        coverage_only: bool = False,
    ):
        cfg.validate()
        if trace is not None:
            check_trace_ids(trace, cfg)
        self.cfg = cfg
        self.run_index = run_index
        self.trace = trace
        self.coverage_only = coverage_only
        self.width_rad = math.radians(cfg.beam_width_deg)
        self.qos_sinr_lin = 10.0 ** (cfg.qos_sinr_db / 10.0)

        self.move_rng = make_rng(derive_seed(run_seed, 1))
        self.error_rng = make_rng(derive_seed(run_seed, 2))
        self.clustering = cfg.clustering_config(seed=derive_seed(run_seed, 3))
        self.traffic_rngs = [make_rng(derive_seed(run_seed, 100 + u)) for u in range(cfg.n_ues)]

        # per UE, by id: the true position, the position this scenario
        # clusters and its spread (see `_place`), the class and the queue
        self.true_xy = np.empty((cfg.n_ues, 2))
        exact = cfg.scenario is Scenario.KMEANS_EXACT
        self.believed_xy = self.true_xy if exact else np.empty((cfg.n_ues, 2))
        self.spreads = [0.0] * cfg.n_ues
        self.classes = [UserClass.URLLC if u % 2 == 0 else UserClass.EMBB for u in range(cfg.n_ues)]
        self.queues = [PacketQueue(8 * cfg.packet_size_bytes) for _ in range(cfg.n_ues)]
        for u in range(cfg.n_ues):
            self._place(u, self._random_position())

        if coverage_only:
            self.agents = []
        else:
            self.agents = [
                DqnAgent(cfg.agent_config(action_count=cfg.n_ues, seed=derive_seed(run_seed, 200 + b)))
                for b in range(cfg.n_beams)
            ]
            self.stack = AgentStack(self.agents)
        self.prev_centers = None  # the warm start of the next clustering call
        self._fixed_point = False  # whether the last call returned its warm start
        self.geometry: Optional[_Geometry] = None  # the geometry stage's last result

    def _random_position(self) -> Point2D:
        """An area-uniform point of the cell from `move_rng`, both of its
        draws taken again while it is closer than MIN_GNB_DISTANCE_M to the
        gNB (at the gNB the path loss is not finite)."""
        while True:
            pos = uniform_disk_point(self.move_rng, self.cfg.cell_radius_m)
            if math.hypot(pos.x, pos.y) >= MIN_GNB_DISTANCE_M:
                return pos

    def _place(self, u: int, pos: Point2D) -> None:
        """Move UE u to `pos` and, unless this scenario clusters the true
        position (`believed_xy` is `true_xy`), draw its report. The row
        then clustered is the reported center, or the PDF mean with the
        PDF's spread."""
        self.true_xy[u] = pos.x, pos.y
        if self.believed_xy is self.true_xy:
            return
        cfg = self.cfg
        report = inject_error(pos, cfg.error_rmse_m, self.error_rng, informative=cfg.informative_pdf)
        if cfg.scenario is Scenario.UKMEANS_ERROR:
            means, self.spreads[u] = moments([report])
            self.believed_xy[u] = means[0]
        else:
            center = reported_center(report)
            self.believed_xy[u] = center.x, center.y

    def _arrivals(self, t: int) -> None:
        mean = self.cfg.arrivals_per_tti
        for queue, rng in zip(self.queues, self.traffic_rngs):
            for _ in range(generate_arrivals(mean, rng)):
                queue.push(t)

    def _mobility(self, t: int) -> bool:
        """Apply this TTI's movement event, if any: the trace rows at `t`,
        or a redraw of every UE each `move_interval_ttis` TTIs. Moved UEs
        get a new report. Returns whether any UE moved."""
        if self.trace is not None:
            rows = self.trace.get(t, ())
            for ue_id, pos in rows:
                self._place(ue_id, pos)
            return bool(rows)
        if t == 0 or t % self.cfg.move_interval_ttis:
            return False
        for u in range(self.cfg.n_ues):
            self._place(u, self._random_position())
        return True

    def _geometry(self, moved: bool) -> _Geometry:
        """Clustering, beam formation, coverage and the link tables.

        The clustering call is a deterministic function of the positions
        and its warm-start centers, and everything after it is a function
        of its result and the true positions. So the previous TTI's
        result is returned as is unless a UE moved, or the previous call
        did not end at a fixed point (its output centers, the next call's
        warm start, differ from the centers it started from).
        """
        if self._fixed_point and not moved:
            return self.geometry
        cfg = self.cfg
        result = run_clustering(
            self.believed_xy, self.clustering, self.prev_centers, spread=sum(self.spreads)
        )
        self._fixed_point = result.centers == self.prev_centers
        self.prev_centers = result.centers
        beams = form_beams(
            result.centers, self.width_rad, cfg.n_beams, self.believed_xy, result.labels
        )
        cov = coverage_rate(beams, self.true_xy, cfg.cell_radius_m)
        if self.coverage_only:
            self.geometry = _Geometry(beams, cov)
        else:
            mask, masks, feasible, links = self._links(beams)
            states = [{uid: link.next_state for uid, link in table.items()} for table in links]
            # a fresh memo: its nodes are keyed by states this geometry's links give
            memo = RolloutMemo(self.stack, mask, states)
            self.geometry = _Geometry(beams, cov, mask, masks, feasible, links, memo)
        return self.geometry

    def _links(self, beams):
        """The (beam, UE) action mask, its rows as tuples, each beam's member ids
        and per beam the `_Link` of an RBG to each member; the gNB is at the origin."""
        cfg = self.cfg
        xy = self.true_xy.tolist()
        links = []
        mask = np.zeros((len(beams), cfg.n_ues), dtype=bool)
        for b, beam in enumerate(beams):
            others = beams[:b] + beams[b + 1 :]
            table = {}
            for uid in sorted(beam.members):
                x, y = xy[uid]
                sdb = compute_sinr(math.atan2(y, x), math.hypot(x, y), beam, others, cfg.antenna)
                mask[b, uid] = True
                cqi = sinr_to_cqi(sdb)
                table[uid] = _Link(
                    sinr_db=sdb,
                    bits=rbg_rate(sdb, cfg.antenna) * cfg.tti_duration_s,
                    cqi=cqi,
                    next_state=encode_state(cqi),
                    sinr_ratio=(10.0 ** (sdb / 10.0)) / self.qos_sinr_lin,
                )
            links.append(table)
        return mask, [tuple(row) for row in mask.tolist()], [tuple(t) for t in links], links

    def _first_replayed(self, t: int) -> int:
        """Index of the first of this TTI's experiences, per agent, that a
        replay sample can read; the ones before it need not be pushed.

        Training samples at the TTIs T > 0 with T % train_interval_ttis
        == 0 below tti_count. Of the R = rbg_count experiences of TTI t,
        experience j is followed by R - 1 - j pushes in TTI t and R in
        each TTI up to the next such T, so the first sample that could
        read it finds it evicted unless (R - 1 - j) + (T - t) R <
        replay_capacity, and later samples find it further back still.
        """
        cfg = self.cfg
        interval, rbgs = cfg.train_interval_ttis, cfg.rbg_count
        train_t = max(1, -(-t // interval)) * interval  # the next T >= t
        if train_t >= cfg.tti_count:
            return rbgs
        return max(0, (train_t - t + 1) * rbgs - cfg.replay_capacity)

    def _schedule(self, t: int, geo: _Geometry):
        """Every beam's agent picks one member UE per RBG.

        All agents advance together, one RBG per step of the geometry's
        `RolloutMemo` (which runs `AgentStack.forward` and `greedy` only for
        states not seen since the weights last changed) and one
        `AgentStack.explore`. The links are fixed by the geometry and the
        head-of-line delay cannot change before service, so each (beam,
        member)'s reward is computed once. Budgets, rewards and
        experiences are then accumulated beam by beam, RBG by RBG, so
        every float sum and replay order is that of scheduling one beam
        after the other; only the experiences a replay sample can read
        are built (see `_first_replayed`). Returns the per-UE bit budgets,
        the per-beam allocations and the rewards in that order.
        """
        cfg = self.cfg
        rewards = []
        for table in geo.links:
            row = {}
            for uid, link in table.items():
                delay_ratio = cfg.qos_latency_ttis / self.queues[uid].head_of_line_delay(t)
                row[uid] = reward(self.classes[uid], link.sinr_ratio, delay_ratio)
            rewards.append(row)

        first_states = tuple(encode_state(agent.last_cqi) for agent in self.agents)
        states, node = first_states, geo.memo.root
        steps = []  # per RBG: the actions and the carry they were picked in
        for _ in range(cfg.rbg_count):
            child = geo.memo.step(node, states)
            actions = self.stack.explore(child.greedy, geo.feasible)
            steps.append((actions, node.carry))
            states = child.greedy_states if actions is child.greedy else geo.memo.states(actions)
            node = child

        budgets = {}
        allocations = []
        rewards_seen = []
        first_replayed = self._first_replayed(t)
        for b, agent in enumerate(self.agents):
            state = first_states[b]
            beam_alloc = []
            for j, (actions, (h, c)) in enumerate(steps):
                action = actions[b]
                link, r = geo.links[b][action], rewards[b][action]
                budgets[action] = budgets.get(action, 0.0) + link.bits
                if j >= first_replayed:
                    agent.remember(
                        ExperienceTuple(
                            state=state,
                            action=action,
                            next_state=link.next_state,
                            reward=r,
                            hidden_context=(h[b], c[b]),
                            action_mask=geo.masks[b],
                        )
                    )
                rewards_seen.append(r)
                beam_alloc.append(action)
                state = link.next_state
            agent.last_cqi = link.cqi
            allocations.append(beam_alloc)
        return budgets, allocations, rewards_seen

    def _serve(self, t: int, budgets: dict):
        """Drain each scheduled UE's queue with its bit budget, in UE order.
        Returns the bits delivered and every delivered packet's delay."""
        delays = []
        for uid in sorted(budgets):
            delays += self.queues[uid].serve(budgets[uid], t)
        return len(delays) * 8 * self.cfg.packet_size_bytes, delays

    def _learn(self, t: int, geo: _Geometry) -> None:
        """Train at the train interval (which makes the memo's rollouts
        stale) and copy to the target networks at the sync interval."""
        cfg = self.cfg
        if t > 0 and t % cfg.train_interval_ttis == 0:
            for agent in self.agents:
                agent.train()
            geo.memo.clear()
        if t > 0 and t % cfg.target_copy_interval_ttis == 0:
            for agent in self.agents:
                agent.sync()

    def step(self, t: int) -> TtiRecord:
        if self.coverage_only:
            geo = self._geometry(self._mobility(t))
            return TtiRecord(self.run_index, t, geo.coverage, 0, float("nan"))
        self._arrivals(t)
        geo = self._geometry(self._mobility(t))
        budgets, _, _ = self._schedule(t, geo)
        delivered_bits, delays = self._serve(t, budgets)
        self._learn(t, geo)
        # the delays are ints, so this equals float(np.mean(delays)) bit for bit
        mean_delay = sum(delays) / len(delays) if delays else float("nan")
        return TtiRecord(self.run_index, t, geo.coverage, delivered_bits, mean_delay)

    def run(self):
        records = [self.step(t) for t in range(self.cfg.tti_count)]
        return records, self.summary(records)

    def summary(self, records) -> RunSummary:
        cfg = self.cfg
        delivered = sum(r.delivered_bits for r in records)
        delay_sum = sum(q.delivered_delay_sum for q in self.queues)
        delay_n = sum(q.delivered_packets for q in self.queues)
        return RunSummary(
            coverage_rate=float(np.mean([r.coverage_rate for r in records])),
            sum_rate_bps=delivered / (cfg.tti_count * cfg.tti_duration_s),
            mean_delay_ttis=(delay_sum / delay_n) if delay_n else float("nan"),
            delivered_bits=delivered,
        )


def _scenario_runs(cfg: ScenarioConfig, count: int, trace=None, coverage_only=False):
    """Runs 0 .. count - 1 of `cfg`, built one at a time: run i uses the
    seed derive_seed(master_seed, i) and `trace`, or else cfg.trace_csv
    loaded once."""
    cfg.validate()
    if trace is None and cfg.trace_csv:
        trace = load_position_trace(cfg.trace_csv)
    for i in range(count):
        yield ScenarioRun(
            cfg, derive_seed(cfg.master_seed, i), i, trace=trace, coverage_only=coverage_only
        )


def run_scenario(cfg: ScenarioConfig, trace: Optional[dict] = None) -> RunReport:
    """Execute cfg.runs independent runs and aggregate their metrics.

    Run i uses the seed derive_seed(master_seed, i); the report is fully
    determined by (cfg, master_seed). Aggregates carry the mean and the
    95% Student-t half-width (nan for a single run). `trace` is the
    already loaded `cfg.trace_csv`; when None the file is loaded here.
    """
    records = []
    summaries = []
    for run in _scenario_runs(cfg, cfg.runs, trace):
        recs, summ = run.run()
        records.append(recs)
        summaries.append(summ)
    aggregate = {}
    for metric in SUMMARY_METRICS:
        values = [getattr(s, metric) for s in summaries]
        aggregate[metric] = confidence_interval(values)
    return RunReport(config=cfg, records=records, summaries=summaries, aggregate=aggregate)


def mean_coverage(cfg: ScenarioConfig) -> float:
    """Mean per-TTI coverage of run 0, skipping traffic and DRL."""
    (run,) = _scenario_runs(cfg, 1, coverage_only=True)
    return run.run()[1].coverage_rate


def write_per_tti_csv(report: RunReport, path) -> None:
    """One row per (run, tti): run,tti,coverage_rate,delivered_bits,mean_delay_ttis."""
    with open(path, "w", newline="") as fh:
        fh.write("run,tti,coverage_rate,delivered_bits,mean_delay_ttis\n")
        for recs in report.records:
            for r in recs:
                fh.write(
                    f"{r.run},{r.tti},{fmt(r.coverage_rate)},"
                    f"{r.delivered_bits},{fmt(r.mean_delay_ttis)}\n"
                )


def write_summary_csv(report: RunReport, path) -> None:
    """Aggregate rows: scenario,metric,mean,ci95_halfwidth."""
    with open(path, "w", newline="") as fh:
        fh.write("scenario,metric,mean,ci95_halfwidth\n")
        for row in report.summary_rows():
            fh.write(row + "\n")
