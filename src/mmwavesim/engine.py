"""TTI-stepped simulation of one mmWave cell.

Each TTI runs these stages in order: mobility (every
`move_interval_ttis` TTIs, or the rows of a position trace); the
geometry stage, which clusters the positions the base station believes
in, points beams at the cluster centroids, and evaluates coverage and
every (beam, member) link; packet arrivals (from the UEs' own random
streams, so their place in the order changes no draw); per-beam RBG
scheduling by the DQN agents;
serving, which drains the queues with the allocated bits; and learning
(agent training and target sync at their intervals). Coverage and links
are always evaluated against the TRUE positions; scheduling and beam
pointing only ever see the reported ones, which is what makes
localization error costly.

The geometry stage is event-driven: its inputs are the positions and
the warm-start centers, so it is recomputed only at a movement event or
while clustering has not reached a fixed point, and every other TTI
reuses the previous result (exactly, as clustering draws no random
numbers). Scheduling rolls the agents out over a window at once: the
TTIs up to the next geometry stage or through the next training TTI,
which share one geometry and one set of weights (`window.Window`), and
resolves each of those TTIs' actions, bit budgets and next first states
once; each TTI then reads its entry of the window's plan, and only the
replay experiences that a training sample can read are built.

Scenarios differ only in the (N, 2) array the clustering step consumes:
the true positions, the distorted reported positions, or the means of
the reported uncertainty PDFs (expected-distance clustering is the same
loop on the means; see `clustering`). A report is two points, drawn by
`inject_error`: the reported position and the PDF mean; no PDF object
is built.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .agent import (
    AgentConfig,
    AgentStack,
    DqnAgent,
    ExperienceTuple,
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
from .geometry import Point2D, uniform_disk_point
from .seeding import derive_seed, make_rng
from .stats import confidence_interval
from .traffic import PacketQueue, generate_arrivals

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "RunSummary",
    "RunReport",
    "inject_error",
    "load_position_trace",
    "check_trace_ids",
    "ScenarioRun",
    "run_scenario",
    "mean_coverage",
    "write_per_tti_csv",
    "write_summary_csv",
    "MIN_GNB_DISTANCE_M",
    "MAX_GNB_DISTANCE_M",
]

SUMMARY_METRICS = ("coverage_rate", "sum_rate_bps", "mean_delay_ttis")

# the closest a UE may be to the gNB (1 mm): a trace row closer is rejected,
# a random placement closer is drawn again
MIN_GNB_DISTANCE_M = 1e-3
# the farthest a trace row may be from the gNB: the largest cell_radius_m, up to
# which the SINR is finite (farther, the squared path loss underflows to 0)
MAX_GNB_DISTANCE_M = 1e6

# the most packets a UE may expect per TTI; numpy's Poisson draw fails near 9.2e18
MAX_ARRIVALS_PER_TTI = 1e4
ARRIVAL_BLOCK = 64  # the steps whose arrivals are drawn at once, per UE


class Scenario(Enum):
    KMEANS_ERROR = "kmeans_error"
    UKMEANS_ERROR = "ukmeans_error"
    KMEANS_EXACT = "kmeans_exact"


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's parameters. Each field's default and range is declared
    here or, for a field shared with a component config, on that config."""

    scenario: Scenario = Scenario.KMEANS_ERROR
    # each UE holds a traffic generator and a queue and widens every agent's
    # Q head, so memory and time grow with it; about 20 times the 48-UE large cell
    n_ues: int = ranged(6, lo=1, hi=1000)
    n_clusters: int = ranged(3, lo=1)
    # one DQN agent per beam; an NR FR2 cell sweeps at most 64 SSB beams
    n_beams: int = ranged(3, lo=1, hi=64)
    beam_width_deg: float = ranged(20.0, lo=0.0, hi=180.0, closed=False)
    cell_radius_m: float = ranged(160.0, lo=1.0, hi=1e6)
    error_rmse_m: float = ranged(8.0, lo=0.0, hi=1e6)
    informative_pdf: bool = False
    # a run keeps three numbers (24 bytes) per TTI until its cell's CSVs are
    # written; 1e5 TTIs are 12.5 s at the default TTI, 70 times the default
    tti_count: int = ranged(1400, lo=1, hi=100_000)
    # 1 ns, far below any NR slot: the sum rate divides a run's bits (at most
    # about 5.2e17) by tti_count times this, which overflows to inf near 1e-291 s
    tti_duration_s: float = ranged(1.25e-4, lo=1e-9)
    move_interval_ttis: int = ranged(10, lo=1)
    # 1 ms at the default TTI duration; no packet waits longer than the longest
    # run, and the reward divides this by an int delay, which fails past 1.8e308
    qos_latency_ttis: int = ranged(8, lo=1, hi=100_000)
    qos_sinr_db: float = ranged(15.0, lo=-DB_LIMIT, hi=DB_LIMIT)
    # a cell holds the columns of all its runs at once, up to 240 MB at both
    # bounds; at 100 runs the 95% Student-t quantile of the CI half-width is
    # within 1.3% of the normal one, so more runs add time, not precision
    runs: int = ranged(5, lo=1, hi=100)
    master_seed: int = ranged(12345, lo=0)
    load_bps: float = ranged(2e6, lo=0.0)  # offered load per UE
    # the largest IP datagram; the arrival rate divides by it as a float
    packet_size_bytes: int = ranged(32, lo=1, hi=65535)
    # one agent step per group and TTI; an NR carrier has at most 275 RBs
    rbg_count: int = ranged(24, lo=1, hi=275)
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

    bits: float  # RBG rate times the TTI duration
    next_state: float  # the encoded CQI of the link's SINR
    sinr_ratio: float  # linear SINR over the QoS requirement


class _Geometry(NamedTuple):
    """The geometry stage's result for one set of positions; coverage-only
    runs leave the link fields None."""

    beams: list
    coverage: float
    mask: Optional[np.ndarray] = None  # (beam, UE): True for the beam's members
    links: Optional[list] = None  # per beam: {member id: _Link}, in ascending id order


class RunSummary(NamedTuple):
    coverage_rate: float
    sum_rate_bps: float
    mean_delay_ttis: float
    delivered_bits: int


class RunReport(NamedTuple):
    config: ScenarioConfig
    records: list  # per run: its coverage_rate, delivered_bits and mean_delay_ttis columns
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
    pos: Point2D,
    error_rmse_m: float,
    rng: np.random.Generator,
    informative: bool = False,
) -> tuple:
    """Distort a true position into a report: returns the reported
    position and the mean of the report's uncertainty PDF, two (x, y)
    pairs of floats; `pos` may be any (x, y) pair.

    Disk mode: the reported center is the true position plus an offset
    drawn uniformly in a disk of radius R = rmse * sqrt(2), so the
    expected squared offset is R^2/2 = rmse^2; the PDF is that disk
    around the reported center, with mean the center.

    Informative mode (two-mode fixture): a ghost displacement g of
    magnitude rmse * sqrt(2) and uniform direction is drawn; with
    probability 1/2 the report lands on the ghost. The PDF holds both
    hypotheses, {reported, reported - g} at weight 1/2 each; the true
    position is one of the two modes, and the empirical RMSE of the
    report is again rmse. Exact clustering of the report ignores the
    ghost mode; expected-distance clustering of the mean exploits it.
    The mean is the weighted sum over the two hypotheses, summed from 0
    in that order (so a mean of two -0.0 terms is 0.0).

    Both modes consume the same number of random draws, so scenarios
    sharing a seed see identical movement regardless of the mode.
    """
    r_err = error_rmse_m * math.sqrt(2.0)
    if not informative:
        c = uniform_disk_point(rng, r_err, pos)
        return c, c
    px, py = pos
    ghosted = rng.random() < 0.5
    theta = rng.random() * 2.0 * math.pi
    gx = r_err * math.cos(theta)
    gy = r_err * math.sin(theta)
    rx, ry = (px + gx, py + gy) if ghosted else (px, py)
    ax, ay = rx - gx, ry - gy
    mx = 0.0 + 0.5 * rx + 0.5 * ax
    my = 0.0 + 0.5 * ry + 0.5 * ay
    return (rx, ry), (mx, my)


def load_position_trace(path):
    """Parse a `tti,ue_id,x_m,y_m` CSV into {tti: [(ue_id, Point2D), ...]}.

    Rows must be at TTIs >= 0, sorted by (tti, ue_id), and hold finite
    coordinates from MIN_GNB_DISTANCE_M to MAX_GNB_DISTANCE_M from the gNB
    at the origin (outside, the free-space path loss overflows or
    underflows and the SINR is not a number); TTIs without rows hold the
    last position; an unreadable file is a ConfigError.
    """
    import csv  # only a configured trace needs it

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
            tti, ue_id, x, y = row
            tti, ue_id, x, y = int(tti), int(ue_id), float(x), float(y)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: malformed row {row}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(f"{path}: line {lineno}: non-finite position {row}")
        distance = math.hypot(x, y)
        if distance < MIN_GNB_DISTANCE_M:
            raise ConfigError(
                f"{path}: line {lineno}: position is within {MIN_GNB_DISTANCE_M} m "
                f"of the gNB (0, 0)"
            )
        if distance > MAX_GNB_DISTANCE_M:
            raise ConfigError(
                f"{path}: line {lineno}: position is farther than {MAX_GNB_DISTANCE_M:g} m "
                f"from the gNB (0, 0)"
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

    `step` is meant for the TTIs 0 .. tti_count - 1: arrivals are drawn per
    `step` call, in call order, exploration per window (a run of consecutive
    `step` calls in one geometry, see `_window_ttis`), and experiences that no
    training sample in that range can read are not pushed to replay.
    """

    def __init__(
        self,
        cfg: ScenarioConfig,
        run_seed: int,
        trace: Optional[dict] = None,
        coverage_only: bool = False,
    ):
        cfg.validate()
        if trace is not None:
            check_trace_ids(trace, cfg)
        self.cfg = cfg
        self.trace = trace
        self.coverage_only = coverage_only
        self.width_rad = math.radians(cfg.beam_width_deg)
        self.qos_sinr_lin = 10.0 ** (cfg.qos_sinr_db / 10.0)

        self.move_rng = make_rng(derive_seed(run_seed, 1))
        self.error_rng = make_rng(derive_seed(run_seed, 2))
        self.clustering = cfg.clustering_config(seed=derive_seed(run_seed, 3))
        self.traffic_rngs = [make_rng(derive_seed(run_seed, 100 + u)) for u in range(cfg.n_ues)]

        # per UE, by id: the true position, the position this scenario
        # clusters (see `_place`), the class and the queue
        self.true_xy = np.empty((cfg.n_ues, 2))
        exact = cfg.scenario is Scenario.KMEANS_EXACT
        self.believed_xy = self.true_xy if exact else np.empty((cfg.n_ues, 2))
        self.classes = [UserClass.URLLC if u % 2 == 0 else UserClass.EMBB for u in range(cfg.n_ues)]
        self.queues = [PacketQueue(8 * cfg.packet_size_bytes) for _ in range(cfg.n_ues)]
        self._arrival_rows = []  # per coming step, its arrivals per UE (see `_arrivals`)
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
            # every agent's input state at the next TTI's first RBG: the next
            # state of its last action, or that of CQI 0 before the first TTI
            self.first_states = (encode_state(0),) * cfg.n_beams
            # the Window being scheduled: (its geometry, the TTI it expects next,
            # its first TTI, the Window)
            self.window = None
        self.prev_centers = None  # the warm start of the next clustering call
        self._fixed_point = False  # whether the last call settled (see ClusteringResult)
        self.geometry: Optional[_Geometry] = None  # the geometry stage's last result
        self._coverage_row = None  # a coverage-only step's result, kept with the geometry

    def _random_position(self) -> Point2D:
        """An area-uniform point of the cell from `move_rng`, both of its
        draws taken again while it is closer than MIN_GNB_DISTANCE_M to the
        gNB (at the gNB the path loss is not finite)."""
        while True:
            pos = uniform_disk_point(self.move_rng, self.cfg.cell_radius_m)
            if math.hypot(*pos) >= MIN_GNB_DISTANCE_M:
                return pos

    def _place(self, u: int, pos: Point2D) -> None:
        """Move UE u to `pos` and, unless this scenario clusters the true
        position (`believed_xy` is `true_xy`), draw its report. The row
        then clustered is the reported position, or the PDF mean."""
        self.true_xy[u] = pos
        if self.believed_xy is self.true_xy:
            return
        cfg = self.cfg
        reported, mean = inject_error(
            pos, cfg.error_rmse_m, self.error_rng, informative=cfg.informative_pdf
        )
        self.believed_xy[u] = mean if cfg.scenario is Scenario.UKMEANS_ERROR else reported

    def _arrivals(self, t: int) -> None:
        if not self._arrival_rows:
            mean = self.cfg.arrivals_per_tti
            block = [generate_arrivals(mean, rng, ARRIVAL_BLOCK) for rng in self.traffic_rngs]
            self._arrival_rows = np.array(block).T.tolist()[::-1]  # the next row last
        for queue, count in zip(self.queues, self._arrival_rows.pop()):
            if count:
                queue.push(t, count)

    def _mobility(self, t: int) -> None:
        """Apply TTI t's movement event (see `step`): place each UE of the
        trace rows at t, or every UE at a new random position. Moved UEs get
        a new report."""
        if self.trace is not None:
            for ue_id, pos in self.trace[t]:
                self._place(ue_id, pos)
        else:
            for u in range(self.cfg.n_ues):
                self._place(u, self._random_position())

    def _geometry(self) -> None:
        """Keep the clustering, beams, coverage and link tables of the current
        positions as `geometry`, warm-started from the last call's centers."""
        cfg = self.cfg
        result = run_clustering(self.believed_xy, self.clustering, self.prev_centers)
        self._fixed_point = result.settled
        self.prev_centers = result.centers
        beams = form_beams(
            result.centers, self.width_rad, cfg.n_beams, self.believed_xy, result.labels
        )
        cov = coverage_rate(beams, self.true_xy, cfg.cell_radius_m)
        if self.coverage_only:
            self.geometry = _Geometry(beams, cov)
            self._coverage_row = (cov, 0, math.nan)
        else:
            self.geometry = _Geometry(beams, cov, *self._links(beams))

    def _links(self, beams):
        """The (beam, UE) action mask and per beam the `_Link` of an RBG to each
        member, in ascending id order; the gNB is at the origin."""
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
                table[uid] = _Link(
                    bits=rbg_rate(sdb, cfg.antenna) * cfg.tti_duration_s,
                    next_state=encode_state(sinr_to_cqi(sdb)),
                    sinr_ratio=(10.0 ** (sdb / 10.0)) / self.qos_sinr_lin,
                )
            links.append(table)
        return mask, links

    def _next_train(self, t: int) -> int:
        """The first TTI T >= t at which `_learn` trains: T > 0 and T %
        train_interval_ttis == 0."""
        interval = self.cfg.train_interval_ttis
        return max(1, -(-t // interval)) * interval

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
        train_t, rbgs = self._next_train(t), cfg.rbg_count
        if train_t >= cfg.tti_count:
            return rbgs
        return max(0, (train_t - t + 1) * rbgs - cfg.replay_capacity)

    def _window_ttis(self, t: int) -> int:
        """The TTIs from t on, before tti_count, that keep this geometry and
        these weights: up to the next geometry stage (the next movement
        event, or t + 1 while clustering has not settled) and through the next
        training TTI."""
        cfg = self.cfg
        if not self._fixed_point:
            return 1
        end = min(self._next_train(t) + 1, cfg.tti_count)
        if self.trace is None:
            end = min(end, (t // cfg.move_interval_ttis + 1) * cfg.move_interval_ttis)
        else:
            end = next((u for u in range(t + 1, end) if self.trace.get(u)), end)
        return max(1, end - t)

    def _schedule(self, t: int, geo: _Geometry):
        """Every beam's agent picks one member UE per RBG.

        At the first TTI of a window (see `Window`: the TTIs that keep this
        geometry and these weights, `_window_ttis`) the agents are rolled out
        over all of it at once, and the window resolves each of its TTIs'
        actions, budgets and next first states. Every TTI then reads its entry
        of the window's plan and, if it pushes, builds the experiences a replay
        sample can read (see `_first_replayed`), beam by beam and RBG by RBG.
        Returns the per-UE bit budgets and, per RBG, the action of every
        beam's agent.
        """
        cfg = self.cfg
        window_geo, expected, start, window = self.window or (None, t, t, None)
        if window_geo is not geo or t != expected or t - start >= window.ttis:
            from .window import Window  # loaded by the first run that schedules, never coverage-only

            ttis = self._window_ttis(t)
            # carries are kept for the experiences of the TTIs that push: the
            # window's last ones, as `_first_replayed` falls toward its training TTI
            pushes = (u - t for u in range(t, t + ttis) if self._first_replayed(u) < cfg.rbg_count)
            args = self.first_states, ttis, cfg.rbg_count, next(pushes, None)
            window, start = Window(self.stack, geo, *args), t
        self.window = geo, t + 1, start, window
        rows, budgets, first_states, carries = window.plan[t - start]
        if carries is not None:
            self._remember(t, geo, rows, carries, self._first_replayed(t))
        self.first_states = first_states
        return budgets, rows

    def _remember(self, t, geo, rows, carries, first_replayed) -> None:
        """Push each agent's experiences of RBGs first_replayed .. rbg_count - 1,
        in RBG order, before `first_states` moves on to the next TTI: the state
        of RBG 0 is its first state, that of RBG j > 0 the next state of RBG j - 1.
        The links are fixed by the geometry and no queue changes before service,
        so each (beam, member)'s reward is computed once per pushing TTI."""
        latency, queues, classes = self.cfg.qos_latency_ttis, self.queues, self.classes
        for b, agent in enumerate(self.agents):
            links, mask = geo.links[b], geo.mask[b]  # a view, shared by the beam's experiences
            rewards = {}
            for uid, link in links.items():
                delay_ratio = latency / queues[uid].head_of_line_delay(t)
                rewards[uid] = reward(classes[uid], link.sinr_ratio, delay_ratio)
            for j in range(first_replayed, len(rows)):
                action = rows[j][b]
                state = links[rows[j - 1][b]].next_state if j else self.first_states[b]
                h, c = carries[j]
                agent.remember(
                    ExperienceTuple(
                        state=state,
                        action=action,
                        next_state=links[action].next_state,
                        reward=rewards[action],
                        hidden_context=(h[b], c[b]),
                        action_mask=mask,
                    )
                )

    def _serve(self, t: int, budgets: dict):
        """Drain each scheduled UE's queue with its bit budget; returns (packets, delay sum)."""
        packets = delay_sum = 0
        for uid, budget in budgets.items():
            n, d = self.queues[uid].serve(budget, t)
            packets, delay_sum = packets + n, delay_sum + d
        return packets, delay_sum

    def _learn(self, t: int) -> None:
        """Train at the train interval (the last TTI of a window) and copy to
        the target networks at the sync interval."""
        cfg = self.cfg
        if t > 0 and t % cfg.train_interval_ttis == 0:
            for agent in self.agents:
                agent.train()
        if t > 0 and t % cfg.target_copy_interval_ttis == 0:
            for agent in self.agents:
                agent.sync()

    def step(self, t: int) -> tuple:
        """Advance TTI t; returns its (coverage_rate, delivered_bits,
        mean_delay_ttis), the run's columns in order. The mean delay is nan
        when nothing was delivered, and the bits are 0 on a coverage-only run.

        The geometry stage is entered only at a movement event (trace rows at
        t, or without a trace every `move_interval_ttis`-th TTI after 0), or
        while the last clustering call has not settled: a call from a settled
        result's centers returns that result's labels and centers, and all
        the stage computes after it is a function of those and the true
        positions, so otherwise the kept result is what it would compute.
        The movement test is inline: as a method call it would be a third of
        a cached coverage-only step."""
        if self.trace is None:
            moves = t > 0 and t % self.cfg.move_interval_ttis == 0
        else:
            moves = bool(self.trace.get(t))
        if moves:
            self._mobility(t)
            self._geometry()
        elif not self._fixed_point:
            self._geometry()
        if self.coverage_only:
            return self._coverage_row
        self._arrivals(t)
        geo = self.geometry
        budgets, _ = self._schedule(t, geo)
        packets, delay_sum = self._serve(t, budgets)
        self._learn(t)
        bits = packets * 8 * self.cfg.packet_size_bytes
        return geo.coverage, bits, delay_sum / packets if packets else math.nan

    def run(self):
        """Step every TTI; returns the run's coverage_rate, delivered_bits and
        mean_delay_ttis columns, whose index is the TTI, and its summary."""
        # int64 holds delivered_bits: at the key bounds (1e5 TTIs, 1000 UEs, 1e4
        # packets of 65535 bytes per UE and TTI) a run delivers about 5.2e17, below 2**63
        columns = coverage, bits, delay = array("d"), array("q"), array("d")
        # training may diverge (nn_learning_rate is open): a gate's exp(-z) may overflow
        # and the backward pass meet inf * 0; greedy's all -inf fallback takes nan Q-values
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(self.cfg.tti_count):
                for column, value in zip(columns, self.step(t)):
                    column.append(value)
        return columns, self.summary(coverage, bits)

    def summary(self, coverage, bits) -> RunSummary:
        cfg = self.cfg
        delivered = sum(bits)
        delay_sum = sum(q.delivered_delay_sum for q in self.queues)
        delay_n = sum(q.delivered_packets for q in self.queues)
        return RunSummary(
            coverage_rate=float(np.mean(coverage)),
            sum_rate_bps=delivered / (cfg.tti_count * cfg.tti_duration_s),
            mean_delay_ttis=(delay_sum / delay_n) if delay_n else math.nan,
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
        yield ScenarioRun(cfg, derive_seed(cfg.master_seed, i), trace, coverage_only)


def run_scenario(cfg: ScenarioConfig, trace: Optional[dict] = None) -> RunReport:
    """Execute cfg.runs independent runs and aggregate their metrics.

    Run i uses the seed derive_seed(master_seed, i); the report is fully
    determined by (cfg, master_seed). Aggregates carry the mean and the
    95% Student-t half-width (nan for a single run). `trace` is the
    already loaded `cfg.trace_csv`; when None the file is loaded here.
    """
    results = [run.run() for run in _scenario_runs(cfg, cfg.runs, trace)]
    records = [columns for columns, _ in results]
    summaries = [summary for _, summary in results]
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
        for run, columns in enumerate(report.records):
            for tti, (coverage, bits, delay) in enumerate(zip(*columns)):
                fh.write(f"{run},{tti},{fmt(coverage)},{bits},{fmt(delay)}\n")


def write_summary_csv(report: RunReport, path) -> None:
    """Aggregate rows: scenario,metric,mean,ci95_halfwidth."""
    with open(path, "w", newline="") as fh:
        fh.write("scenario,metric,mean,ci95_halfwidth\n")
        for row in report.summary_rows():
            fh.write(row + "\n")
