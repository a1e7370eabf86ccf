"""Deterministic simulator of a 5G mmWave cell: clustering under
localization uncertainty, centroid-pointed beams, and per-beam deep-Q
resource-block scheduling."""

from .agent import (
    AgentConfig,
    DqnAgent,
    ExperienceTuple,
    LstmNetwork,
    ReplayMemory,
    UserClass,
    encode_state,
    lstm_forward,
    reward,
    select_action,
    sync_target,
    train_step,
)
from .beams import (
    AntennaConfig,
    Beam,
    array_response,
    beam_gain,
    compute_sinr,
    coverage_rate,
    form_beams,
    rbg_rate,
    sinr_to_cqi,
)
from .clustering import (
    ClusteringConfig,
    ClusteringResult,
    InitStrategy,
    kmeans_assign,
    kmeans_update,
    run_clustering,
    ukmeans_assign,
    ukmeans_update,
)
from .config import SweepSpec, emit_config, parse_config, parse_config_text
from .engine import (
    RunReport,
    RunSummary,
    Scenario,
    ScenarioConfig,
    ScenarioRun,
    TtiRecord,
    UserEquipment,
    inject_error,
    load_position_trace,
    mean_coverage,
    run_scenario,
    write_per_tti_csv,
    write_summary_csv,
)
from .errors import ConfigError
from .geometry import (
    Point2D,
    SampleBased,
    UncertainPoint,
    UniformDisk,
    expected_position,
    expected_sq_distance,
    mc_expected_sq_distance,
    sample_position,
    sq_distance,
    translate,
    uniform_disk_point,
)
from .seeding import derive_seed, make_rng, splitmix64
from .stats import confidence_interval
from .traffic import PacketQueue, TrafficConfig, arrival_rate_pps, generate_arrivals

__version__ = "0.1.0"
