"""Client-server simulation engine: server, metrics, energy, ground truth."""

from .dynamic import (AlarmSchedule, InstallAction, RemoveAction,
                      compute_dynamic_ground_truth, run_dynamic_simulation)
from .energy import RADIO_ENERGY_MODEL, EnergyModel
from .groundtruth import (AccuracyReport, compute_ground_truth,
                          verify_accuracy)
from .metrics import Metrics, TriggerEvent
from .network import MessageSizes
from .parallel import (default_worker_count, run_parallel_simulation,
                       shard_traces)
from .server import AlarmServer
from .tracking import (TargetTrack, compute_tracking_ground_truth,
                       run_tracking_simulation)
from .simulation import (SimulationResult, World, replay_vehicle_major,
                         run_simulation)

__all__ = [
    "default_worker_count",
    "replay_vehicle_major",
    "run_parallel_simulation",
    "shard_traces",
    "AccuracyReport",
    "AlarmSchedule",
    "AlarmServer",
    "InstallAction",
    "RemoveAction",
    "compute_dynamic_ground_truth",
    "run_dynamic_simulation",
    "EnergyModel",
    "Metrics",
    "MessageSizes",
    "RADIO_ENERGY_MODEL",
    "SimulationResult",
    "TargetTrack",
    "compute_tracking_ground_truth",
    "run_tracking_simulation",
    "TriggerEvent",
    "World",
    "compute_ground_truth",
    "run_simulation",
    "verify_accuracy",
]
