"""Power-minimizing resource allocation for THP-based MIMO-OFDMA downlinks.

Two-layer architecture: users are partitioned into groups by channel
quality (worst first), then each group gets its subcarriers through an
exact quota-replicated linear assignment whose costs come from closed-form
MSE-constrained minimum-power transceivers. Tomlinson-Harashima
precoding at user level removes all cross-group interference.
"""

from thpalloc.channel import ScenarioConfig, ChannelSet, scenario_preset, generate_drop
from thpalloc.partition import GroupPartition, channel_quality, partition_worst_first
from thpalloc.assignment import Assignment, solve_assignment
from thpalloc.sim import Architecture, DropResult, SweepResult, run_drop, run_sweep

__all__ = ["ScenarioConfig", "ChannelSet", "scenario_preset", "generate_drop",
           "GroupPartition", "channel_quality", "partition_worst_first",
           "Assignment", "solve_assignment", "Architecture", "DropResult",
           "SweepResult", "run_drop", "run_sweep"]
