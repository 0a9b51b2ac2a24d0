"""MDS array codes with optimal cooperative multi-node repair.

The package builds the two explicit code families (fixed repair subset and
arbitrary repair subset), their concatenations including the universal code,
the two-round cooperative repair protocol with exact bandwidth accounting
against the cut-set bounds, a deterministic simulated cluster, and a file
sharding CLI.
"""

from coopmds.cluster import ClusterConfig, SimulationReport, TrafficMeter, inject_and_sweep, run_scenario
from coopmds.codec import (
    CodewordArray,
    VerifyResult,
    decode_from_columns,
    encode_systematic,
    parity_witness,
    verify_parity,
)
from coopmds.codespec import (
    CodeParams,
    CodeSpec,
    InadmissibleError,
    build_A,
    card_A,
    concat,
    make_code,
    min_field_order,
    subset_rank,
    universal_code,
)
from coopmds.field import Field, FieldSpec, make_field, smallest_field_spec
from coopmds.grs import recover_batched, solve_batched
from coopmds.repair import (
    BandwidthLedger,
    RepairContext,
    RepairMessage,
    RepairTranscript,
    centralized_repair_from_round1,
    cooperative_repair,
    cutset_centralized,
    cutset_cooperative,
    repair_columns,
    round1_helper_payload,
    round1_solve,
    round2_exchange_and_finish,
)

__all__ = [
    "BandwidthLedger",
    "ClusterConfig",
    "CodeParams",
    "CodeSpec",
    "CodewordArray",
    "Field",
    "FieldSpec",
    "InadmissibleError",
    "RepairContext",
    "RepairMessage",
    "RepairTranscript",
    "SimulationReport",
    "TrafficMeter",
    "VerifyResult",
    "build_A",
    "card_A",
    "centralized_repair_from_round1",
    "concat",
    "cooperative_repair",
    "cutset_centralized",
    "cutset_cooperative",
    "decode_from_columns",
    "encode_systematic",
    "inject_and_sweep",
    "make_code",
    "make_field",
    "min_field_order",
    "parity_witness",
    "recover_batched",
    "repair_columns",
    "round1_helper_payload",
    "round1_solve",
    "round2_exchange_and_finish",
    "run_scenario",
    "smallest_field_spec",
    "solve_batched",
    "subset_rank",
    "universal_code",
    "verify_parity",
]

__version__ = "0.1.0"
