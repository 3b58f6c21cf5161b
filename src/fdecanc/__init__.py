"""FDE RF self-interference canceller modeling, optimization, and network analysis."""

from .core import (
    ComplexResponse,
    FrequencyGrid,
    amplitude_db,
    db_to_linear,
    group_delay,
    linear_to_db,
    unwrapped_phase,
)
from .errors import (
    ChannelFormatError,
    DegenerateResponseError,
    FdecancError,
    InsufficientGridError,
    InvalidArgumentError,
    LatticeTooLargeError,
    SingularNetworkError,
    SolverFailureError,
    UndefinedGainError,
)
from .metrics import SicSummary, isolation_db, rf_sic_db
from .models import (
    IdealTapConfig,
    PcbBoardParams,
    PcbTapConfig,
    TwoPortMatrix,
    ideal_tap_response,
    multi_tap_response,
    pcb_bpf_response_abcd,
    pcb_bpf_response_closed_form,
    pcb_canceller_response,
    shunt_admittance,
    tline_matrix,
)
from .network import (
    MultiUserScenario,
    ScheduleSpec,
    UlDlScenario,
    jain_fairness,
    multi_user_throughputs,
    shannon_rate,
    tdma_schedule_eval,
    three_node_throughputs,
    uldl_surface,
    uldl_throughputs,
)
from .optimizer import (
    BoxBounds,
    KnobSpec,
    QuantizationSpec,
    SolveOptions,
    SolveReport,
    grid_search_oracle,
    iterative_heuristic,
    local_search,
    quantization_preset,
    quantize_config,
    report_from_dict,
    residual_objective,
    solve_continuous,
)
from .sichannel import (
    SynthChannelSpec,
    format_si_channel,
    load_si_channel,
    save_si_channel,
    synth_si_channel,
)

__version__ = "0.1.0"
