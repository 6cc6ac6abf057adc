"""Perfect-secrecy analysis for two-user relay networks with structured interference."""

from .bounds import (
    SecrecyBounds,
    compute_bounds,
    guaranteed_entropy,
    guaranteed_entropy_pam,
    ub_generic,
    ub_nocoop,
    ub_pam,
)
from .constellation import (
    FiniteAlphabet,
    PamConstellation,
    SumProfile,
    make_pam,
    pam_sum_profile,
    preimage_count_pam,
    sum_profile,
)
from .encoders import (
    BitQueues,
    LeakageReport,
    QueueUnderflow,
    SecrecyPartition,
    audit_leakage,
    build_partition,
    coop_level,
    decode_coop,
    decode_stream,
    encode_coop,
    encode_stream,
    gaps,
    rate_coop,
    rate_nocoop,
)
from .mimo import (
    OptimizeResult,
    PrecoderPair,
    PrecoderProblem,
    capacity,
    capacity_gradient,
    dof_max,
    draw_channel_pair,
    ergodic_capacity_mc,
    nullspace_basis,
    optimize_precoders,
    precoder_space_dim,
    zf_precoders,
)
from .sync import SyncParams, alpha_beta, sync_sweep, ub_with_sync

__version__ = "0.1.0"
