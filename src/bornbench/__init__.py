"""Generative-model benchmark for small qubit registers.

Trains Born machines on the bars-and-stripes distribution with a
kernel-based loss and parameter-shift gradients, evaluates them with KL
divergence, per-state F1 and the qBAS score, and emulates hardware
degradation through configurable noise channels.
"""

__version__ = "0.1.0"

from .ansatz import (
    CircuitSpec,
    CouplingGraph,
    EntanglerLayer,
    build_circuit,
    chow_liu_layer,
    classify_pixel_pair,
    embed_layer,
    entangler_layer,
    layer_from_edges,
    load_coupling_graph,
    pairwise_mutual_information,
    preset_graph,
)
from .bas import (
    ImageShape,
    TargetDistribution,
    bas_target_distribution,
    bitstring,
    enumerate_bas,
)
from .metrics import (
    KlEstimate,
    MetricRecord,
    QbasResult,
    f1_per_state,
    kl_divergence,
    kl_sampling_summary,
    qbas_aggregate,
    qbas_from_probs,
    qbas_score,
)
from .mmd import KernelSpec, mmd_gradient, mmd_loss, mmd_loss_exact, shift_probabilities
from .noise import (
    NoiseModel,
    amplitude_damping_kraus,
    apply_readout,
    depolarizing_kraus,
    load_noise,
)
from .sim import (
    circuit_probabilities,
    evolve_density,
    run_statevector,
    sample_histogram,
)
from .training import (
    AdamState,
    Checkpoint,
    RunRecord,
    TrainingConfig,
    adam_step,
    initial_theta,
    rng_stream,
    train,
)
