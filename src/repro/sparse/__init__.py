"""Sparse-training core: NDSNN (the paper's contribution) and baselines."""

from .admm import ADMMPruner
from .analysis import (
    DegreeStats,
    analyze_masks,
    degree_statistics,
    input_output_connectivity,
    layer_chain_graph,
    mask_bipartite_graph,
    topology_change,
)
from .base import DenseMethod, SparseTrainingMethod, StaticMaskMethod
from .engine import (
    DEFAULT_CSR_THRESHOLD,
    EXECUTION_MODES,
    DropGrowMethod,
    MaskedParameter,
    SparsityManager,
)
from .dispatch import (
    CALIBRATION_ENV,
    DENSITY_GRID,
    CalibrationTable,
    clear_process_cache,
    get_cutoff,
    measure_crossover,
)
from .gmp import GMPSNN
from .snip import SNIPSNN
from .structured import (
    StructuredFilterPruning,
    compact_model,
    dead_output_rows,
    filter_norms,
    sever_dead_channels,
)
from .storage import CSRPattern, model_csr_storage_bits
from .inference import serving_storage_report
from .packaging import (
    PRECISIONS,
    PackedManager,
    PackedModel,
    PackedState,
    build_packed_runtime,
    delta_decode_indices,
    delta_encode_indices,
    dequantize_rows,
    packed_layer_bytes,
    quantize_rows_int8,
    varint_decode,
    varint_encode,
    write_package,
)
from .erk import (
    build_distribution,
    erk_densities,
    erk_sparsities,
    global_density,
    uniform_densities,
)
from .lth import LTHSNN
from .mask import MaskManager, sparsifiable_parameters
from .ndsnn import NDSNN, UpdateRecord
from .rigl_snn import RigLSNN
from .schedule import (
    ConstantDeathSchedule,
    CosineDeathSchedule,
    LayerwiseSparsityRamp,
    SparsityRamp,
)
from .set_snn import SETSNN

__all__ = [
    "DegreeStats",
    "degree_statistics",
    "analyze_masks",
    "mask_bipartite_graph",
    "layer_chain_graph",
    "input_output_connectivity",
    "topology_change",
    "SparseTrainingMethod",
    "DenseMethod",
    "StaticMaskMethod",
    "DropGrowMethod",
    "MaskedParameter",
    "SparsityManager",
    "EXECUTION_MODES",
    "DEFAULT_CSR_THRESHOLD",
    "CALIBRATION_ENV",
    "DENSITY_GRID",
    "CalibrationTable",
    "clear_process_cache",
    "get_cutoff",
    "measure_crossover",
    "NDSNN",
    "UpdateRecord",
    "SETSNN",
    "RigLSNN",
    "LTHSNN",
    "ADMMPruner",
    "GMPSNN",
    "SNIPSNN",
    "StructuredFilterPruning",
    "filter_norms",
    "sever_dead_channels",
    "compact_model",
    "dead_output_rows",
    "CSRPattern",
    "model_csr_storage_bits",
    "serving_storage_report",
    "PRECISIONS",
    "PackedManager",
    "PackedModel",
    "PackedState",
    "build_packed_runtime",
    "delta_encode_indices",
    "delta_decode_indices",
    "quantize_rows_int8",
    "dequantize_rows",
    "packed_layer_bytes",
    "varint_encode",
    "varint_decode",
    "write_package",
    "MaskManager",
    "sparsifiable_parameters",
    "erk_densities",
    "erk_sparsities",
    "uniform_densities",
    "global_density",
    "build_distribution",
    "SparsityRamp",
    "LayerwiseSparsityRamp",
    "CosineDeathSchedule",
    "ConstantDeathSchedule",
]
