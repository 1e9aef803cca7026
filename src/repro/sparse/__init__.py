"""Sparse-training core: NDSNN (the paper's contribution) and baselines."""

from .admm import ADMMPruner
from .analysis import (
    DegreeStats,
    analyze_masks,
    degree_statistics,
    input_output_connectivity,
    topology_change,
)
from .engine import (
    EXECUTION_MODES,
    DenseMethod,
    DropGrowMethod,
    MaskedParameter,
    SparseTrainingMethod,
    SparsityManager,
    StaticMaskMethod,
    sparsifiable_parameters,
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
    PackedModel,
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
from .ndsnn import NDSNN, UpdateRecord
from .rigl_snn import RigLSNN
from .schedule import (
    CosineDeathSchedule,
    LayerwiseSparsityRamp,
    SparsityRamp,
)
from .set_snn import SETSNN

__all__ = [
    "DegreeStats",
    "degree_statistics",
    "analyze_masks",
    "input_output_connectivity",
    "topology_change",
    "SparseTrainingMethod",
    "DenseMethod",
    "StaticMaskMethod",
    "DropGrowMethod",
    "MaskedParameter",
    "SparsityManager",
    "EXECUTION_MODES",
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
    "PackedModel",
    "build_packed_runtime",
    "delta_encode_indices",
    "delta_decode_indices",
    "quantize_rows_int8",
    "dequantize_rows",
    "packed_layer_bytes",
    "varint_encode",
    "varint_decode",
    "write_package",
    "sparsifiable_parameters",
    "erk_densities",
    "erk_sparsities",
    "uniform_densities",
    "global_density",
    "build_distribution",
    "SparsityRamp",
    "LayerwiseSparsityRamp",
    "CosineDeathSchedule",
]
