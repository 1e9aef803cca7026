"""Sparse inference reporting: what a serving engine stores and runs.

Deployment counterpart of the §III-D memory analysis.  Frozen sessions
(from checkpoints or packed ``.reprom`` artifacts) run every sparse
layer straight off its :class:`~repro.sparse.storage.CSRPattern`; this
module reports, per layer, the route taken and the storage that layer
costs in theory (CSR bits) and on disk (packed bytes).
"""

from __future__ import annotations

from typing import Dict

from .storage import csr_bits


def serving_storage_report(manager, precision: str = None) -> Dict[str, object]:
    """Per-layer storage/dispatch summary of a (frozen) serving engine.

    For every masked layer: the route its next forward takes, its
    density, the exact CSR storage bits of the cached pattern (values +
    column indices + row pointers) versus the dense weight bits — the
    §III-D accounting applied to the live serving engine — **and** the
    actual bytes the layer costs in the packed ``.reprom`` format
    (delta+varint indices, quantized values), computed by running the
    real codec so the theoretical and on-disk numbers cannot silently
    diverge.  ``precision`` picks the packed value precision; it
    defaults to the artifact's stored precision for packed sessions and
    ``"f32"`` otherwise.  Sessions served from a package also get a
    ``"packed"`` section with the measured file size.
    """
    from .packaging import packed_layer_bytes

    package = manager.package
    stored = precision or (package.precision if package is not None else "f32")
    layers = []
    for name, state in manager.states.items():
        pattern = state.csr_pattern()
        layers.append({
            "layer": name,
            "route": manager.route(state),
            "density": round(state.density(), 4),
            "nonzeros": pattern.nnz,
            "csr_bits": csr_bits(pattern.nnz, pattern.shape[0]),
            "dense_bits": state.size * 32,
            "packed_bytes": packed_layer_bytes(pattern, stored)["total_bytes"],
            "frozen": state.frozen,
        })
    report = {
        "layers": layers,
        "total_csr_bits": sum(item["csr_bits"] for item in layers),
        "total_dense_bits": sum(item["dense_bits"] for item in layers),
        "total_packed_bytes": sum(item["packed_bytes"] for item in layers),
        "packed_precision": stored,
        "frozen": all(item["frozen"] for item in layers),
    }
    if package is not None:
        report["packed"] = {
            "path": str(package.path),
            "precision": package.precision,
            "file_bytes": package.file_bytes,
        }
    return report
