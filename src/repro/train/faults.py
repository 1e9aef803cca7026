"""Fault injection for robustness studies on sparse spiking models.

The paper motivates NDSNN with edge/neuromorphic deployment (Loihi,
HICANN, FPGAs).  Real devices exhibit weight corruption (SRAM bit
flips, analog drift) and dead units; this module injects those faults
so a user can measure how much accuracy a sparse model gives up under
hardware imperfection — and tests verify graceful degradation.

All injectors mutate parameters in place and return an inverse-patch
dict so experiments can restore the pristine weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..nn.module import Module
from ..sparse.engine import sparsifiable_parameters
from .hooks import TrainerCallback


def _mark_stale(parameters) -> None:
    """Weights about to be mutated outside the optimizer: invalidate any
    CSR value cache.  Called before the first write (and before any
    random draw), so a frozen serving state refuses with nothing changed.
    """
    for parameter in parameters:
        state = getattr(parameter, "_masked_state", None)
        if state is not None:
            state.mark_values_dirty()


def _snapshot(model: Module) -> Dict[str, np.ndarray]:
    """Copy of the sparsifiable weights, taken as they are marked stale."""
    named = sparsifiable_parameters(model)
    _mark_stale(parameter for _, parameter in named)
    return {name: parameter.data.copy() for name, parameter in named}


def restore(model: Module, snapshot: Dict[str, np.ndarray]) -> None:
    """Undo a fault injection using the returned snapshot."""
    parameters = dict(sparsifiable_parameters(model))
    _mark_stale(parameters[name] for name in snapshot)
    for name, values in snapshot.items():
        parameters[name].data[...] = values


def inject_weight_noise(
    model: Module,
    sigma: float,
    rng: Optional[np.random.Generator] = None,
    relative: bool = True,
) -> Dict[str, np.ndarray]:
    """Gaussian perturbation of the *non-zero* weights (analog drift).

    ``relative=True`` scales the noise by each layer's weight standard
    deviation, which models multiplicative device variation.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    gen = rng if rng is not None else np.random.default_rng()
    snapshot = _snapshot(model)
    for name, parameter in sparsifiable_parameters(model):
        active = parameter.data != 0
        scale = sigma * (parameter.data[active].std() if relative and active.any() else 1.0)
        noise = gen.normal(0.0, scale or sigma, size=parameter.shape).astype(np.float32)
        parameter.data[active] += noise[active]
    return snapshot


def inject_weight_dropout(
    model: Module,
    fraction: float,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, np.ndarray]:
    """Kill a random fraction of surviving weights (stuck-at-zero cells)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    gen = rng if rng is not None else np.random.default_rng()
    snapshot = _snapshot(model)
    for _, parameter in sparsifiable_parameters(model):
        flat = parameter.data.reshape(-1)
        active = np.flatnonzero(flat)
        if active.size == 0:
            continue
        kill = gen.choice(active, size=int(fraction * active.size), replace=False)
        flat[kill] = 0.0
    return snapshot


def inject_bit_flips(
    model: Module,
    flips_per_layer: int,
    bit: int = 23,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, np.ndarray]:
    """Flip one bit of the float32 representation of random weights.

    ``bit`` indexes from the LSB of the IEEE-754 encoding; 23 is the
    least-significant exponent bit (a large perturbation), low values
    perturb the mantissa (small).
    """
    if not 0 <= bit <= 31:
        raise ValueError("bit must be in [0, 31]")
    if flips_per_layer < 0:
        raise ValueError("flips_per_layer must be non-negative")
    gen = rng if rng is not None else np.random.default_rng()
    snapshot = _snapshot(model)
    for _, parameter in sparsifiable_parameters(model):
        flat = parameter.data.reshape(-1)
        active = np.flatnonzero(flat)
        if active.size == 0:
            continue
        count = min(flips_per_layer, active.size)
        victims = gen.choice(active, size=count, replace=False)
        as_int = flat[victims].view(np.uint32)
        flat[victims] = (as_int ^ np.uint32(1 << bit)).view(np.float32)
    return snapshot


# ----------------------------------------------------------------------
# Shared fault-spec vocabulary
# ----------------------------------------------------------------------
# Training-time (weight) faults and stream-time (event) faults share a
# single config surface: ``kind:key=value,key=value`` strings parsed by
# :func:`parse_fault_spec`.  The weight kinds build injectors here; the
# stream kinds are consumed by
# :class:`repro.stream.faults.StreamFaultInjector`.
#: kind -> (scope, {param: (type, default)})
FAULT_VOCABULARY: Dict[str, tuple] = {
    "noise": ("weight", {"sigma": (float, 0.1), "relative": (bool, True)}),
    "dropout": ("weight", {"fraction": (float, 0.1)}),
    "bitflip": ("weight", {"flips": (int, 1), "bit": (int, 23)}),
    "dead": ("weight", {"fraction": (float, 0.1)}),
    "channel_dropout": ("stream", {"fraction": (float, 0.25), "p": (float, 0.1)}),
    "stall": ("stream", {"duration": (float, 1.0), "p": (float, 0.05)}),
    "reconnect": ("stream", {"gap": (float, 1.0), "drop": (int, 1), "p": (float, 0.05)}),
}


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: its kind, scope and severity knobs."""

    kind: str
    scope: str
    params: Dict[str, object] = field(default_factory=dict)


def _parse_value(raw: str, target_type):
    if target_type is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes"):
            return True
        if lowered in ("0", "false", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return target_type(raw)


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse ``"kind:key=value,key=value"`` into a :class:`FaultSpec`.

    >>> parse_fault_spec("noise:sigma=0.2").params["sigma"]
    0.2
    >>> parse_fault_spec("stall").scope
    'stream'
    """
    head, _, tail = spec.strip().partition(":")
    kind = head.strip()
    if kind not in FAULT_VOCABULARY:
        raise ValueError(
            f"unknown fault kind {kind!r}; available: {sorted(FAULT_VOCABULARY)}"
        )
    scope, schema = FAULT_VOCABULARY[kind]
    params = {name: default for name, (_, default) in schema.items()}
    if tail.strip():
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or key not in schema:
                raise ValueError(
                    f"fault {kind!r} got bad parameter {item.strip()!r}; "
                    f"available: {sorted(schema)}"
                )
            params[key] = _parse_value(raw, schema[key][0])
    return FaultSpec(kind=kind, scope=scope, params=params)


def build_injector(
    spec, rng: Optional[np.random.Generator] = None
) -> Callable[[Module], Dict[str, np.ndarray]]:
    """Weight-fault injector (``model -> snapshot``) from a spec.

    ``spec`` is a :class:`FaultSpec` or its string form.  Stream-scope
    kinds are rejected here — route those through
    :class:`repro.stream.faults.StreamFaultInjector`.
    """
    if isinstance(spec, str):
        spec = parse_fault_spec(spec)
    if spec.scope != "weight":
        raise ValueError(
            f"fault {spec.kind!r} is a stream fault; use StreamFaultInjector"
        )
    p = spec.params
    if spec.kind == "noise":
        return lambda model: inject_weight_noise(
            model, sigma=p["sigma"], rng=rng, relative=p["relative"]
        )
    if spec.kind == "dropout":
        return lambda model: inject_weight_dropout(model, fraction=p["fraction"], rng=rng)
    if spec.kind == "bitflip":
        return lambda model: inject_bit_flips(
            model, flips_per_layer=p["flips"], bit=p["bit"], rng=rng
        )
    return lambda model: inject_dead_neurons(model, fraction=p["fraction"], rng=rng)


class FaultInjectionCallback(TrainerCallback):
    """Applies a fault injector on a per-epoch schedule during training.

    Models persistent or transient hardware imperfection while the
    model trains (e.g. analog drift between write cycles).  The
    ``injector`` is any of this module's ``inject_*`` functions,
    partially applied to its severity knobs.

    Parameters
    ----------
    injector:
        ``model -> snapshot`` callable; the returned snapshot is kept
        so transient faults can be undone.
    every:
        Inject at the start of every ``every``-th epoch (1 = each).
    transient:
        If True, the pristine weights are restored at the end of the
        epoch — the fault only perturbs one epoch's updates.
    """

    def __init__(
        self,
        injector: Callable[[Module], Dict[str, np.ndarray]],
        every: int = 1,
        transient: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.injector = injector
        self.every = int(every)
        self.transient = transient
        self.injections = 0
        self._snapshot: Optional[Dict[str, np.ndarray]] = None

    @classmethod
    def from_spec(
        cls,
        spec: str,
        every: int = 1,
        transient: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> "FaultInjectionCallback":
        """Build from a shared fault-spec string (see FAULT_VOCABULARY).

        >>> cb = FaultInjectionCallback.from_spec("dropout:fraction=0.2", every=2)
        >>> cb.every
        2
        """
        return cls(build_injector(spec, rng=rng), every=every, transient=transient)

    def on_epoch_start(self, trainer, epoch: int) -> None:
        if epoch % self.every != 0:
            return
        self._snapshot = self.injector(trainer.model)
        self.injections += 1
        # Masked positions must stay dead even under fault perturbation.
        if trainer.method.masks is not None:
            trainer.method.masks.apply_masks()

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        if self.transient and self._snapshot is not None:
            restore(trainer.model, self._snapshot)
            self._snapshot = None


def inject_dead_neurons(
    model: Module,
    fraction: float,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, np.ndarray]:
    """Silence a fraction of output units per layer (dead neurons).

    Zeroes entire filter rows, modelling defective hardware neurons.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    gen = rng if rng is not None else np.random.default_rng()
    snapshot = _snapshot(model)
    for _, parameter in sparsifiable_parameters(model):
        rows = parameter.shape[0]
        dead = gen.choice(rows, size=int(fraction * rows), replace=False)
        parameter.data[dead] = 0.0
    return snapshot
