"""Module/Parameter system mirroring the familiar torch.nn contract."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor.

    Parameters register themselves on the owning :class:`Module` via
    ``__setattr__`` and always require gradients.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    Parameters and submodules assigned as attributes are discovered
    automatically, so ``named_parameters`` / ``state_dict`` work without
    explicit registration.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            object.__setattr__(self, name, value)
        elif isinstance(value, Module):
            self._modules[name] = value
            object.__setattr__(self, name, value)
        else:
            # Re-assignment of a registered name keeps registries in sync.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
            object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved in ``state_dict``."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a previously registered buffer in place of record."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield (prefix + name, parameter)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, parameter in self.named_parameters():
            yield parameter

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, value in self._buffers.items():
            yield (prefix + name, value)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, parameter in self.named_parameters():
            state[name] = parameter.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        parameters = dict(self.named_parameters())
        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for module_name, module in self.named_modules():
            for buffer_name in module._buffers:
                full = f"{module_name}.{buffer_name}" if module_name else buffer_name
                buffer_owners[full] = (module, buffer_name)
        # Check every key and shape, and mark every attached sparse state
        # stale, before the first write: a refused load (unknown key, bad
        # shape, a frozen serving state) leaves the model untouched.
        # Restoring weights bypasses the optimizer's write-through hook,
        # hence the staleness mark (duck-typed to avoid an import cycle).
        for name, value in state.items():
            if name in parameters:
                target = parameters[name]
                if target.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"{target.data.shape} vs {value.shape}"
                    )
                masked_state = getattr(target, "_masked_state", None)
                if masked_state is not None:
                    masked_state.mark_values_dirty()
            elif name not in buffer_owners:
                raise KeyError(f"unexpected key in state dict: {name!r}")
        for name, value in state.items():
            if name in parameters:
                parameters[name].data = np.array(value, dtype=np.float32, copy=True)
            else:
                module, buffer_name = buffer_owners[name]
                module.update_buffer(buffer_name, np.array(value, copy=True))

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if self._modules else self.__class__.__name__ + "()"

    def count_parameters(self, trainable_only: bool = True) -> int:
        """Total number of (trainable) parameter elements."""
        return sum(p.size for p in self.parameters() if p.requires_grad or not trainable_only)
