"""Small argument-validation helpers used across the library.

These raise uniform, descriptive exceptions so user-facing APIs fail fast
with actionable messages instead of deep numpy stack traces.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_qubit_index(qubit: int, num_qubits: int, name: str = "qubit") -> int:
    """Validate that ``qubit`` is a valid index into ``num_qubits`` wires."""
    if isinstance(qubit, bool) or not isinstance(qubit, (int,)):
        raise TypeError(f"{name} must be an int, got {type(qubit).__name__}")
    if not 0 <= qubit < num_qubits:
        raise ValueError(
            f"{name}={qubit} is out of range for a {num_qubits}-qubit system"
        )
    return qubit


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_choices(value: str, choices: Iterable[str], name: str) -> str:
    """Validate that ``value`` is one of ``choices`` and return it."""
    options = sorted(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def host_memory_bytes() -> Optional[int]:
    """This host's physical memory in bytes, or ``None`` where the OS
    does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _format_bytes(size: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if size < 1024 or unit == "PiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{size} B"
        size /= 1024
    raise AssertionError("unreachable")


def check_register_fits(num_qubits: int, noisy: bool = False) -> int:
    """Reject a width whose single register row exceeds physical memory.

    A statevector row holds ``2**n`` complex128 amplitudes (``16 * 2**n``
    bytes); a noisy run's Pauli-vector row ``4**n`` (``16 * 4**n``).  A
    width no row of which fits would only die allocating its first stack.
    """
    row_bytes = 16 * 2 ** (2 * num_qubits if noisy else num_qubits)
    memory = host_memory_bytes()
    if memory is not None and row_bytes > memory:
        kind = "Pauli-vector" if noisy else "statevector"
        raise ValueError(
            f"{num_qubits} qubits do not fit this host: one {kind} row takes "
            f"{_format_bytes(row_bytes)}, the host has "
            f"{_format_bytes(memory)} of physical memory"
        )
    return num_qubits
