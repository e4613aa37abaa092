"""Randomly-structured PQCs — the paper's variance-analysis circuits (Eq. 2).

For the gradient-variance study each of the 200 circuit instances draws,
independently per qubit per layer, one rotation gate from the pool
``G = {RX, RY, RZ}``, followed by the CZ chain.  The *structure* (which
gate sits where) is part of the random instance; the *angles* come from the
initializer under test.  :class:`RandomPQC` therefore separates the two:
the constructor samples and freezes a structure from a seed as an integer
code table (``codes``, indices into the pool), ``build`` returns the
corresponding trainable circuit, and the structure is
inspectable/serializable for reproducibility.

Shape fingerprints
------------------
Although every instance's gate *choices* differ, all instances sampled for
one grid cell share a circuit **shape**: the same wire pattern, the same
trainable parameter slots, the same fixed entangling layers — only the
identity of the rotation occupying each slot varies.
:func:`circuit_shape_key` canonicalizes that shape into a hashable
fingerprint (gate types and wires for fixed operations, wires and
parameter slots — *not* gate names or angles — for trainable ones).
Structures with equal fingerprints can be folded into one mega-batched
execution (:class:`repro.backend.simulator.MegaBatchPlan`).  The variance
engine builds no circuit per structure: one plan over the configuration's
:meth:`RandomPQC.skeleton` and the stacked code tables turns hundreds of
per-structure executions into a handful of hundred-row ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ansatz.base import AnsatzTemplate, check_entangler, check_rotation_gates
from repro.ansatz.entanglement import apply_entanglement, entanglement_pairs
from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import get_gate
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["RandomPQC", "DEFAULT_GATE_POOL", "circuit_shape_key"]

#: Hashable circuit-shape fingerprint (see :func:`circuit_shape_key`).
ShapeKey = Tuple


def circuit_shape_key(circuit: QuantumCircuit) -> ShapeKey:
    """Hashable fingerprint of a circuit's gate-sequence *shape*.

    Two circuits share a shape exactly when they agree on everything
    except which parametric gate occupies each trainable slot: same qubit
    count, same operation count, same wires per operation, same trainable
    parameter slots, and identical fixed / bound-parameter operations.
    Same-shape circuits can evolve different rows of one amplitude stack
    (:meth:`repro.backend.simulator.StatevectorSimulator.run_megabatch`):
    per trainable slot the kernels apply a per-row gate-matrix stack, so
    the drawn gate name — like the angle — is row data, not shape.

    The fingerprint deliberately excludes trainable gate names and all
    angles; it includes bound-parameter values because those are baked
    into the executed matrices.
    """
    parts: List[Tuple] = [("n", circuit.num_qubits)]
    for op in circuit.operations:
        if op.is_trainable:
            parts.append(("theta", op.qubits, op.param_index))
        elif op.is_parametric:
            parts.append((op.gate.name, op.qubits, float(op.value)))
        else:
            parts.append((op.gate.name, op.qubits))
    return tuple(parts)

#: The paper's pool G of candidate rotations.
DEFAULT_GATE_POOL: Tuple[str, ...] = ("RX", "RY", "RZ")

#: Per-configuration circuit skeletons (canonical gate plans): one
#: validated append-built circuit, shared by every
#: :meth:`RandomPQC.skeleton` of that configuration (see its docstring).
#: Keyed by (num_qubits, num_layers, entanglement, entangler) and bounded
#: FIFO so long-lived processes sweeping many configurations cannot grow
#: it without limit.
_SKELETON_CACHE: dict = {}
_SKELETON_CACHE_MAX = 32


class RandomPQC(AnsatzTemplate):
    """A PQC whose per-qubit rotations are randomly drawn from a pool.

    Parameters
    ----------
    num_qubits, num_layers:
        Circuit width and depth.
    gate_pool:
        Candidate single-qubit rotations (paper default RX/RY/RZ).
    entanglement, entangler:
        Entangling sub-layer configuration (paper default: CZ chain).
    seed:
        Seed (or generator) fixing the sampled structure.
    structure:
        Explicit structure overriding the random draw: a list of
        ``num_layers`` rows, each with ``num_qubits`` gate names.

    Attributes
    ----------
    codes:
        The drawn structure, a ``(num_layers, num_qubits)`` integer array
        of indices into ``gate_pool`` (a name the pool repeats is coded by
        its first position when the structure is given explicitly).
    """

    def __init__(
        self,
        num_qubits: int,
        num_layers: int,
        gate_pool: Sequence[str] = DEFAULT_GATE_POOL,
        entanglement: str = "chain",
        entangler: str = "CZ",
        seed: SeedLike = None,
        structure: Optional[Sequence[Sequence[str]]] = None,
    ):
        super().__init__(num_qubits, num_layers)
        self.gate_pool = pool = check_rotation_gates(gate_pool, "gate_pool")
        self.entangler = check_entangler(entangler)
        entanglement_pairs(entanglement, num_qubits)
        self.entanglement = entanglement

        if structure is not None:
            self.codes = self._validate_structure(structure)
        else:
            rng = ensure_rng(seed)
            # One vectorized draw; numpy's bounded-integer sampling
            # consumes the bit stream exactly as the equivalent
            # per-element draws would, so seeded structures are unchanged.
            self.codes = rng.integers(len(pool), size=(num_layers, num_qubits))

    def _validate_structure(
        self, structure: Sequence[Sequence[str]]
    ) -> np.ndarray:
        rows = [list(name.upper() for name in row) for row in structure]
        if len(rows) != self.num_layers or any(
            len(row) != self.num_qubits for row in rows
        ):
            raise ValueError(
                f"structure must be {self.num_layers} x {self.num_qubits} gate names"
            )
        for name in (name for row in rows for name in row):
            if name not in self.gate_pool:
                raise ValueError(
                    f"structure gate {name!r} is not in the pool {self.gate_pool}"
                )
        return np.array([[self.gate_pool.index(name) for name in row] for row in rows])

    @property
    def structure(self) -> List[List[str]]:
        """The drawn gate names: ``num_layers`` rows of ``num_qubits``."""
        pool = self.gate_pool
        return [[pool[code] for code in row] for row in self.codes.tolist()]

    @property
    def params_per_qubit(self) -> int:
        return 1

    def skeleton(self) -> QuantumCircuit:
        """A copy of the circuit skeleton every instance of this
        ``(num_qubits, num_layers, entanglement, entangler)`` shares.

        One trainable rotation slot per qubit per layer (layer-major: slot
        ``k`` is parameter ``k`` and code ``codes.flat[k]``) plus the
        entangling sub-layers, appended and validated once per
        configuration and cached.  Copies share its operation objects, so
        caller edits never reach the cache.  The pool gate a skeleton slot
        holds is unspecified: :meth:`build` sets every slot, and a
        :class:`~repro.backend.simulator.MegaBatchPlan` reads them from a
        code table.
        """
        key = (
            self.num_qubits,
            self.num_layers,
            self.entanglement,
            self.entangler,
        )
        skeleton = _SKELETON_CACHE.get(key)
        if skeleton is None:
            skeleton = QuantumCircuit(self.num_qubits)
            for _ in range(self.num_layers):
                for qubit in range(self.num_qubits):
                    skeleton.append(self.gate_pool[0], [qubit])
                apply_entanglement(skeleton, self.entanglement, self.entangler)
            while len(_SKELETON_CACHE) >= _SKELETON_CACHE_MAX:
                _SKELETON_CACHE.pop(next(iter(_SKELETON_CACHE)))
            _SKELETON_CACHE[key] = skeleton
        return skeleton.copy()

    def build(self) -> QuantumCircuit:
        """Construct the trainable circuit for the frozen structure.

        The :meth:`skeleton` with each rotation slot set to this
        structure's draw.  The result compares equal, operation by
        operation, to an appended build — fixed operations are even the
        *same* objects across structures — while skipping the per-gate
        validation the constructor already performed.
        """
        gates = [get_gate(name) for name in self.gate_pool]
        return self.skeleton().with_slot_gates(
            [gates[code] for code in self.codes.ravel().tolist()]
        )

    @property
    def last_gate(self) -> str:
        """Rotation gate carrying the last trainable parameter."""
        return self.gate_pool[self.codes[-1, -1]]
