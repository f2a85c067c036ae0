"""Formula (2): the QBF formulation with a single copy of TR.

    R_k(Z0, Zk) = ∃ Z1..Zk-1 : I(Z0) ∧ F(Zk) ∧
                  ∀ U,V : ⋀_{i<k} ((U↔Zi) ∧ (V↔Zi+1) → TR(U, V))

Only **one** copy of the transition relation appears; increasing the
bound adds one fresh state vector and one selector term — the growth per
iteration is O(n) and *independent of |TR|* (the paper's key memory
argument, measured in experiment E2).

After Tseitin conversion the prefix has the shape ∃ (Z-vectors)
∀ (U, V) ∃ (inputs, auxiliaries): the auxiliary variables are functions
of Z/U/V and the primary inputs of TR must be chosen per universal
assignment, so both live in the innermost existential block.  The
number of universally quantified variables (2n) does not change from
iteration to iteration, as the paper notes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..logic import expr as ex
from ..logic.cnf import CNF, VarPool
from ..logic.expr import Expr
from ..logic.tseitin import TseitinEncoder
from ..qbf.pcnf import PCNF
from ..system.model import TransitionSystem
from .unroll import frame_name, state_frame

__all__ = ["QbfEncoding", "encode_qbf"]


class QbfEncoding:
    """The PCNF of formula (2) plus variable bookkeeping.

    Attributes
    ----------
    pcnf:
        Prenex CNF with prefix ∃(Z0..Zk) ∀(U,V) ∃(inputs, aux).
    """

    def __init__(self, system: TransitionSystem, final: Expr, k: int) -> None:
        if k < 1:
            raise ValueError("formula (2) needs k >= 1 (use SAT for k = 0)")
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        self.system = system
        self.final = final
        self.k = k
        self.pool = VarPool()
        self.pcnf = PCNF()
        self._encode()

    # ------------------------------------------------------------------
    def _z_names(self, step: int) -> List[str]:
        return state_frame(self.system, step)

    def _u_names(self) -> List[str]:
        return [f"{v}#U" for v in self.system.state_vars]

    def _v_names(self) -> List[str]:
        return [f"{v}#V" for v in self.system.state_vars]

    def _encode(self) -> None:
        system = self.system
        k = self.k
        pool = self.pool
        matrix = CNF()
        encoder = TseitinEncoder(matrix, pool)

        # Allocate the state vectors first so the prefix blocks are tidy.
        z_vars: List[List[int]] = []
        for i in range(k + 1):
            z_vars.append([pool.named(n) for n in self._z_names(i)])
        u_vars = [pool.named(n) for n in self._u_names()]
        v_vars = [pool.named(n) for n in self._v_names()]

        # I(Z0) and F(Zk) constrain the outer existentials directly.
        encoder.assert_expr(
            system.rename_state_expr(system.init, self._z_names(0)))
        encoder.assert_expr(
            system.rename_state_expr(self.final, self._z_names(k)))

        # One shared copy of TR(U, X, V), defined by a single literal.
        trans = system.trans_between(self._u_names(), self._v_names(),
                                     input_suffix="#X")
        trans_lit = encoder.encode(trans)

        # Selector for each step i: s_i <-> (U = Zi ∧ V = Zi+1);
        # the implication s_i -> TR yields one binary clause per step.
        for i in range(k):
            selector = ex.mk_and(
                ex.equal_vectors([ex.var(n) for n in self._u_names()],
                                 [ex.var(n) for n in self._z_names(i)]),
                ex.equal_vectors([ex.var(n) for n in self._v_names()],
                                 [ex.var(n) for n in self._z_names(i + 1)]))
            selector_lit = encoder.encode(selector)
            matrix.add_clause((-selector_lit, trans_lit))

        matrix.num_vars = max(matrix.num_vars, pool.num_vars)

        prefix_z = [v for frame in z_vars for v in frame]
        universal = u_vars + v_vars
        outer = set(prefix_z) | set(universal)
        inner = [v for v in range(1, matrix.num_vars + 1) if v not in outer]
        self.pcnf = PCNF(matrix=matrix)
        if prefix_z:
            self.pcnf.add_block("e", prefix_z)
        self.pcnf.add_block("a", universal)
        if inner:
            self.pcnf.add_block("e", inner)

    # ------------------------------------------------------------------
    def state_var(self, name: str, step: int) -> int:
        """Matrix variable of state bit ``name`` at the given step."""
        return self.pool.named(frame_name(name, step))

    def extract_states(self, assignment: Dict[int, bool]
                       ) -> List[Dict[str, bool]]:
        """Read the Z vectors out of a (winning) QBF assignment."""
        states = []
        for i in range(self.k + 1):
            states.append({
                v: bool(assignment.get(self.state_var(v, i), False))
                for v in self.system.state_vars})
        return states

    def stats(self) -> Dict[str, int]:
        out = self.pcnf.stats()
        out["trans_copies"] = 1
        return out


def encode_qbf(system: TransitionSystem, final: Expr, k: int) -> QbfEncoding:
    """Build the formula (2) encoding for the given query."""
    return QbfEncoding(system, final, k)
