"""Resolution and DRAT proof logging and checking.

The interpreted CDCL kernel can log every learnt clause as a *resolution chain*:
a start clause plus a sequence of ``(antecedent_id, pivot_var)`` steps.
Replaying the chains (:class:`ResolutionProof`) validates the
refutation and drives UNSAT-core extraction and Craig interpolation
(:mod:`repro.sat.interpolation`).

:class:`DratProof` accepts the same logging calls but keeps only the
DRAT view — the ordered sequence of clause *additions* — and validates
each derived clause by reverse unit propagation (RUP), the check DRAT
tools perform.  Both proof sinks plug into the kernel unchanged.

Clause literals here are DIMACS-signed ints.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = ["ResolutionProof", "DratProof", "ProofError"]


class ProofError(ValueError):
    """Raised when a logged proof does not replay correctly."""


class _Step:
    __slots__ = ("kind", "lits", "start", "chain", "group")

    def __init__(self, kind: str, lits: Tuple[int, ...],
                 start: int = -1,
                 chain: Tuple[Tuple[int, int], ...] = (),
                 group: str | None = None) -> None:
        self.kind = kind            # "input" or "derived"
        self.lits = lits
        self.start = start
        self.chain = chain
        self.group = group


class ResolutionProof:
    """An append-only log of input clauses and resolution derivations."""

    def __init__(self) -> None:
        self._steps: List[_Step] = []

    def __len__(self) -> int:
        return len(self._steps)

    # ------------------------------------------------------------------
    # Logging (called by the solver)
    # ------------------------------------------------------------------
    def add_input(self, lits: Iterable[int], group: str | None = None) -> int:
        """Record an input (problem) clause; returns its proof id."""
        self._steps.append(_Step("input", tuple(lits), group=group))
        return len(self._steps) - 1

    def add_derived(self, start: int, chain: Sequence[Tuple[int, int]],
                    result_lits: Iterable[int]) -> int:
        """Record a derived clause.

        ``start`` is the id of the first antecedent; ``chain`` lists
        ``(antecedent_id, pivot_var)`` resolutions applied in order;
        ``result_lits`` is the clause the solver believes it derived
        (checked during replay).
        """
        if start < 0:
            raise ProofError("derived clause with invalid start id")
        if not chain:
            # Degenerate chain: the derived clause IS the start clause.
            return start
        self._steps.append(_Step("derived", tuple(result_lits), start,
                                 tuple(chain)))
        return len(self._steps) - 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def lits_of(self, proof_id: int) -> Tuple[int, ...]:
        return self._steps[proof_id].lits

    def is_input(self, proof_id: int) -> bool:
        return self._steps[proof_id].kind == "input"

    def inputs(self) -> List[int]:
        """Ids of all input clauses."""
        return [i for i, s in enumerate(self._steps) if s.kind == "input"]

    # ------------------------------------------------------------------
    # Replay / check
    # ------------------------------------------------------------------
    def replay(self, proof_id: int, strict: bool = True
               ) -> FrozenSet[int]:
        """Re-derive the clause at ``proof_id`` by literal-set resolution.

        Checks each chain step: the pivot must occur with opposite phases
        in the two operands.  With ``strict`` the replayed clause must
        match the recorded literals exactly (as a set).
        """
        cache: Dict[int, FrozenSet[int]] = {}
        for i in self._needed(proof_id):
            step = self._steps[i]
            if step.kind == "input":
                cache[i] = frozenset(step.lits)
                continue
            current = cache[step.start]
            for other_id, pivot in step.chain:
                other = cache[other_id]
                current = self._resolve(current, other, pivot)
            cache[i] = current
            if strict and current != frozenset(step.lits):
                raise ProofError(
                    f"step {i}: replay gives {sorted(current)}, "
                    f"solver recorded {sorted(step.lits)}")
        return cache[proof_id]

    def _needed(self, proof_id: int) -> List[int]:
        """Ids reachable from ``proof_id``, in dependency (ascending) order.

        Chains only reference earlier ids, so ascending id order is a
        valid topological order.
        """
        needed = set()
        stack = [proof_id]
        while stack:
            i = stack.pop()
            if i in needed:
                continue
            needed.add(i)
            step = self._steps[i]
            if step.kind == "derived":
                stack.append(step.start)
                stack.extend(a for a, _ in step.chain)
        return sorted(needed)

    @staticmethod
    def _resolve(a: FrozenSet[int], b: FrozenSet[int],
                 pivot: int) -> FrozenSet[int]:
        if pivot in a and -pivot in b:
            pos, neg = a, b
        elif -pivot in a and pivot in b:
            pos, neg = b, a
        else:
            raise ProofError(
                f"pivot {pivot} does not occur with opposite phases")
        return (pos - {pivot}) | (neg - {-pivot})

    def check_refutation(self, empty_id: int) -> bool:
        """Verify that ``empty_id`` derives the empty clause."""
        result = self.replay(empty_id, strict=False)
        if result:
            raise ProofError(f"final clause not empty: {sorted(result)}")
        return True

    # ------------------------------------------------------------------
    # Cores
    # ------------------------------------------------------------------
    def core_inputs(self, proof_id: int) -> List[int]:
        """Input clause ids used (transitively) by ``proof_id``."""
        return [i for i in self._needed(proof_id)
                if self._steps[i].kind == "input"]

    def core_clauses(self, proof_id: int) -> List[Tuple[int, ...]]:
        """The input clauses (as literal tuples) in the core."""
        return [self._steps[i].lits for i in self.core_inputs(proof_id)]


class DratProof(ResolutionProof):
    """DRAT-style clause-addition log checked by reverse unit propagation.

    Drop-in for :class:`ResolutionProof` on the *logging* side: the
    solver calls :meth:`add_input` / :meth:`add_derived` identically,
    but the resolution chains are discarded — only the order of clause
    additions matters, exactly what a DRAT proof records.  Checking
    replaces chain replay with the RUP test: a derived clause ``C`` is
    valid iff assuming ``¬C`` and unit-propagating over every clause
    added before it yields a conflict.  Clause deletions are not
    recorded; RUP checking remains sound with missing deletions (the
    database it propagates over is only ever larger than the
    solver's).

    Unlike resolution chains, a DRAT log carries no antecedent
    structure, so it cannot drive interpolation or exact cores —
    :meth:`core_inputs` degrades to the full input set.

    Example
    -------
    >>> p = DratProof()
    >>> a = p.add_input([1]); b = p.add_input([-1])
    >>> e = p.add_derived(a, [(b, 1)], [])
    >>> p.check_refutation(e)
    True
    """

    def add_derived(self, start: int, chain: Sequence[Tuple[int, int]],
                    result_lits: Iterable[int]) -> int:
        """Record a derived clause addition (the chain is discarded)."""
        if start < 0:
            raise ProofError("derived clause with invalid start id")
        if not chain:
            # Degenerate chain: the derived clause IS the start clause.
            return start
        self._steps.append(_Step("derived", tuple(result_lits), start, ()))
        return len(self._steps) - 1

    # ------------------------------------------------------------------
    # RUP checking
    # ------------------------------------------------------------------
    def verify(self, up_to: int | None = None) -> bool:
        """Forward-check every derived step (through ``up_to``) by RUP.

        Raises :class:`ProofError` at the first derived clause that is
        not a reverse-unit-propagation consequence of the additions
        before it.
        """
        clauses: List[List[int]] = []
        watches: Dict[int, List[int]] = {}
        units: List[int] = []

        def add_to_db(lits: Tuple[int, ...]) -> None:
            if len(lits) == 0:
                return
            if len(lits) == 1:
                units.append(lits[0])
                return
            ci = len(clauses)
            clauses.append(list(lits))
            watches.setdefault(lits[0], []).append(ci)
            watches.setdefault(lits[1], []).append(ci)

        def rup(clause: Tuple[int, ...]) -> bool:
            assign: Dict[int, bool] = {}
            queue: List[int] = []

            def enqueue(lit: int) -> bool:
                var, sign = abs(lit), lit > 0
                if var in assign:
                    return assign[var] != sign      # conflicting unit
                assign[var] = sign
                queue.append(lit)
                return False

            for lit in clause:
                if enqueue(-lit):
                    return True
            for lit in units:
                if enqueue(lit):
                    return True
            qi = 0
            while qi < len(queue):
                false_lit = -queue[qi]
                qi += 1
                watch_list = watches.get(false_lit)
                if not watch_list:
                    continue
                i = 0
                while i < len(watch_list):
                    ci = watch_list[i]
                    cl = clauses[ci]
                    if cl[0] == false_lit:
                        cl[0], cl[1] = cl[1], cl[0]
                    first = cl[0]
                    fv = assign.get(abs(first))
                    if fv is not None and fv == (first > 0):
                        i += 1                       # satisfied
                        continue
                    moved = False
                    for k in range(2, len(cl)):
                        q = cl[k]
                        qv = assign.get(abs(q))
                        if qv is None or qv == (q > 0):
                            cl[1], cl[k] = cl[k], cl[1]
                            watch_list[i] = watch_list[-1]
                            watch_list.pop()
                            watches.setdefault(q, []).append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                    if fv is None:
                        if enqueue(first):
                            return True
                        i += 1
                    else:
                        return True                  # clause falsified
            return False

        last = len(self._steps) - 1 if up_to is None else up_to
        for i, step in enumerate(self._steps[:last + 1]):
            if step.kind != "input" and not rup(step.lits):
                raise ProofError(
                    f"step {i}: clause {sorted(step.lits)} is not RUP")
            add_to_db(step.lits)
        return True

    def replay(self, proof_id: int, strict: bool = True) -> FrozenSet[int]:
        """RUP-check the log through ``proof_id``; returns its literals."""
        self.verify(proof_id)
        return frozenset(self._steps[proof_id].lits)

    def check_refutation(self, empty_id: int) -> bool:
        """Verify that ``empty_id`` is a RUP-derived empty clause."""
        if self._steps[empty_id].lits:
            raise ProofError(
                f"final clause not empty: "
                f"{sorted(self._steps[empty_id].lits)}")
        return self.verify(empty_id)

    def core_inputs(self, proof_id: int) -> List[int]:
        """All input ids: DRAT logs carry no antecedent structure, so
        the only sound core is the full input set."""
        return self.inputs()
