"""Array-based CDCL kernel: the one SAT engine, built by ``make_solver``.

:class:`KernelSolver` keeps its clause database flat and
DIMACS-oriented instead of in per-clause Python objects:

* **clause arena** — every non-binary clause lives in one flat int
  list (``[proof_id, lbd, flags, size, lit0, lit1, ...]``); a clause
  reference is the arena index of its first literal, so propagation
  and analysis touch plain list slots, never object attributes;
* **binary specialization** — two-literal clauses (the bulk of any
  Tseitin encoding, and every activation-guard clause) skip the arena
  entirely: each literal carries a direct implication list, and a
  binary reason is encoded in-place as a negative reason word;
* **lazy watcher lists with blocker literals** — each watch entry
  carries a cached *blocker*; a satisfied blocker skips the clause
  without touching the arena, and watcher lists are compacted in place
  (no per-propagation list rebuild);
* **EVSIDS branching with decay and phase saving** — exponential
  activity bumps with periodic rescale, lazy heap entries, and the
  last-assigned polarity re-used at decisions;
* **reluctant-doubling restarts** — Knuth's (u, v) pair, generating
  the Luby sequence without the arithmetic of the closed form;
* **LBD-aged learnt-clause GC** — the learnt database is halved by
  literal-block distance (glue clauses and binaries are kept), and
  the arena is compacted once the dead-clause waste dominates.

:func:`make_solver` builds every production solver on this kernel,
compiled (``ckernel.c``) or interpreted (``REPRO_SAT_CC=off``, or any
solver with a proof sink).  The interpreted build logs resolution and
DRAT proof steps, which drive UNSAT cores, Craig interpolation and
proof checking.  ``tests/test_kernel_differential.py`` pins the two
builds to each other in lock-step, checks every SAT model against its
formula and every interpreted UNSAT answer with a DRAT check, and
cross-checks verdicts against DPLL and brute-force enumeration.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from . import ckernel as _ckernel
from .proof import ResolutionProof
from .types import (Budget, BudgetExceeded, SolveResult, from_internal,
                    stop_check_installed, stop_requested, to_internal)

__all__ = ["KernelSolver", "SolverStats", "make_solver"]

#: Largest variable index either build accepts: the compiled core keeps
#: internal literals (2v, 2v + 1) in int32 slots.
MAX_VAR = (1 << 30) - 1

# Arena layout: header words live *before* the clause reference.
_H_PROOF = -4            # proof id (-1 when no proof is attached)
_H_LBD = -3              # literal-block distance (0 for problem clauses)
_H_FLAGS = -2            # bit 0: learnt, bit 1: deleted
_H_SIZE = -1             # number of literals
_HEADER = 4
_LEARNT = 1
_DELETED = 2

_UNLIMITED = 1 << 62     # sentinel for "no countable budget limit"
_NO_LIMITS = Budget().start()


def _check_var(v: int) -> None:
    if v > MAX_VAR:
        raise ValueError(f"variable {v} out of range: at most {MAX_VAR}")


def _int32_lits(dimacs_lits: Iterable[int]) -> array:
    """Literals as a C int32 buffer; the core range-checks each one."""
    try:
        return array("i", dimacs_lits)
    except OverflowError:
        raise ValueError(f"literal out of range: variables go up to "
                         f"{MAX_VAR}") from None


def _bkey(a: int, b: int) -> int:
    """Order-independent dictionary key for a binary clause."""
    return (a << 32) | b if a < b else (b << 32) | a


class SolverStats:
    """Counters exposed for the experiments (see bench_e6_memory)."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts",
                 "learned", "deleted", "purged", "db_literals",
                 "peak_db_literals", "solve_calls", "minimized_literals")

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        self.deleted = 0
        self.purged = 0
        self.db_literals = 0
        self.peak_db_literals = 0
        self.solve_calls = 0
        self.minimized_literals = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        return f"SolverStats({self.as_dict()})"


class KernelSolver:
    """Array-based CDCL solver.

    Example
    -------
    >>> s = KernelSolver()
    >>> s.add_clause([1, 2])
    True
    >>> s.add_clause([-1, 2])
    True
    >>> s.solve() is SolveResult.SAT
    True
    >>> s.model_value(2)
    True
    """

    backend = "interpreted"

    def __new__(cls, proof: ResolutionProof | None = None):
        """Dispatch to the compiled core when it applies.

        Proof-free solves go to the C core (when a compiler was
        available); proof-logged solves and no-compiler environments
        use the pure-Python array path below.  Both are the same
        engine — the differential suite pins them to each other.  A
        failed core build or load counts
        each fallback solver in ``sat.core_fallbacks``.
        """
        if cls is KernelSolver and proof is None:
            if _ckernel.load_core() is not None:
                return object.__new__(_CKernelSolver)
            if _ckernel.fallback_reason() is not None:
                current_metrics().inc("sat.core_fallbacks")
        return object.__new__(cls)

    def __init__(self, proof: ResolutionProof | None = None) -> None:
        self.proof = proof
        self.ok = True
        self.stats = SolverStats()
        self._nvars = 0
        # Per-literal (index 2v / 2v+1; slots 0-1 unused):
        self._vals: List[int] = [0, 0]        # 1 true, -1 false, 0 unassigned
        self._bins: List[List[int]] = [[], []]   # direct binary implications
        self._wc: List[List[int]] = [[], []]  # watched clause refs
        self._wb: List[List[int]] = [[], []]  # blocker literals
        # Per-variable (slot 0 unused):
        self._level: List[int] = [0]
        self._reason: List[int] = [0]         # cref > 0 | -other (binary) | 0
        self._act: List[float] = [0.0]
        self._pol: List[int] = [1]            # saved phase bit (1 = negative)
        self._seen: List[int] = [0]           # scratch for analyze
        self._unit_proof: List[int] = [-1]    # proof id of level-0 units
        # Clause database:
        self._arena: List[int] = [0] * _HEADER
        self._crefs: List[int] = []           # long problem clauses
        self._lrefs: List[int] = []           # long learnt clauses
        self._bin_pairs: List[List[int]] = []  # [a, b, learnt, alive]
        self._bin_proof: Dict[int, int] = {}  # _bkey -> proof id
        self._n_bin_problem = 0
        self._n_bin_learnt = 0
        self._wasted = 0                      # dead arena words
        # Search state:
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[tuple] = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._model: List[int] = []
        self._core: List[int] = []
        self._bin_conflict = (0, 0)
        self._deadline: float | None = None
        self._lim_conflicts = _UNLIMITED
        self._lim_decisions = _UNLIMITED
        self._lim_propagations = _UNLIMITED
        self._lim_literals = _UNLIMITED
        self._run_conflicts = 0
        self._run_decisions = 0
        self._empty_clause_proof = -1

    # ==================================================================
    # Variables
    # ==================================================================
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its DIMACS index."""
        self._nvars += 1
        self._vals.extend((0, 0))
        self._bins.append([])
        self._bins.append([])
        self._wc.append([])
        self._wc.append([])
        self._wb.append([])
        self._wb.append([])
        self._level.append(0)
        self._reason.append(0)
        self._act.append(0.0)
        self._pol.append(1)
        self._seen.append(0)
        self._unit_proof.append(-1)
        heappush(self._heap, (-0.0, self._nvars))
        return self._nvars

    def ensure_vars(self, up_to: int) -> None:
        """Make sure variables ``1..up_to`` exist."""
        _check_var(up_to)
        while self._nvars < up_to:
            self.new_var()

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._nvars

    def fixed_value(self, dimacs_lit: int) -> Optional[bool]:
        """Value of a literal fixed at decision level 0, else None."""
        v = abs(dimacs_lit)
        if v > self._nvars:
            return None
        a = self._vals[2 * v]
        if a == 0 or self._level[v] != 0:
            return None
        val = a > 0
        return val if dimacs_lit > 0 else not val

    def set_default_phase(self, dimacs_var: int, phase: bool) -> None:
        """Seed the saved phase of a variable (decision polarity hint)."""
        self.ensure_vars(abs(dimacs_var))
        self._pol[abs(dimacs_var)] = 0 if phase else 1

    # ==================================================================
    # Clauses
    # ==================================================================
    def add_clause(self, dimacs_lits: Iterable[int]) -> bool:
        """Add a clause; False means the formula is refuted, True
        promises nothing (a conflict may show only at the next solve,
        depending on the units earlier searches learnt).

        The solver backtracks to decision level 0 before adding.
        """
        self._cancel_until(0)
        if not self.ok:
            return False
        lits = sorted({to_internal(l) for l in dimacs_lits})
        if lits:
            self.ensure_vars(lits[-1] >> 1)
        proof_id = -1
        proof_on = self.proof is not None
        if proof_on:
            proof_id = self.proof.add_input(
                [from_internal(l) for l in lits])

        vals = self._vals
        out: List[int] = []
        strip_chain: List[tuple] = []
        prev = 0
        for l in lits:
            if prev != 0 and (l ^ 1) == prev:
                return True                     # tautology: drop
            prev = l
            val = vals[l]
            if val > 0:
                return True                     # satisfied at level 0
            if val < 0:
                strip_chain.append((self._unit_proof[l >> 1], l >> 1))
                continue                        # false at level 0: strip
            out.append(l)
        if proof_on and strip_chain:
            proof_id = self.proof.add_derived(
                proof_id, strip_chain, [from_internal(l) for l in out])

        if not out:
            self.ok = False
            self._empty_clause_proof = proof_id
            return False
        if len(out) == 1:
            self._enqueue(out[0], 0, unit_proof=proof_id)
            conflict = self._propagate()
            if conflict != 0:
                self.ok = False
                self._log_final_conflict(conflict)
                return False
            return True
        if len(out) == 2:
            self._add_binary(out[0], out[1], learnt=False,
                             proof_id=proof_id)
            return True
        cref = self._push_arena(out, learnt=False, proof_id=proof_id)
        self._crefs.append(cref)
        self._attach(cref, out[0], out[1])
        return True

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> bool:
        """Add many clauses; returns False if the formula became UNSAT."""
        result = True
        for lits in clause_list:
            if not self.add_clause(lits):
                result = False
        return result

    def _push_arena(self, lits: Sequence[int], learnt: bool,
                    proof_id: int, lbd: int = 0) -> int:
        arena = self._arena
        arena.append(proof_id)
        arena.append(lbd)
        arena.append(_LEARNT if learnt else 0)
        arena.append(len(lits))
        cref = len(arena)
        arena.extend(lits)
        return cref

    def _add_binary(self, a: int, b: int, learnt: bool,
                    proof_id: int) -> None:
        self._bins[a ^ 1].append(b)
        self._bins[b ^ 1].append(a)
        self._bin_pairs.append([a, b, 1 if learnt else 0, 1])
        if learnt:
            self._n_bin_learnt += 1
        else:
            self._n_bin_problem += 1
        if self.proof is not None:
            self._bin_proof[_bkey(a, b)] = proof_id
        self.stats.db_literals += 2
        if self.stats.db_literals > self.stats.peak_db_literals:
            self.stats.peak_db_literals = self.stats.db_literals

    def _attach(self, cref: int, l0: int, l1: int) -> None:
        self._wc[l0].append(cref)
        self._wb[l0].append(l1)
        self._wc[l1].append(cref)
        self._wb[l1].append(l0)
        size = self._arena[cref + _H_SIZE]
        self.stats.db_literals += size
        if self.stats.db_literals > self.stats.peak_db_literals:
            self.stats.peak_db_literals = self.stats.db_literals

    def _detach(self, cref: int) -> None:
        """Remove a long clause's two watch entries (swap-pop)."""
        arena = self._arena
        for w in (arena[cref], arena[cref + 1]):
            ws = self._wc[w]
            try:
                i = ws.index(cref)
            except ValueError:      # pragma: no cover - defensive
                continue
            bs = self._wb[w]
            ws[i] = ws[-1]
            bs[i] = bs[-1]
            ws.pop()
            bs.pop()
        self.stats.db_literals -= arena[cref + _H_SIZE]

    def _delete_clause(self, cref: int) -> None:
        arena = self._arena
        self._detach(cref)
        arena[cref + _H_FLAGS] |= _DELETED
        self._wasted += arena[cref + _H_SIZE] + _HEADER

    def purge_satisfied(self) -> int:
        """Physically delete clauses satisfied at level 0.

        Implements jSAT-style clause retraction: after a group literal
        is retired with ``add_clause([-g])``, every clause carrying
        ``-g`` is satisfied at level 0 and reclaimed here.  Returns
        the number of clauses purged.
        """
        self._cancel_until(0)
        vals = self._vals
        level = self._level
        arena = self._arena
        purged = 0
        # Level-0 reasons are never consulted again (conflict analysis
        # skips level-0 literals); clearing them unpins every clause.
        for lit in self._trail:
            self._reason[lit >> 1] = 0
        # Binary clauses.
        kept_pairs: List[List[int]] = []
        bins_dirty = False
        for pair in self._bin_pairs:
            a, b = pair[0], pair[1]
            if (vals[a] > 0 and level[a >> 1] == 0) or \
                    (vals[b] > 0 and level[b >> 1] == 0):
                purged += 1
                bins_dirty = True
                self.stats.db_literals -= 2
                if pair[2]:
                    self._n_bin_learnt -= 1
                else:
                    self._n_bin_problem -= 1
                self._bin_proof.pop(_bkey(a, b), None)
            else:
                kept_pairs.append(pair)
        if bins_dirty:
            self._bin_pairs = kept_pairs
            for lst in self._bins:
                del lst[:]
            for a, b, _learnt, _alive in kept_pairs:
                self._bins[a ^ 1].append(b)
                self._bins[b ^ 1].append(a)
        # Long clauses.
        for store in (self._crefs, self._lrefs):
            for cref in store:
                if arena[cref + _H_FLAGS] & _DELETED:
                    continue
                for i in range(cref, cref + arena[cref + _H_SIZE]):
                    l = arena[i]
                    if vals[l] > 0 and level[l >> 1] == 0:
                        self._delete_clause(cref)
                        purged += 1
                        break
        self._compact()
        self.stats.purged += purged
        return purged

    def _compact(self) -> None:
        """Rebuild the arena without dead clauses; remap refs/reasons."""
        arena = self._arena
        new_arena: List[int] = [0] * _HEADER
        remap: Dict[int, int] = {}
        for store in (self._crefs, self._lrefs):
            kept: List[int] = []
            for cref in store:
                if arena[cref + _H_FLAGS] & _DELETED:
                    continue
                size = arena[cref + _H_SIZE]
                new_arena.extend(arena[cref - _HEADER:cref + size])
                ncref = len(new_arena) - size
                remap[cref] = ncref
                kept.append(ncref)
            store[:] = kept
        self._arena = new_arena
        self._wasted = 0
        reason = self._reason
        for lit in self._trail:
            r = reason[lit >> 1]
            if r > 0:
                reason[lit >> 1] = remap[r]
        for lit in range(2, 2 * self._nvars + 2):
            del self._wc[lit][:]
            del self._wb[lit][:]
        arena = new_arena
        for store in (self._crefs, self._lrefs):
            for cref in store:
                l0 = arena[cref]
                l1 = arena[cref + 1]
                self._wc[l0].append(cref)
                self._wb[l0].append(l1)
                self._wc[l1].append(cref)
                self._wb[l1].append(l0)

    # ==================================================================
    # Trail
    # ==================================================================
    def _enqueue(self, lit: int, reason: int, unit_proof: int = -1) -> None:
        """Assign ``lit`` true with the given reason word (cold path)."""
        v = lit >> 1
        self._vals[lit] = 1
        self._vals[lit ^ 1] = -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)
        if self.proof is not None and not self._trail_lim:
            self._record_unit_proof(lit, reason, unit_proof)

    def _reason_lits(self, lit: int, reason: int) -> Sequence[int]:
        """The literals of the reason clause that implied ``lit``."""
        if reason > 0:
            arena = self._arena
            return arena[reason:reason + arena[reason + _H_SIZE]]
        return (lit, -reason)

    def _reason_proof_id(self, lit: int, reason: int) -> int:
        if reason > 0:
            return self._arena[reason + _H_PROOF]
        return self._bin_proof.get(_bkey(lit, -reason), -1)

    def _record_unit_proof(self, lit: int, reason: int,
                           unit_proof: int) -> None:
        v = lit >> 1
        if unit_proof >= 0:
            self._unit_proof[v] = unit_proof
            return
        if reason == 0:
            return
        unit = self._unit_proof
        chain = [(unit[q >> 1], q >> 1)
                 for q in self._reason_lits(lit, reason) if q != lit]
        start = self._reason_proof_id(lit, reason)
        if chain:
            unit[v] = self.proof.add_derived(
                start, chain, [from_internal(lit)])
        else:
            unit[v] = start

    def _cancel_until(self, target_level: int) -> None:
        lim = self._trail_lim
        if len(lim) <= target_level:
            return
        boundary = lim[target_level]
        trail = self._trail
        vals = self._vals
        pol = self._pol
        reason = self._reason
        act = self._act
        heap = self._heap
        for i in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[i]
            v = lit >> 1
            pol[v] = lit & 1
            vals[lit] = 0
            vals[lit ^ 1] = 0
            reason[v] = 0
            heappush(heap, (-act[v], v))
        del trail[boundary:]
        del lim[target_level:]
        if self._qhead > boundary:
            self._qhead = boundary

    # ==================================================================
    # Propagation
    # ==================================================================
    def _propagate(self) -> int:
        """Unit propagation; returns the conflicting clause ref.

        The return value is a long-clause arena ref, ``-1`` for a
        binary-clause conflict (the pair is left in
        ``self._bin_conflict``), or ``0`` for no conflict.
        """
        trail = self._trail
        vals = self._vals
        arena = self._arena
        wcs = self._wc
        wbs = self._wb
        bins = self._bins
        level = self._level
        reason = self._reason
        qhead = self._qhead
        start = qhead
        dl = len(self._trail_lim)
        rec = self.proof is not None and dl == 0
        confl = 0
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            bl = bins[p]
            if bl:
                np = -(p ^ 1)
                for b in bl:
                    vb = vals[b]
                    if vb > 0:
                        continue
                    if vb == 0:
                        vals[b] = 1
                        vals[b ^ 1] = -1
                        level[b >> 1] = dl
                        reason[b >> 1] = np
                        trail.append(b)
                        if rec:
                            self._record_unit_proof(b, np, -1)
                    else:
                        self._bin_conflict = (b, p ^ 1)
                        confl = -1
                        break
                if confl:
                    break
            flit = p ^ 1
            ws = wcs[flit]
            if not ws:
                continue
            bs = wbs[flit]
            i = j = 0
            n = len(ws)
            while i < n:
                blk = bs[i]
                if vals[blk] > 0:
                    if i != j:
                        ws[j] = ws[i]
                        bs[j] = blk
                    i += 1
                    j += 1
                    continue
                cref = ws[i]
                i += 1
                first = arena[cref]
                if first == flit:
                    first = arena[cref + 1]
                    arena[cref] = first
                    arena[cref + 1] = flit
                fv = vals[first]
                if fv > 0:
                    ws[j] = cref
                    bs[j] = first
                    j += 1
                    continue
                k = cref + 2
                end = cref + arena[cref + _H_SIZE]
                while k < end:
                    q = arena[k]
                    if vals[q] >= 0:
                        break
                    k += 1
                if k < end:
                    arena[cref + 1] = q
                    arena[k] = flit
                    wcs[q].append(cref)
                    wbs[q].append(first)
                    continue
                ws[j] = cref
                bs[j] = first
                j += 1
                if fv < 0:
                    confl = cref
                    while i < n:
                        ws[j] = ws[i]
                        bs[j] = bs[i]
                        i += 1
                        j += 1
                    break
                vals[first] = 1
                vals[first ^ 1] = -1
                level[first >> 1] = dl
                reason[first >> 1] = cref
                trail.append(first)
                if rec:
                    self._record_unit_proof(first, cref, -1)
            del ws[j:]
            del bs[j:]
            if confl:
                break
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return confl

    # ==================================================================
    # Conflict analysis
    # ==================================================================
    def _bump_var(self, v: int) -> None:
        act = self._act
        a = act[v] + self._var_inc
        act[v] = a
        if a > 1e100:
            self._rescale_activity()
        elif self._vals[2 * v] == 0:
            heappush(self._heap, (-a, v))

    def _rescale_activity(self) -> None:
        act = self._act
        vals = self._vals
        for i in range(1, self._nvars + 1):
            act[i] *= 1e-100
        self._var_inc *= 1e-100
        fresh = [(-act[v], v) for v in range(1, self._nvars + 1)
                 if vals[2 * v] == 0]
        fresh.sort()
        self._heap = fresh

    def _conflict_lits(self, confl: int) -> Sequence[int]:
        if confl == -1:
            return self._bin_conflict
        arena = self._arena
        return arena[confl:confl + arena[confl + _H_SIZE]]

    def _conflict_proof_id(self, confl: int) -> int:
        if confl == -1:
            a, b = self._bin_conflict
            return self._bin_proof.get(_bkey(a, b), -1)
        return self._arena[confl + _H_PROOF]

    def _analyze(self, confl: int) -> tuple:
        """First-UIP analysis.

        Returns ``(learnt_lits, backtrack_level, proof_id)`` where
        ``learnt_lits[0]`` is the asserting literal.
        """
        level = self._level
        seen = self._seen
        act = self._act
        vals = self._vals
        heap = self._heap
        var_inc = self._var_inc
        trail = self._trail
        reason = self._reason
        proof_on = self.proof is not None

        learnt: List[int] = [0]
        touched: List[int] = []
        path_count = 0
        p = -1
        index = len(trail) - 1
        current_level = len(self._trail_lim)
        chain: List[tuple] = []
        start_id = self._conflict_proof_id(confl) if proof_on else -1
        clits = self._conflict_lits(confl)

        while True:
            for q in clits:
                if q == p:
                    continue
                v = q >> 1
                if seen[v]:
                    continue
                lv = level[v]
                if lv == 0:
                    if proof_on:
                        chain.append((self._unit_proof[v], v))
                    continue
                seen[v] = 1
                touched.append(v)
                a = act[v] + var_inc
                act[v] = a
                if a > 1e100:
                    self._var_inc = var_inc
                    self._rescale_activity()
                    var_inc = self._var_inc
                    heap = self._heap
                elif vals[2 * v] == 0:
                    heappush(heap, (-a, v))
                if lv >= current_level:
                    path_count += 1
                else:
                    learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            path_count -= 1
            if path_count == 0:
                break
            r = reason[v]
            clits = self._reason_lits(p, r)
            if proof_on:
                chain.append((self._reason_proof_id(p, r), v))
        learnt[0] = p ^ 1

        learnt, chain = self._minimize(learnt, chain)

        for v in touched:
            seen[v] = 0

        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]

        proof_id = -1
        if proof_on:
            proof_id = self.proof.add_derived(
                start_id, chain, [from_internal(l) for l in learnt])
        return learnt, bt_level, proof_id

    def _minimize(self, learnt: List[int], chain: List[tuple]) -> tuple:
        """Basic (non-recursive) clause minimization.

        A literal is redundant if its reason's other literals are all
        in the learnt clause or fixed at level 0.
        """
        seen = self._seen
        level = self._level
        reason = self._reason
        for l in learnt[1:]:
            seen[l >> 1] = 1
        kept = [learnt[0]]
        removed_chain: List[tuple] = []
        proof_on = self.proof is not None
        for l in learnt[1:]:
            v = l >> 1
            r = reason[v]
            if r == 0:
                kept.append(l)
                continue
            rlits = self._reason_lits(l ^ 1, r)
            redundant = True
            for q in rlits:
                qv = q >> 1
                if qv == v:
                    continue
                if not seen[qv] and level[qv] > 0:
                    redundant = False
                    break
            if redundant:
                self.stats.minimized_literals += 1
                if proof_on:
                    removed_chain.append((self._reason_proof_id(l ^ 1, r), v))
                    for q in rlits:
                        qv = q >> 1
                        if qv != v and level[qv] == 0:
                            removed_chain.append((self._unit_proof[qv], qv))
                seen[v] = 0
            else:
                kept.append(l)
        return kept, chain + removed_chain

    def _log_final_conflict(self, confl: int) -> None:
        """Derive the empty clause when a conflict occurs at level 0."""
        if self.proof is None:
            return
        unit = self._unit_proof
        chain = [(unit[q >> 1], q >> 1) for q in self._conflict_lits(confl)]
        self._empty_clause_proof = self.proof.add_derived(
            self._conflict_proof_id(confl), chain, [])

    @property
    def empty_clause_proof(self) -> int:
        """Proof id of the derived empty clause (UNSAT runs only)."""
        return self._empty_clause_proof

    # ==================================================================
    # Learnt clause management
    # ==================================================================
    def _learn(self, lits: List[int], proof_id: int) -> None:
        self.stats.learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], 0, unit_proof=proof_id)
            return
        if len(lits) == 2:
            self._add_binary(lits[0], lits[1], learnt=True,
                             proof_id=proof_id)
            self._enqueue(lits[0], -lits[1])
            return
        level = self._level
        lbd = len({level[l >> 1] for l in lits})
        cref = self._push_arena(lits, learnt=True, proof_id=proof_id,
                                lbd=lbd)
        self._lrefs.append(cref)
        self._attach(cref, lits[0], lits[1])
        self._enqueue(lits[0], cref)

    def _reduce_db(self) -> None:
        """Delete roughly half of the long learnt clauses (high LBD
        first; glue clauses, binaries and locked reasons survive)."""
        arena = self._arena
        locked = set()
        for lit in self._trail:
            r = self._reason[lit >> 1]
            if r > 0:
                locked.add(r)
        alive = [c for c in self._lrefs
                 if not arena[c + _H_FLAGS] & _DELETED]
        # High LBD first; ties broken oldest-first (smaller ref).
        alive.sort(key=lambda c: (-arena[c + _H_LBD], c))
        target = len(alive) // 2
        kept: List[int] = []
        for idx, cref in enumerate(alive):
            if idx < target and arena[cref + _H_LBD] > 2 \
                    and cref not in locked:
                self._delete_clause(cref)
                self.stats.deleted += 1
            else:
                kept.append(cref)
        self._lrefs = kept
        if self._wasted * 2 > len(arena):
            self._compact()

    # ==================================================================
    # Decisions
    # ==================================================================
    def _pick_branch_var(self) -> int:
        heap = self._heap
        act = self._act
        vals = self._vals
        while heap:
            na, v = heappop(heap)
            if vals[2 * v] == 0 and -na == act[v]:
                return v
        fresh = [(-act[v], v) for v in range(1, self._nvars + 1)
                 if vals[2 * v] == 0]
        if not fresh:
            return 0
        fresh.sort()
        self._heap = fresh
        na, v = heappop(fresh)
        return v

    # ==================================================================
    # Main solve loop
    # ==================================================================
    def solve(self, assumptions: Sequence[int] = (),
              budget: Budget | None = None) -> SolveResult:
        """Decide satisfiability under the given assumptions.

        Returns SAT / UNSAT / UNKNOWN (budget exhausted).  After SAT,
        :meth:`model_value` reads the model; after UNSAT under
        assumptions, :meth:`core` gives the failed-assumption subset.
        The call stops at the budget's deadline, uses at most what its
        pools hold and spends what it used on return (an unstarted
        budget is started privately for this call).  Emits one
        ``sat.solve`` telemetry span (``core`` names the build) and the
        ``sat.*`` counters.
        """
        tracer = current_tracer()
        registry = current_metrics()
        if budget is None and not tracer.enabled and not registry.enabled:
            return self._solve(assumptions, _NO_LIMITS)

        budget = _NO_LIMITS if budget is None else budget.start()
        stats = self.stats
        before = (stats.conflicts, stats.decisions, stats.propagations,
                  stats.restarts, stats.learned)
        start = time.monotonic()
        with tracer.span("sat.solve", assumptions=len(assumptions),
                         core=self.backend) as sp:
            result = self._solve(assumptions, budget)
            spent = (stats.conflicts - before[0],
                     stats.decisions - before[1],
                     stats.propagations - before[2])
            sp.set(result=result.name, conflicts=spent[0],
                   decisions=spent[1], propagations=spent[2],
                   db_literals=stats.db_literals)
        budget.spend(*spent)
        registry.inc("sat.solve_calls")
        registry.inc("sat.conflicts", spent[0])
        registry.inc("sat.decisions", spent[1])
        registry.inc("sat.propagations", spent[2])
        registry.inc("sat.restarts", stats.restarts - before[3])
        registry.inc("sat.learned", stats.learned - before[4])
        registry.gauge("sat.db_literals", stats.db_literals)
        registry.gauge_max("sat.peak_db_literals", stats.peak_db_literals)
        registry.observe("sat.solve_seconds", time.monotonic() - start)
        return result

    def _solve(self, assumptions: Sequence[int],
               budget: Budget) -> SolveResult:
        """Uninstrumented body of :meth:`solve` (``budget`` started)."""
        internal = [to_internal(l) for l in assumptions]
        for l in internal:
            self.ensure_vars(l >> 1)
        self.stats.solve_calls += 1
        self._model = []
        self._core = []
        # An exhausted budget (or a pending cancellation) must stop the
        # call here: easy queries can be decided purely by level-0
        # propagation, which never reaches the in-search budget
        # checkpoints.
        if budget.exhausted() or stop_requested():
            return SolveResult.UNKNOWN
        self._deadline = budget.deadline
        self._lim_conflicts = _lim(budget.conflicts_left)
        self._lim_decisions = _lim(budget.decisions_left)
        # Counted per call, like conflicts and decisions.
        self._lim_propagations = (self.stats.propagations
                                  + _lim(budget.propagations_left))
        self._lim_literals = _lim(budget.max_literals)
        self._run_conflicts = 0
        self._run_decisions = 0
        self._cancel_until(0)
        if not self.ok:
            return SolveResult.UNSAT
        conflict = self._propagate()
        if conflict != 0:
            self.ok = False
            self._log_final_conflict(conflict)
            return SolveResult.UNSAT

        try:
            return self._search(internal)
        except BudgetExceeded:
            self._cancel_until(0)
            return SolveResult.UNKNOWN
        finally:
            self._deadline = None
            self._lim_conflicts = _UNLIMITED
            self._lim_decisions = _UNLIMITED
            self._lim_propagations = _UNLIMITED
            self._lim_literals = _UNLIMITED

    def _check_budget(self) -> None:
        """Raise BudgetExceeded when any armed limit has run out.

        Consulted at every conflict and decision checkpoint, including
        the cooperative cancellation probe installed by
        :func:`install_stop_check`.
        """
        if self._run_conflicts >= self._lim_conflicts:
            raise BudgetExceeded("conflicts")
        if self._run_decisions >= self._lim_decisions:
            raise BudgetExceeded("decisions")
        if self.stats.propagations >= self._lim_propagations:
            raise BudgetExceeded("propagations")
        if self.stats.db_literals >= self._lim_literals:
            raise BudgetExceeded("memory")
        if self._deadline is not None \
                and time.monotonic() > self._deadline:
            raise BudgetExceeded("time")
        if stop_requested():
            raise BudgetExceeded("cancelled")

    def _search(self, assumptions: List[int]) -> SolveResult:
        stats = self.stats
        vals = self._vals
        pol = self._pol
        trail = self._trail
        trail_lim = self._trail_lim
        # Knuth's reluctant-doubling pair: v follows the Luby sequence.
        ru, rv = 1, 1
        conflict_limit = 100 * rv
        episode_conflicts = 0
        max_learnts = max(1000, (len(self._crefs)
                                 + self._n_bin_problem) // 3)
        while True:
            confl = self._propagate()
            if confl != 0:
                episode_conflicts += 1
                self._run_conflicts += 1
                stats.conflicts += 1
                if not trail_lim:
                    self.ok = False
                    self._log_final_conflict(confl)
                    return SolveResult.UNSAT
                learnt, bt_level, proof_id = self._analyze(confl)
                self._cancel_until(bt_level)
                self._learn(learnt, proof_id)
                self._var_inc *= self._var_decay
                self._check_budget()
                continue

            if episode_conflicts >= conflict_limit:
                # Restart: reluctant doubling advances (u, v).
                stats.restarts += 1
                self._cancel_until(0)
                if ru & -ru == rv:
                    ru, rv = ru + 1, 1
                else:
                    rv *= 2
                conflict_limit = 100 * rv
                episode_conflicts = 0
                if len(self._lrefs) > max_learnts:
                    max_learnts = int(max_learnts * 1.3)
                continue
            if len(self._lrefs) - len(trail) > max_learnts:
                self._reduce_db()

            # Place the next assumption (MiniSat style: one decision
            # level per assumption, dummy level if already true).
            next_lit = 0
            while len(trail_lim) < len(assumptions):
                lit = assumptions[len(trail_lim)]
                val = vals[lit]
                if val > 0:
                    trail_lim.append(len(trail))
                elif val < 0:
                    self._core = self._analyze_assumption_conflict(lit)
                    return SolveResult.UNSAT
                else:
                    next_lit = lit
                    break
            if next_lit == 0:
                v = self._pick_branch_var()
                if v == 0:
                    self._save_model()
                    return SolveResult.SAT
                next_lit = 2 * v + pol[v]
            stats.decisions += 1
            self._run_decisions += 1
            self._check_budget()
            trail_lim.append(len(trail))
            v = next_lit >> 1
            vals[next_lit] = 1
            vals[next_lit ^ 1] = -1
            self._level[v] = len(trail_lim)
            self._reason[v] = 0
            trail.append(next_lit)

    def _save_model(self) -> None:
        # vals[2::2] is exactly the positive-literal value of each
        # variable 1..n, in order — one C-speed slice.
        self._model = [0] + self._vals[2::2]

    def _analyze_assumption_conflict(self, failed_lit: int) -> List[int]:
        """Failed-assumption core (MiniSat ``analyzeFinal``)."""
        core = {from_internal(failed_lit)}
        level = self._level
        reason = self._reason
        seen = [False] * (self._nvars + 1)
        seen[failed_lit >> 1] = True
        trail = self._trail
        for i in range(len(trail) - 1, -1, -1):
            lit = trail[i]
            v = lit >> 1
            if not seen[v]:
                continue
            r = reason[v]
            if r == 0:
                if level[v] > 0:
                    core.add(from_internal(lit))
            else:
                for q in self._reason_lits(lit, r):
                    if (q >> 1) != v and level[q >> 1] > 0:
                        seen[q >> 1] = True
            seen[v] = False
        return sorted(core, key=abs)

    # ==================================================================
    # Result inspection
    # ==================================================================
    def model_value(self, dimacs_var: int) -> Optional[bool]:
        """Value of a variable in the last model (None if unassigned)."""
        v = abs(dimacs_var)
        if not self._model or v >= len(self._model):
            return None
        a = self._model[v]
        if a == 0:
            return None
        return (a > 0) if dimacs_var > 0 else (a < 0)

    def model(self) -> Dict[int, bool]:
        """The last satisfying assignment as var -> bool."""
        return {v: self._model[v] > 0
                for v in range(1, len(self._model))
                if self._model[v] != 0}

    def core(self) -> List[int]:
        """Failed assumption literals of the last UNSAT-under-assumptions
        call (a subset of the assumptions, in DIMACS form)."""
        return list(self._core)

    def num_clauses(self) -> int:
        """Number of attached problem clauses (excludes learnt)."""
        arena = self._arena
        longs = sum(1 for c in self._crefs
                    if not arena[c + _H_FLAGS] & _DELETED)
        return longs + self._n_bin_problem

    def num_learnts(self) -> int:
        """Number of learnt clauses currently retained in the database."""
        arena = self._arena
        longs = sum(1 for c in self._lrefs
                    if not arena[c + _H_FLAGS] & _DELETED)
        return longs + self._n_bin_learnt


# ----------------------------------------------------------------------
# Compiled backend (ckernel.c via ctypes)
# ----------------------------------------------------------------------
#: Live cancellation probe handed across the FFI boundary.  Must stay
#: referenced at module level so the ctypes thunk is never collected.
_STOP_PROBE = _ckernel.STOP_CB(lambda: 1 if stop_requested() else 0)


def _lim(value: int | None) -> int:
    return _UNLIMITED if value is None else value


class _CKernelStats:
    """``SolverStats`` facade reading counters live from the C core.

    Exposes exactly the interpreted build's counter vocabulary (every
    ``SolverStats`` slot, same names) so telemetry and budget-slicing
    callers never notice which backend produced the numbers.
    """

    _IDX = {"conflicts": 0, "decisions": 1, "propagations": 2,
            "restarts": 3, "learned": 4, "deleted": 5, "purged": 6,
            "db_literals": 7, "peak_db_literals": 8,
            "minimized_literals": 9}

    __slots__ = ("_lib", "_h", "solve_calls")

    def __init__(self, lib, handle) -> None:
        self._lib = lib
        self._h = handle
        self.solve_calls = 0

    def __getattr__(self, name: str) -> int:
        idx = _CKernelStats._IDX.get(name)
        if idx is None:
            raise AttributeError(name)
        return self._lib.ck_stat(self._h, idx)

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot keyed by the shared stat names."""
        return {name: getattr(self, name)
                for name in SolverStats.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        return f"_CKernelStats({self.as_dict()})"


class _CKernelSolver(KernelSolver):
    """The kernel engine running on the compiled core.

    Constructed by ``KernelSolver.__new__`` for proof-free solvers;
    every method is a thin ctypes shim over ``ckernel.c``.  The
    telemetry ``solve`` wrapper is inherited unchanged.
    """

    backend = "compiled"

    def __init__(self, proof: ResolutionProof | None = None) -> None:
        lib = _ckernel.load_core()
        self._lib = lib
        self._h = lib.ck_new()
        self.proof = None
        self.stats = _CKernelStats(lib, self._h)

    def __del__(self) -> None:
        h = getattr(self, "_h", None)
        if h:
            self._h = None
            try:
                self._lib.ck_free(h)
            except (AttributeError, OSError):  # pragma: no cover
                pass

    @property
    def ok(self) -> bool:
        """False once the clause set is known unsatisfiable."""
        return bool(self._lib.ck_ok(self._h))

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its DIMACS index."""
        v = self._lib.ck_new_var(self._h)
        if v < 0:
            raise MemoryError("SAT kernel: cannot allocate a variable")
        return v

    def ensure_vars(self, up_to: int) -> None:
        """Make sure variables ``1..up_to`` exist."""
        _check_var(up_to)
        if not self._lib.ck_ensure_vars(self._h, up_to):
            raise MemoryError(f"SAT kernel: cannot allocate {up_to} "
                              f"variables")

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._lib.ck_num_vars(self._h)

    def fixed_value(self, dimacs_lit: int) -> Optional[bool]:
        """Value of a literal fixed at decision level 0, else None."""
        a = self._lib.ck_fixed_value(self._h, dimacs_lit)
        return None if a == 0 else a > 0

    def set_default_phase(self, dimacs_var: int, phase: bool) -> None:
        """Seed the saved phase of a variable (decision polarity)."""
        self.ensure_vars(abs(dimacs_var))
        self._lib.ck_set_phase(self._h, abs(dimacs_var),
                               1 if phase else 0)

    def add_clause(self, dimacs_lits: Iterable[int]) -> bool:
        """Add a clause (one-sided: see KernelSolver.add_clause)."""
        lits = _int32_lits(dimacs_lits)
        res = self._lib.ck_add_clause(self._h, *lits.buffer_info())
        if res >= 0:
            return res > 0
        if res == -2:
            _check_var(max(map(abs, lits)))
        raise MemoryError("SAT kernel: cannot allocate clause variables")

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> bool:
        """Add many clauses; returns False if the formula became UNSAT."""
        result = True
        for lits in clause_list:
            if not self.add_clause(lits):
                result = False
        return result

    def purge_satisfied(self) -> int:
        """Physically delete clauses satisfied at level 0 (jSAT
        group retirement); returns the number purged."""
        return self._lib.ck_purge_satisfied(self._h)

    def _solve(self, assumptions: Sequence[int],
               budget: Budget) -> SolveResult:
        """Uninstrumented body of :meth:`solve` (C core dispatch)."""
        assumps = _int32_lits(assumptions)
        self.stats.solve_calls += 1
        # Exhausted budgets / pending cancellations must stop the call
        # before level-0 propagation, like the interpreted build.
        if budget.exhausted() or stop_requested():
            return SolveResult.UNKNOWN
        probe = _STOP_PROBE if stop_check_installed() \
            else _ckernel.STOP_CB()
        res = self._lib.ck_solve(
            self._h, *assumps.buffer_info(),
            _lim(budget.conflicts_left), _lim(budget.decisions_left),
            _lim(budget.propagations_left), _lim(budget.max_literals),
            -1.0 if budget.deadline is None else budget.deadline, probe)
        if res == 1:
            return SolveResult.SAT
        if res == 0:
            return SolveResult.UNSAT
        if res == -4:
            _check_var(max(map(abs, assumps)))
        if res == -3:
            raise MemoryError("SAT kernel: cannot allocate assumption "
                              "variables")
        return SolveResult.UNKNOWN

    def model_value(self, dimacs_var: int) -> Optional[bool]:
        """Value of a variable in the last model (None if unassigned)."""
        a = self._lib.ck_model_value(self._h, abs(dimacs_var))
        if a == 0:
            return None
        return (a > 0) if dimacs_var > 0 else (a < 0)

    def model(self) -> Dict[int, bool]:
        """The last satisfying assignment as var -> bool."""
        n = self._lib.ck_num_vars(self._h)
        buf = (ctypes.c_int8 * (n + 1))()
        mn = self._lib.ck_copy_model(self._h, buf, n)
        return {v: buf[v] > 0 for v in range(1, min(mn, n) + 1)
                if buf[v] != 0}

    def core(self) -> List[int]:
        """Failed assumption literals of the last UNSAT-under-
        assumptions call (DIMACS form, sorted by variable)."""
        n = self._lib.ck_core_size(self._h)
        if not n:
            return []
        buf = (ctypes.c_int32 * n)()
        self._lib.ck_copy_core(self._h, buf)
        return sorted(set(buf), key=abs)

    def num_clauses(self) -> int:
        """Number of attached problem clauses (excludes learnt)."""
        return self._lib.ck_num_clauses(self._h)

    def num_learnts(self) -> int:
        """Number of learnt clauses currently retained."""
        return self._lib.ck_num_learnts(self._h)

    @property
    def empty_clause_proof(self) -> int:
        """Always -1: the compiled core never logs proofs (solvers
        with a proof sink use the interpreted path instead)."""
        return -1


def make_solver(proof: ResolutionProof | None = None) -> KernelSolver:
    """Build a SAT solver: a :class:`KernelSolver`, compiled when the C
    core is available and ``proof`` is None, interpreted otherwise."""
    return KernelSolver(proof=proof)
