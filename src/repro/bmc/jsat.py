"""jSAT — the paper's special-purpose decision procedure for formula (2).

The QBF formulation (2) holds the state vectors Z0..Zk and a *single*
copy of TR(U, V); the linking terms ``(U↔Zi) ∧ (V↔Zi+1)`` say that U, V
range over every consecutive pair.  jSAT drops those linking terms and
keeps only (formula (4)):

    I(Z0) ∧ TR(U, V) ∧ F(Zk)

maintaining the association between (U, V) and the *current* pair of
neighbouring states implicitly: the algorithm walks a current/next
window over the path, deciding state Zi+1 from Zi through the one
shared TR copy — a depth-first search of the state graph from the
initial states toward the final ones.

Implementation notes
--------------------
The window is realized on top of the incremental CDCL solver
(:class:`repro.sat.kernel.KernelSolver`):

* TR(U, X, V) is Tseitin-encoded **once**; I over U and F over U/V are
  encoded once each.  All of them are guarded by activation literals
  and joined to a query by *assumptions*, so the same clause database
  serves every window position.
* A window query fixes U to the concrete current state via assumptions
  and asks for a model of TR; the V bits of the model are the next
  state.
* Backtracking adds a *blocking clause* over the V bits inside a
  per-frame activation group; popping a frame retires the group with a
  unit clause and the solver physically reclaims every clause of the
  group (including learnt clauses derived from it) — the resident
  formula stays at one TR copy plus the frames' state vectors, which is
  the space bound in the paper's title.
* A *no-good cache* remembers states shown to admit no completion with
  ``r`` steps remaining; keyed by ``r`` in exact mode because a state
  that is hopeless at distance r may still reach F at a different
  distance; in "within" mode the cache is monotone (failure with r
  remaining implies failure for every r' <= r).

All three features (F-pruning of the last window, the no-good cache,
phase-seeded successor ordering) can be toggled for the ablation
experiment E7.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..logic.cnf import CNF, VarPool
from ..logic.expr import Expr
from ..logic.tseitin import TseitinEncoder
from ..sat.kernel import make_solver
from ..sat.types import Budget, BudgetExceeded, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.trace import current_tracer

__all__ = ["JsatSolver", "JsatStats"]

State = Tuple[bool, ...]


class JsatStats:
    """Counters for the jSAT experiments (E1, E4, E6, E7)."""

    __slots__ = ("queries", "pushes", "pops", "cache_hits", "blocked",
                 "peak_db_literals", "sat_conflicts", "sat_propagations")

    def __init__(self) -> None:
        self.queries = 0
        self.pushes = 0
        self.pops = 0
        self.cache_hits = 0
        self.blocked = 0
        self.peak_db_literals = 0
        self.sat_conflicts = 0
        self.sat_propagations = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Frame:
    """One DFS frame: a decided state plus its retractable clause group."""

    __slots__ = ("state", "inputs", "group")

    def __init__(self, state: State, inputs: Dict[str, bool],
                 group: int) -> None:
        self.state = state
        self.inputs = inputs          # inputs that produced this state
        self.group = group            # activation var for blocking clauses


class JsatSolver:
    """Decide reachability in exactly (or at most) k steps, jSAT-style.

    Parameters
    ----------
    system, final, k:
        The reachability query: is a state satisfying ``final``
        reachable from init in exactly ``k`` steps?
    semantics:
        "exact" (the paper's query) or "within" (any depth <= k; jSAT
        then also tests F against every decided state).
    use_cache:
        Enable the no-good state cache.
    f_pruning:
        Constrain the final window query with F(V) instead of testing F
        after the fact.
    purge_interval:
        Retired clause groups are physically reclaimed every this many
        pops (1 = immediately; larger trades memory for time).
    """

    def __init__(self, system: TransitionSystem, final: Expr, k: int,
                 semantics: str = "exact",
                 use_cache: bool = True,
                 f_pruning: bool = True,
                 purge_interval: int = 8) -> None:
        if k < 0:
            raise ValueError("bound k must be non-negative")
        if semantics not in ("exact", "within"):
            raise ValueError(f"unknown semantics {semantics!r}")
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        self.system = system
        self.final = final
        self.k = k
        self.semantics = semantics
        self.use_cache = use_cache
        self.f_pruning = f_pruning
        self.purge_interval = max(1, purge_interval)
        self.stats = JsatStats()
        self._trace: Optional[Trace] = None
        self._budget: Budget | None = None
        # The no-good facts are bound-independent ("no completion from
        # this state with r steps remaining" says nothing about k), so
        # they live for the solver's lifetime and keep paying off when
        # the solver is retargeted at other bounds (native sweeps).
        self._nogood_exact: Dict[int, Set[State]] = {}
        self._nogood_within: Dict[State, int] = {}
        # Activation groups created by the current solve; any group
        # still live when solve() exits (SAT success, budget abort) is
        # retired there — the next solve never assumes old groups, so
        # an unretired group would pin its blocking clauses in the
        # database forever.
        self._live_groups: Set[int] = set()
        self._build_solver()

    # ==================================================================
    # Solver construction: ONE copy of TR, guarded I and F
    # ==================================================================
    def _u_names(self) -> List[str]:
        return [f"{v}#U" for v in self.system.state_vars]

    def _v_names(self) -> List[str]:
        return [f"{v}#V" for v in self.system.state_vars]

    def _build_solver(self) -> None:
        system = self.system
        self.pool = VarPool()
        cnf = CNF()
        encoder = TseitinEncoder(cnf, self.pool)

        self._u_vars = [self.pool.named(n) for n in self._u_names()]
        self._v_vars = [self.pool.named(n) for n in self._v_names()]
        self._x_vars = [self.pool.named(f"{n}#X") for n in system.input_vars]

        trans = system.trans_between(self._u_names(), self._v_names(),
                                     input_suffix="#X")
        trans_lit = encoder.encode(trans)
        self._trans_act = self.pool.fresh("act_trans")

        init_u = system.rename_state_expr(system.init, self._u_names())
        init_lit = encoder.encode(init_u) if not init_u.is_true else None
        self._init_act = self.pool.fresh("act_init")

        fin_v = system.rename_state_expr(self.final, self._v_names())
        fin_lit = encoder.encode(fin_v) if not fin_v.is_true else None
        self._fin_act = self.pool.fresh("act_fin_v")

        # F over U, used for the k = 0 / depth-0 query.
        fin_u = system.rename_state_expr(self.final, self._u_names())
        fin_u_lit = encoder.encode(fin_u) if not fin_u.is_true else None
        self._fin_u_act = self.pool.fresh("act_fin_u")

        cnf.num_vars = max(cnf.num_vars, self.pool.num_vars)
        self.solver = make_solver()
        self.solver.ensure_vars(cnf.num_vars)
        with current_tracer().span("sat.load", clauses=len(cnf.clauses)):
            self._ok = self.solver.add_clauses(cnf.clauses)
        self.solver.add_clause([-self._trans_act, trans_lit])
        if init_lit is not None:
            self.solver.add_clause([-self._init_act, init_lit])
        if fin_lit is not None:
            self.solver.add_clause([-self._fin_act, fin_lit])
        if fin_u_lit is not None:
            self.solver.add_clause([-self._fin_u_act, fin_u_lit])
        self.base_db_literals = self.solver.stats.db_literals

    # ==================================================================
    # Public API
    # ==================================================================
    def solve(self, budget: Budget | None = None) -> SolveResult:
        """Run the jSAT search.

        Returns SAT (path exists; :meth:`trace` yields it), UNSAT, or
        UNKNOWN on budget exhaustion.  The budget is started once and
        passed to every internal window query, so all of them draw from
        one deadline and one set of pools (a budget that is already
        started is shared with the caller).
        """
        self._budget = None if budget is None else budget.start()
        self._trace = None
        try:
            return self._search()
        except BudgetExceeded:
            return SolveResult.UNKNOWN
        finally:
            self._retire_leftover_groups()
            peak = self.solver.stats.peak_db_literals
            if peak > self.stats.peak_db_literals:
                self.stats.peak_db_literals = peak

    def trace(self) -> Optional[Trace]:
        """The witness path of the last SAT answer."""
        return self._trace

    def retarget(self, k: int) -> None:
        """Re-aim the solver at a new bound without rebuilding anything.

        The clause database (one TR copy, guarded I and F) does not
        depend on k, and the no-good cache is bound-independent, so a
        bound sweep can reuse one solver for every k.
        """
        if k < 0:
            raise ValueError("bound k must be non-negative")
        self.k = k
        self._trace = None

    # ==================================================================
    # Search
    # ==================================================================
    def _run_query(self, assumptions: List[int]) -> SolveResult:
        self.stats.queries += 1
        result = self.solver.solve(assumptions, budget=self._budget)
        self.stats.sat_conflicts = self.solver.stats.conflicts
        self.stats.sat_propagations = self.solver.stats.propagations
        if result is SolveResult.UNKNOWN:
            raise BudgetExceeded("query budget")
        return result

    def _state_assumptions(self, state: State) -> List[int]:
        return [v if bit else -v for v, bit in zip(self._u_vars, state)]

    def _model_state(self) -> State:
        return tuple(bool(self.solver.model_value(v)) for v in self._v_vars)

    def _model_inputs(self) -> Dict[str, bool]:
        return {name: bool(self.solver.model_value(v))
                for name, v in zip(self.system.input_vars, self._x_vars)}

    def _model_u_state(self) -> State:
        return tuple(bool(self.solver.model_value(v)) for v in self._u_vars)

    def _final_holds(self, state: State) -> bool:
        env = dict(zip(self.system.state_vars, state))
        return self.final.evaluate(env)

    # ------------------------------------------------------------------
    # No-good cache.  Exact mode: keyed by exact remaining distance.
    # Within mode: monotone — remember the largest remaining budget that
    # already failed for the state.
    # ------------------------------------------------------------------
    def _cache_lookup(self, state: State, remaining: int) -> bool:
        if not self.use_cache:
            return False
        if self.semantics == "exact":
            return state in self._nogood_exact.get(remaining, ())
        failed = self._nogood_within.get(state)
        return failed is not None and failed >= remaining

    def _cache_store(self, state: State, remaining: int) -> None:
        if not self.use_cache:
            return
        if self.semantics == "exact":
            self._nogood_exact.setdefault(remaining, set()).add(state)
        else:
            prev = self._nogood_within.get(state, -1)
            if remaining > prev:
                self._nogood_within[state] = remaining

    def cache_size(self) -> int:
        """Number of cached no-good (state, distance) facts."""
        if self.semantics == "exact":
            return sum(len(s) for s in self._nogood_exact.values())
        return len(self._nogood_within)

    # ------------------------------------------------------------------
    def _search(self) -> SolveResult:
        if not self._ok or not self.solver.ok:
            return SolveResult.UNSAT
        if self.k == 0 or self.semantics == "within":
            # Depth-0 check: an initial state already satisfying F.
            result = self._run_query([self._init_act, self._fin_u_act])
            if result is SolveResult.SAT:
                state = self._model_u_state()
                self._trace = Trace([dict(zip(self.system.state_vars,
                                              state))])
                return SolveResult.SAT
            if self.k == 0:
                return result

        root_group = self._new_group()
        frames: List[_Frame] = []
        pops_since_purge = 0

        while True:
            if not frames:
                # Decide Z0: a not-yet-blocked initial state that has at
                # least one outgoing transition (formula (5) shape).
                assumptions = [root_group, self._init_act, self._trans_act]
                if self.k == 1 and self.f_pruning and \
                        self.semantics == "exact":
                    assumptions.append(self._fin_act)
                result = self._run_query(assumptions)
                if result is SolveResult.UNSAT:
                    # Retire the root enumeration group, or its blocking
                    # clauses would pile up across re-solves (the native
                    # sweep reuses this solver at every bound).
                    self._retire_group(root_group)
                    self.solver.purge_satisfied()
                    return SolveResult.UNSAT
                state = self._model_u_state()
                if self._cache_lookup(state, self.k):
                    self.stats.cache_hits += 1
                    self._block_u(root_group, state)
                    continue
                frames.append(_Frame(state, {}, self._new_group()))
                self.stats.pushes += 1
                continue

            depth = len(frames) - 1            # frames[-1].state is Z_depth
            if depth == self.k:
                self._finish(frames)           # full path decided
                return SolveResult.SAT
            frame = frames[-1]
            assumptions = [frame.group, self._trans_act]
            assumptions += self._state_assumptions(frame.state)
            last_step = (depth + 1 == self.k)
            if last_step and self.f_pruning and self.semantics == "exact":
                assumptions.append(self._fin_act)
            result = self._run_query(assumptions)

            if result is SolveResult.SAT:
                nxt = self._model_state()
                inputs = self._model_inputs()
                if self.semantics == "within":
                    if self._final_holds(nxt):
                        frames.append(_Frame(nxt, inputs,
                                             self._new_group()))
                        self.stats.pushes += 1
                        self._finish(frames)
                        return SolveResult.SAT
                    if last_step:
                        # No steps left to extend a non-final state.
                        self._block_v(frame.group, nxt)
                        continue
                if last_step and self.semantics == "exact" and \
                        not self.f_pruning:
                    # Ablation mode: test F after deciding the state.
                    if self._final_holds(nxt):
                        frames.append(_Frame(nxt, inputs,
                                             self._new_group()))
                        self.stats.pushes += 1
                        self._finish(frames)
                        return SolveResult.SAT
                    self._block_v(frame.group, nxt)
                    continue
                remaining = self.k - (depth + 1)
                if self._cache_lookup(nxt, remaining):
                    self.stats.cache_hits += 1
                    self._block_v(frame.group, nxt)
                    continue
                frames.append(_Frame(nxt, inputs, self._new_group()))
                self.stats.pushes += 1
                continue

            # No (further) useful successor from frame.state.
            self._cache_store(frame.state, self.k - depth)
            self._retire_group(frame.group)
            frames.pop()
            self.stats.pops += 1
            pops_since_purge += 1
            if pops_since_purge >= self.purge_interval:
                self.solver.purge_satisfied()
                pops_since_purge = 0
            if frames:
                self._block_v(frames[-1].group, frame.state)
            else:
                self._block_u(root_group, frame.state)

    # ------------------------------------------------------------------
    def _finish(self, frames: Sequence[_Frame]) -> None:
        states = [dict(zip(self.system.state_vars, f.state)) for f in frames]
        inputs = [dict(f.inputs) for f in frames[1:]]
        self._trace = Trace(states, inputs)

    def _block_v(self, group: int, state: State) -> None:
        """Forbid ``state`` as the V answer inside the given group."""
        lits = [-group]
        lits.extend(-v if bit else v
                    for v, bit in zip(self._v_vars, state))
        self.solver.add_clause(lits)
        self.stats.blocked += 1

    def _block_u(self, group: int, state: State) -> None:
        """Forbid ``state`` as the U answer (root enumeration)."""
        lits = [-group]
        lits.extend(-v if bit else v
                    for v, bit in zip(self._u_vars, state))
        self.solver.add_clause(lits)
        self.stats.blocked += 1

    def _new_group(self) -> int:
        group = self.solver.new_var()
        self._live_groups.add(group)
        return group

    def _retire_group(self, group: int) -> None:
        self.solver.add_clause([-group])
        self._live_groups.discard(group)

    def _retire_leftover_groups(self) -> None:
        """Retire every group the last solve left live (SAT exits keep
        their frames' groups; a budget abort unwinds past all of them).
        Without this the groups' blocking clauses — never reclaimable,
        never assumed again — would accumulate across the solves of a
        long-lived session."""
        if not self._live_groups:
            return
        for group in sorted(self._live_groups):
            self.solver.add_clause([-group])
        self._live_groups.clear()
        self.solver.purge_satisfied()

    # ------------------------------------------------------------------
    def resident_literals(self) -> int:
        """Current clause-database size (the space-claim measurement)."""
        return self.solver.stats.db_literals
