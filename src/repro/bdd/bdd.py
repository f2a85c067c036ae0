"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

The paper's introduction positions BMC against "BDD-based techniques"
for symbolic model checking and borrows iterative squaring from
BDD-based reachability; this module provides that baseline substrate: a
classic shared-node ROBDD manager with complement-free nodes, an ite
apply cache, quantification, variable substitution and satisfying-path
enumeration — enough for the image-computation model checker in
:mod:`repro.bdd.reachability`.

Nodes are integers (indices into the manager's node table); 0 and 1 are
the terminal FALSE/TRUE.  Variables are identified by their *level* in
a fixed ordering, with a name table on the side.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..logic.expr import Expr
from ..logic.program import Program

__all__ = ["BddManager"]

FALSE_NODE = 0
TRUE_NODE = 1


class BddManager:
    """A shared ROBDD node manager with an ite-based apply."""

    def __init__(self, var_order: Sequence[str]) -> None:
        if len(set(var_order)) != len(var_order):
            raise ValueError("duplicate variables in the ordering")
        self._order: List[str] = list(var_order)
        self._level: Dict[str, int] = {n: i for i, n in enumerate(var_order)}
        # node tables; index 0/1 reserved for terminals (level = +inf).
        self._var: List[int] = [-1, -1]          # level of node's variable
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Core node construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, name: str) -> int:
        """The BDD of a single variable."""
        level = self._level.get(name)
        if level is None:
            raise KeyError(f"variable {name!r} not in the ordering")
        return self._mk(level, FALSE_NODE, TRUE_NODE)

    @property
    def true(self) -> int:
        return TRUE_NODE

    @property
    def false(self) -> int:
        return FALSE_NODE

    def size(self) -> int:
        """Total nodes allocated (a memory proxy, as in the paper's
        BDD-blow-up discussion)."""
        return len(self._var)

    def level_of(self, node: int) -> int:
        return self._var[node] if node > 1 else len(self._order)

    # ------------------------------------------------------------------
    # ite / boolean operations
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """if-then-else — the universal ROBDD combinator."""
        if f == TRUE_NODE:
            return g
        if f == FALSE_NODE:
            return h
        if g == h:
            return g
        if g == TRUE_NODE and h == FALSE_NODE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self.level_of(f), self.level_of(g), self.level_of(h))

        def cofactor(n: int, phase: bool) -> int:
            if n <= 1 or self._var[n] != level:
                return n
            return self._high[n] if phase else self._low[n]

        high = self.ite(cofactor(f, True), cofactor(g, True),
                        cofactor(h, True))
        low = self.ite(cofactor(f, False), cofactor(g, False),
                       cofactor(h, False))
        out = self._mk(level, low, high)
        self._ite_cache[key] = out
        return out

    def apply_not(self, f: int) -> int:
        return self.ite(f, FALSE_NODE, TRUE_NODE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE_NODE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE_NODE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_iff(self, f: int, g: int) -> int:
        return self.ite(f, g, self.apply_not(g))

    def conjoin(self, nodes: Sequence[int]) -> int:
        out = TRUE_NODE
        for n in nodes:
            out = self.apply_and(out, n)
        return out

    def disjoin(self, nodes: Sequence[int]) -> int:
        out = FALSE_NODE
        for n in nodes:
            out = self.apply_or(out, n)
        return out

    # ------------------------------------------------------------------
    # Quantification and substitution
    # ------------------------------------------------------------------
    def exists(self, names: Sequence[str], f: int) -> int:
        """∃ names : f (existential quantification, one level at a time)."""
        levels = sorted((self._level[n] for n in names), reverse=True)
        out = f
        for level in levels:
            out = self._quantify(out, level, self.apply_or, {})
        return out

    def forall(self, names: Sequence[str], f: int) -> int:
        """∀ names : f."""
        levels = sorted((self._level[n] for n in names), reverse=True)
        out = f
        for level in levels:
            out = self._quantify(out, level, self.apply_and, {})
        return out

    def _quantify(self, f: int, level: int,
                  combine: Callable[[int, int], int],
                  memo: Dict[int, int]) -> int:
        if f <= 1 or self._var[f] > level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if self._var[f] == level:
            out = combine(self._low[f], self._high[f])
        else:
            low = self._quantify(self._low[f], level, combine, memo)
            high = self._quantify(self._high[f], level, combine, memo)
            out = self._mk(self._var[f], low, high)
        memo[f] = out
        return out

    def rename(self, f: int, mapping: Dict[str, str]) -> int:
        """Simultaneous variable renaming (handles swaps).

        Children of a node are substituted recursively and the node is
        rebuilt through ``ite`` on the renamed decision variable, which
        restores the ordering invariants whatever the mapping's shape.
        """
        level_map = {self._level[a]: self._level[b]
                     for a, b in mapping.items()}
        return self._rename_fast(f, level_map, {})

    def _rename_fast(self, f: int, level_map: Dict[int, int],
                     memo: Dict[int, int]) -> int:
        if f <= 1:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        level = self._var[f]
        low = self._rename_fast(self._low[f], level_map, memo)
        high = self._rename_fast(self._high[f], level_map, memo)
        new_level = level_map.get(level, level)
        # Rebuild through ite to restore ordering invariants.
        var_node = self._mk(new_level, FALSE_NODE, TRUE_NODE)
        out = self.ite(var_node, high, low)
        memo[f] = out
        return out

    def _restrict(self, f: int, level: int, value: bool,
                  memo: Dict[int, int]) -> int:
        if f <= 1 or self._var[f] > level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if self._var[f] == level:
            out = self._high[f] if value else self._low[f]
        else:
            out = self._mk(self._var[f],
                           self._restrict(self._low[f], level, value, memo),
                           self._restrict(self._high[f], level, value, memo))
        memo[f] = out
        return out

    # ------------------------------------------------------------------
    # Conversion / inspection
    # ------------------------------------------------------------------
    def from_expr(self, root: Expr) -> int:
        """Compile an expression DAG bottom-up into a BDD."""
        return Program([root]).lower(self.var, {
            "not": self.apply_not,
            "and": lambda *kids: self.conjoin(kids),
            "or": lambda *kids: self.disjoin(kids),
            "xor": self.apply_xor,
            "iff": self.apply_iff,
            "ite": self.ite,
        }, FALSE_NODE, TRUE_NODE)[0]

    def evaluate(self, f: int, env: Dict[str, bool]) -> bool:
        node = f
        while node > 1:
            name = self._order[self._var[node]]
            node = self._high[node] if env[name] else self._low[node]
        return node == TRUE_NODE

    def count_sat(self, f: int, over: Sequence[str] | None = None) -> int:
        """Number of satisfying assignments over the given variables."""
        names = list(over) if over is not None else list(self._order)
        levels = sorted(self._level[n] for n in names)
        memo: Dict[Tuple[int, int], int] = {}

        def walk(node: int, idx: int) -> int:
            if idx == len(levels):
                if node <= 1:
                    return int(node == TRUE_NODE)
                raise ValueError("function depends on unlisted variables")
            key = (node, idx)
            if key in memo:
                return memo[key]
            level = levels[idx]
            if node <= 1 or self._var[node] > level:
                out = 2 * walk(node, idx + 1)
            elif self._var[node] == level:
                out = walk(self._low[node], idx + 1) \
                    + walk(self._high[node], idx + 1)
            else:
                raise ValueError("function depends on unlisted variables")
            memo[key] = out
            return out

        return walk(f, 0)

    def one_sat(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (partial: only tested variables)."""
        if f == FALSE_NODE:
            return None
        out: Dict[str, bool] = {}
        node = f
        while node > 1:
            name = self._order[self._var[node]]
            if self._low[node] != FALSE_NODE:
                out[name] = False
                node = self._low[node]
            else:
                out[name] = True
                node = self._high[node]
        return out
