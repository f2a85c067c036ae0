"""Compile expression DAGs to one flat op list, run W lanes at a time.

A :class:`Program` compiles any set of :class:`~repro.logic.expr.Expr`
roots into one topologically sorted list of ops over numbered slots.
:meth:`Program.run` treats every slot as a W-lane bit-vector packed
into one Python int, so one pass evaluates the roots under W
assignments at once.  This is the library's one concrete evaluator of
transition relations (trace replay, loop-back checks, witness lifting,
circuit simulation, the random falsifier); ternary simulation, AIG and
BDD construction are lowerings of the same op list.  ``Expr.evaluate``
stays for small predicates and as the independent reference.

>>> from repro.logic.expr import var
>>> a, b = var("a"), var("b")
>>> p = Program([a & b, a ^ b])
>>> p.evaluate({"a": 0b1100, "b": 0b1010}, mask=0b1111)
[8, 6]
>>> p.ternary({"a": False})
[False, None]
"""

from __future__ import annotations

import weakref
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .expr import Expr

__all__ = ["Program", "cached_program"]

# Op codes — small ints so the eval loop dispatches on an int compare.
_NAMES = ("not", "and", "or", "xor", "iff", "ite")
_NOT, _AND, _OR, _XOR, _IFF, _ITE = range(6)
_CODES = {name: code for code, name in enumerate(_NAMES)}

# Distinguished register slots for the two constants.
FALSE_SLOT = 0
TRUE_SLOT = 1


class Program:
    """A flat op list computing ``roots``.

    ``variables`` maps each variable the roots read to its slot,
    ``outputs`` holds each root's slot, and ``num_slots`` is the
    register file size.
    """

    __slots__ = ("roots", "ops", "variables", "outputs", "num_slots",
                 "_dual")

    def __init__(self, roots: Iterable[Expr]) -> None:
        self.roots: Tuple[Expr, ...] = tuple(roots)
        self.ops: List[tuple] = []
        self.variables: Dict = {}
        self.num_slots = 2
        self._dual: Optional[Program] = None
        slot_of: Dict[int, int] = {}
        # Post-order walk that never re-enters a compiled node, so
        # roots sharing a cone pay for it once.
        stack = [(root, False) for root in reversed(self.roots)]
        while stack:
            node, expanded = stack.pop()
            if node.uid in slot_of:
                continue
            if node.args and not expanded:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args)
            elif node.op == "const":
                slot_of[node.uid] = TRUE_SLOT if node.value else FALSE_SLOT
            elif node.op == "var":
                slot = self.variables.get(node.name)
                if slot is None:
                    slot = self.variables[node.name] = self._fresh()
                slot_of[node.uid] = slot
            else:
                slot_of[node.uid] = self._gate(
                    _CODES[node.op], [slot_of[a.uid] for a in node.args])
        self.outputs: List[int] = [slot_of[r.uid] for r in self.roots]

    def _fresh(self) -> int:
        self.num_slots += 1
        return self.num_slots - 1

    def _gate(self, code: int, kids: Sequence[int]) -> int:
        dst = self._fresh()
        self.ops.append((code, dst, tuple(kids)) if code in (_AND, _OR)
                        else (code, dst, *kids))
        return dst

    # ------------------------------------------------------------------
    def slots_of(self, names: Iterable[str]) -> List[int]:
        """The slot of each named variable, -1 for one no root reads."""
        return [self.variables.get(name, -1) for name in names]

    def run(self, where: Sequence[int], vectors: Iterable[int],
            mask: int) -> List[int]:
        """Load ``vectors`` into the slots ``where`` (-1 skips one), run
        the ops over ``mask = (1 << W) - 1`` lanes, return the slots."""
        slots = [0] * self.num_slots
        for slot, vector in zip(where, vectors):
            if slot >= 0:
                slots[slot] = vector
        slots[TRUE_SLOT] = mask
        for op in self.ops:
            code = op[0]
            if code == _NOT:
                slots[op[1]] = mask ^ slots[op[2]]
            elif code == _AND:
                acc = mask
                for a in op[2]:
                    acc &= slots[a]
                slots[op[1]] = acc
            elif code == _OR:
                acc = 0
                for a in op[2]:
                    acc |= slots[a]
                slots[op[1]] = acc
            elif code == _XOR:
                slots[op[1]] = slots[op[2]] ^ slots[op[3]]
            elif code == _IFF:
                slots[op[1]] = mask ^ (slots[op[2]] ^ slots[op[3]])
            else:  # _ITE
                c = slots[op[2]]
                slots[op[1]] = (c & slots[op[3]]) | ((mask ^ c) & slots[op[4]])
        return slots

    def evaluate(self, env: Mapping, mask: int = 1) -> List[int]:
        """Each root's lane vector, reading variable lanes from ``env``
        (``KeyError`` for a missing one; a bool is a one-lane vector)."""
        slots = self.run(self.variables.values(),
                         [int(env[name]) & mask for name in self.variables],
                         mask)
        return [slots[s] for s in self.outputs]

    # ------------------------------------------------------------------
    def lower(self, leaf: Callable[[str], Any],
              gates: Mapping[str, Callable[..., Any]],
              false: Any, true: Any) -> List[Any]:
        """The roots computed in another algebra: ``leaf(name)`` gives
        each variable's value, ``gates[op](*kids)`` each gate's, for
        ``op`` in ``"not" "and" "or" "xor" "iff" "ite"``."""
        values: List[Any] = [false, true] + [None] * (self.num_slots - 2)
        for name, slot in self.variables.items():
            values[slot] = leaf(name)
        for code, dst, *args in self.ops:
            kids = args[0] if code in (_AND, _OR) else args
            values[dst] = gates[_NAMES[code]](*(values[a] for a in kids))
        return [values[s] for s in self.outputs]

    def dual_rail(self) -> "Program":
        """The Kleene lowering onto the same ops: each value becomes a
        (known 1, known 0) pair of rails, X being neither.  It reads
        the ``(name, True)`` / ``(name, False)`` rails and outputs each
        root's two rails in turn.  Negation swaps rails, costing no op.
        """
        if self._dual is not None:
            return self._dual
        low = Program(())
        low.roots = self.roots

        def rails(name):
            pair = low._fresh(), low._fresh()
            low.variables[(name, True)], low.variables[(name, False)] = pair
            return pair

        def any_of(*terms):
            return low._gate(_OR, [low._gate(_AND, term) for term in terms])

        def conj(*kids):
            return (low._gate(_AND, [t for t, _ in kids]),
                    low._gate(_OR, [f for _, f in kids]))

        def xor(a, b):
            (at, af), (bt, bf) = a, b
            return any_of((at, bf), (af, bt)), any_of((at, bt), (af, bf))

        def ite(c, t, e):
            # A known condition picks a branch; agreeing branches win.
            (ct, cf), (tt, tf), (et, ef) = c, t, e
            return (any_of((ct, tt), (cf, et), (tt, et)),
                    any_of((ct, tf), (cf, ef), (tf, ef)))

        pairs = self.lower(rails, {
            "not": lambda a: a[::-1],
            "and": conj,
            "or": lambda *kids: conj(*(k[::-1] for k in kids))[::-1],
            "xor": xor,
            "iff": lambda a, b: xor(a, b)[::-1],
            "ite": ite,
        }, (FALSE_SLOT, TRUE_SLOT), (TRUE_SLOT, FALSE_SLOT))
        low.outputs = [rail for pair in pairs for rail in pair]
        self._dual = low
        return low

    def ternary(self, env: Mapping[str, Optional[bool]]
                ) -> List[Optional[bool]]:
        """Kleene three-valued value of each root; ``None`` is X, and
        so is a variable missing from ``env``."""
        low = self.dual_rail()
        slots = low.run(low.variables.values(), [
            int(env.get(name) is not None and bool(env[name]) is bit)
            for name, bit in low.variables], 1)
        rails = iter(low.outputs)
        return [True if slots[t] else False if slots[f] else None
                for t, f in zip(rails, rails)]


_CACHE: "weakref.WeakKeyDictionary[object, Dict[str, Program]]" = \
    weakref.WeakKeyDictionary()


def cached_program(owner: object, tag: str,
                   roots: Sequence[Expr]) -> Program:
    """The program for ``roots``, compiled once per ``owner`` and ``tag``
    (again if ``roots`` changed).  Weakly keyed beside the owner, not
    on it, so it dies with the owner and is never pickled with it."""
    programs = _CACHE.setdefault(owner, {})
    program = programs.get(tag)
    if program is None or program.roots != tuple(roots):
        program = programs[tag] = Program(roots)
    return program
