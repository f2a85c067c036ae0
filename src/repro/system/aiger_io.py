"""AIGER reading and writing — ASCII (``aag``) and binary (``aig``).

Supports the AIGER 1.0 header ``aag M I L O A`` and the 1.9 extension
``aag M I L O A B`` (bad-state properties), plus latch reset values and
the symbol table (``i0/l0/o0/b0`` lines).  Binary ``aig`` files use the
standard compact encoding: inputs and latches get implicit consecutive
literals, and each AND gate is a pair of LEB128 delta-encoded operands
(``delta0 = lhs - rhs0``, ``delta1 = rhs0 - rhs1``) — the layout every
HWMCC distribution ships.

Reading produces a :class:`repro.system.circuit.Circuit` whose latch
update functions are the AIG cones converted back to expression DAGs.
"""

from __future__ import annotations

import io
import os
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from ..logic import expr as ex
from ..logic.aig import AIG, aig_to_expr, build_literals
from .circuit import Circuit

__all__ = ["parse_aiger", "parse_aiger_binary", "load_aiger",
           "write_aiger", "write_aiger_binary", "AigerError"]


class AigerError(ValueError):
    """Raised on malformed AIGER input."""


# ----------------------------------------------------------------------
# Shared assembly: literal tables -> Circuit
# ----------------------------------------------------------------------
def _assemble(name: str,
              max_var: int,
              input_lits: List[int],
              latch_lits: List[int],
              latch_next: List[int],
              latch_init: List[Optional[bool]],
              output_lits: List[int],
              bad_lits: List[int],
              and_rows: Sequence[Tuple[int, int, int]],
              symbols: Dict[str, str]) -> Circuit:
    aig = AIG()
    lit_names: Dict[int, str] = {}
    for idx, lit in enumerate(input_lits):
        if lit % 2 or lit == 0:
            raise AigerError(f"invalid input literal {lit}")
        lit_names[lit] = symbols.get(f"i{idx}", f"in{idx}")
    for idx, lit in enumerate(latch_lits):
        if lit % 2 or lit == 0:
            raise AigerError(f"invalid latch literal {lit}")
        lit_names[lit] = symbols.get(f"l{idx}", f"latch{idx}")

    # Rebuild the AIG's internal tables so literal numbering matches.
    aig._num_vars = max_var
    for lhs, a, b in and_rows:
        if lhs % 2 or lhs == 0:
            raise AigerError(f"invalid and literal {lhs}")
        if a >= lhs or b >= lhs:
            # The expression rebuilder relies on topological numbering,
            # which the AIGER format mandates anyway.
            raise AigerError(f"and gate {lhs} uses a later literal")
        lo, hi = (a, b) if a <= b else (b, a)
        aig._and_defs[lhs // 2] = (lo, hi)
        aig._strash[(lo, hi)] = lhs

    circuit = Circuit(name)
    leaf_names = dict(lit_names)
    for lit in input_lits:
        circuit.add_input(leaf_names[lit])
    for idx, lit in enumerate(latch_lits):
        circuit.add_latch(leaf_names[lit], init=latch_init[idx])
    for idx, lit in enumerate(latch_lits):
        circuit.set_next(leaf_names[lit],
                         aig_to_expr(aig, latch_next[idx], leaf_names))
    for idx, lit in enumerate(output_lits):
        label = symbols.get(f"o{idx}", f"out{idx}")
        circuit.add_output(label, aig_to_expr(aig, lit, leaf_names))
    for idx, lit in enumerate(bad_lits):
        label = symbols.get(f"b{idx}", f"bad{idx}")
        circuit.add_bad(label, aig_to_expr(aig, lit, leaf_names))
    return circuit


def _parse_reset(raw: Optional[int], lit: int) -> Optional[bool]:
    """AIGER reset field: 0/1 are concrete, own-literal = unconstrained."""
    if raw is None:
        return False
    reset = {0: False, 1: True}.get(raw)
    if reset is None and raw != lit:
        raise AigerError(f"invalid reset value {raw}")
    return reset


def _read_symbols(lines) -> Dict[str, str]:
    symbols: Dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if line == "c":
            break
        if not line:
            continue
        key, _, label = line.partition(" ")
        if label:
            symbols[key] = label
    return symbols


# ----------------------------------------------------------------------
# ASCII read
# ----------------------------------------------------------------------
def parse_aiger(source: str | TextIO, name: str = "aiger") -> Circuit:
    """Parse an ASCII AIGER file into a Circuit."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    header = stream.readline().split()
    if len(header) not in (6, 7) or header[0] != "aag":
        raise AigerError(f"bad header: {' '.join(header)}")
    try:
        max_var, n_in, n_latch, n_out, n_and = (int(x) for x in header[1:6])
        n_bad = int(header[6]) if len(header) == 7 else 0
    except ValueError as exc:
        raise AigerError("non-numeric header field") from exc

    def read_ints(count: int, what: str) -> List[List[int]]:
        rows = []
        for _ in range(count):
            line = stream.readline()
            if not line:
                raise AigerError(f"unexpected EOF in {what}")
            rows.append([int(t) for t in line.split()])
        return rows

    input_rows = read_ints(n_in, "inputs")
    latch_rows = read_ints(n_latch, "latches")
    output_rows = read_ints(n_out, "outputs")
    bad_rows = read_ints(n_bad, "bad")
    and_rows = read_ints(n_and, "ands")
    symbols = _read_symbols(stream)

    input_lits = [row[0] for row in input_rows]
    latch_lits = [row[0] for row in latch_rows]
    latch_next = [row[1] for row in latch_rows]
    latch_init = [_parse_reset(row[2] if len(row) >= 3 else None, row[0])
                  for row in latch_rows]
    ands: List[Tuple[int, int, int]] = []
    for row in and_rows:
        if len(row) != 3:
            raise AigerError(f"bad and line: {row}")
        ands.append((row[0], row[1], row[2]))
    return _assemble(name, max_var, input_lits, latch_lits, latch_next,
                     latch_init, [r[0] for r in output_rows],
                     [r[0] for r in bad_rows], ands, symbols)


# ----------------------------------------------------------------------
# Binary read
# ----------------------------------------------------------------------
def _decode_leb128(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one LEB128 varint; returns (value, next position)."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise AigerError("unexpected EOF in binary and section")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def parse_aiger_binary(data: bytes, name: str = "aiger") -> Circuit:
    """Parse a binary (``aig``) AIGER file into a Circuit.

    Inputs occupy implicit literals ``2..2I``; latch ``i`` is literal
    ``2(I+1+i)``; AND gate ``i`` defines literal ``2(I+L+1+i)`` from two
    LEB128 deltas.  Latch lines carry only the next-state literal and an
    optional reset.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise AigerError("missing header line")
    header = data[:newline].decode("ascii", "replace").split()
    if len(header) not in (6, 7) or header[0] != "aig":
        raise AigerError(f"bad header: {' '.join(header)}")
    try:
        max_var, n_in, n_latch, n_out, n_and = (int(x) for x in header[1:6])
        n_bad = int(header[6]) if len(header) == 7 else 0
    except ValueError as exc:
        raise AigerError("non-numeric header field") from exc
    if max_var != n_in + n_latch + n_and:
        raise AigerError(
            f"binary header M={max_var} != I+L+A={n_in + n_latch + n_and}")

    pos = newline + 1

    def read_line() -> List[int]:
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            raise AigerError("unexpected EOF in ASCII section")
        row = [int(t) for t in data[pos:end].split()]
        pos = end + 1
        return row

    input_lits = [2 * (i + 1) for i in range(n_in)]
    latch_lits = [2 * (n_in + 1 + i) for i in range(n_latch)]
    latch_next: List[int] = []
    latch_init: List[Optional[bool]] = []
    for idx in range(n_latch):
        row = read_line()
        if not row:
            raise AigerError(f"empty latch line {idx}")
        latch_next.append(row[0])
        latch_init.append(_parse_reset(row[1] if len(row) >= 2 else None,
                                       latch_lits[idx]))
    output_lits = [read_line()[0] for _ in range(n_out)]
    bad_lits = [read_line()[0] for _ in range(n_bad)]

    ands: List[Tuple[int, int, int]] = []
    for i in range(n_and):
        lhs = 2 * (n_in + n_latch + 1 + i)
        delta0, pos = _decode_leb128(data, pos)
        delta1, pos = _decode_leb128(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise AigerError(f"and gate {lhs}: delta underflows")
        ands.append((lhs, rhs0, rhs1))

    symbols = _read_symbols(
        io.StringIO(data[pos:].decode("ascii", "replace")))
    return _assemble(name, max_var, input_lits, latch_lits, latch_next,
                     latch_init, output_lits, bad_lits, ands, symbols)


def load_aiger(path: str | os.PathLike) -> Circuit:
    """Load an AIGER file, sniffing ASCII vs binary from the header."""
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(b"aig "):
        return parse_aiger_binary(data, name)
    return parse_aiger(data.decode("ascii", "replace"), name)


# ----------------------------------------------------------------------
# Write (shared AIG construction)
# ----------------------------------------------------------------------
def _circuit_to_aig(circuit: Circuit):
    """Build the shared AIG for a circuit.

    Returns ``(aig, latch_literal, latch_out_lits, output_items,
    output_lits, bad_items, bad_lits, input_lits)`` with inputs and
    latches laid out in declaration order (the AIGER variable layout).
    """
    roots: List[ex.Expr] = []
    for latch in circuit.latch_names:
        nxt = circuit._next_exprs[latch]
        if nxt is None:
            raise AigerError(f"latch {latch!r} has no next-state function")
        roots.append(nxt)
    output_items = list(circuit.outputs.items())
    bad_items = list(circuit.bad.items())
    roots.extend(expr for _, expr in output_items)
    roots.extend(expr for _, expr in bad_items)

    aig = AIG()
    leaf_lit: Dict[str, int] = {}
    for wire in circuit.input_names:
        leaf_lit[wire] = aig.add_input(wire)
    latch_literal: Dict[str, int] = {}
    for latch in circuit.latch_names:
        lit = aig.add_latch(latch, init=circuit._init_values[latch])
        leaf_lit[latch] = lit
        latch_literal[latch] = lit

    def leaf(name: str) -> int:
        if name not in leaf_lit:
            raise AigerError(f"free wire {name!r} in expression")
        return leaf_lit[name]

    root_lits = build_literals(aig, roots, leaf)
    n_latch = len(circuit.latch_names)
    latch_out_lits = root_lits[:n_latch]
    output_lits = root_lits[n_latch:n_latch + len(output_items)]
    bad_lits = root_lits[n_latch + len(output_items):]
    input_lits = [leaf_lit[w] for w in circuit.input_names]
    return (aig, latch_literal, latch_out_lits, output_items, output_lits,
            bad_items, bad_lits, input_lits)


def write_aiger(circuit: Circuit) -> str:
    """Serialize a Circuit to ASCII AIGER (aag, with bad lines if any).

    Latch updates, outputs and bad expressions are rebuilt into a single
    shared AIG; inputs and latches keep their declaration order.
    """
    (aig, latch_literal, latch_out_lits, output_items, output_lits,
     bad_items, bad_lits, input_lits) = _circuit_to_aig(circuit)

    lines = [f"aag {aig.num_vars} {len(circuit.input_names)} "
             f"{len(circuit.latch_names)} "
             f"{len(output_items)} {aig.num_ands}"
             + (f" {len(bad_items)}" if bad_items else "")]
    for lit in input_lits:
        lines.append(str(lit))
    for latch, next_lit in zip(circuit.latch_names, latch_out_lits):
        init = circuit._init_values[latch]
        lit = latch_literal[latch]
        if init is False:
            lines.append(f"{lit} {next_lit}")
        elif init is True:
            lines.append(f"{lit} {next_lit} 1")
        else:
            lines.append(f"{lit} {next_lit} {lit}")
    for lit in output_lits:
        lines.append(str(lit))
    for lit in bad_lits:
        lines.append(str(lit))
    for lhs, a, b in aig.iter_ands():
        lines.append(f"{lhs} {b} {a}" if a < b else f"{lhs} {a} {b}")
    for idx, wire in enumerate(circuit.input_names):
        lines.append(f"i{idx} {wire}")
    for idx, latch in enumerate(circuit.latch_names):
        lines.append(f"l{idx} {latch}")
    for idx, (label, _) in enumerate(output_items):
        lines.append(f"o{idx} {label}")
    for idx, (label, _) in enumerate(bad_items):
        lines.append(f"b{idx} {label}")
    return "\n".join(lines) + "\n"


def _encode_leb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def write_aiger_binary(circuit: Circuit) -> bytes:
    """Serialize a Circuit to binary AIGER (``aig``).

    The shared AIG already numbers variables inputs-first, latches
    second, ANDs last and topologically — exactly the layout the binary
    format mandates — so gates emit as consecutive delta pairs.
    """
    (aig, latch_literal, latch_out_lits, output_items, output_lits,
     bad_items, bad_lits, _input_lits) = _circuit_to_aig(circuit)

    n_in = len(circuit.input_names)
    n_latch = len(circuit.latch_names)
    header = (f"aig {aig.num_vars} {n_in} {n_latch} "
              f"{len(output_items)} {aig.num_ands}"
              + (f" {len(bad_items)}" if bad_items else ""))
    chunks: List[bytes] = [header.encode("ascii"), b"\n"]
    for latch, next_lit in zip(circuit.latch_names, latch_out_lits):
        init = circuit._init_values[latch]
        lit = latch_literal[latch]
        if init is False:
            line = f"{next_lit}"
        elif init is True:
            line = f"{next_lit} 1"
        else:
            line = f"{next_lit} {lit}"
        chunks.append(line.encode("ascii") + b"\n")
    for lit in output_lits:
        chunks.append(f"{lit}\n".encode("ascii"))
    for lit in bad_lits:
        chunks.append(f"{lit}\n".encode("ascii"))
    for lhs, a, b in aig.iter_ands():
        rhs0, rhs1 = (a, b) if a >= b else (b, a)
        chunks.append(_encode_leb128(lhs - rhs0))
        chunks.append(_encode_leb128(rhs0 - rhs1))
    for idx, wire in enumerate(circuit.input_names):
        chunks.append(f"i{idx} {wire}\n".encode("ascii"))
    for idx, latch in enumerate(circuit.latch_names):
        chunks.append(f"l{idx} {latch}\n".encode("ascii"))
    for idx, (label, _) in enumerate(output_items):
        chunks.append(f"o{idx} {label}\n".encode("ascii"))
    for idx, (label, _) in enumerate(bad_items):
        chunks.append(f"b{idx} {label}\n".encode("ascii"))
    return b"".join(chunks)
