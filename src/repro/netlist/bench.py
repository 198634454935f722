"""ISCAS ``.bench`` format reader and writer.

The ``.bench`` dialect understood here is the one used for the ISCAS85
combinational benchmarks::

    # comment
    INPUT(1)
    OUTPUT(22)
    10 = NAND(1, 3)
    22 = NAND(10, 16)

Parsing is strict: unknown gate functions, redefined nets, missing
drivers and arity violations all raise
:class:`~repro.errors.BenchFormatError` (wrapping the underlying netlist
error where appropriate) with a line number, because silently mis-read
benchmarks would invalidate every experiment downstream.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import BenchFormatError, NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import Gate, GateType

__all__ = ["parse_bench", "parse_bench_file", "write_bench", "write_bench_file"]

_INPUT_RE = re.compile(r"^INPUT\s*\(\s*([^\s()]+)\s*\)$", re.IGNORECASE)
_OUTPUT_RE = re.compile(r"^OUTPUT\s*\(\s*([^\s()]+)\s*\)$", re.IGNORECASE)
_ASSIGN_RE = re.compile(
    r"^([^\s=]+)\s*=\s*([A-Za-z]+)\s*\(\s*([^()]*)\s*\)$"
)

#: ``.bench`` function keywords mapped to gate types (case-insensitive).
_FUNCTIONS = {
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
}


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ``.bench`` text into a :class:`Circuit`.

    Args:
        text: full file contents.
        name: circuit name (``.bench`` has no in-band name field).
    """
    gates: list[Gate] = []
    seen: set[str] = set()
    outputs: list[str] = []

    def add(gate: Gate, lineno: int) -> None:
        if gate.name in seen:
            raise BenchFormatError(f"line {lineno}: net {gate.name!r} defined twice")
        seen.add(gate.name)
        gates.append(gate)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if match := _INPUT_RE.match(line):
            add(Gate(match.group(1), GateType.INPUT), lineno)
            continue
        if match := _OUTPUT_RE.match(line):
            outputs.append(match.group(1))
            continue
        match = _ASSIGN_RE.match(line)
        if not match:
            raise BenchFormatError(f"line {lineno}: cannot parse {raw.strip()!r}")
        target, func, fanin_text = match.groups()
        gate_type = _FUNCTIONS.get(func.upper())
        if gate_type is None:
            raise BenchFormatError(f"line {lineno}: unknown gate function {func!r}")
        fanins = tuple(f.strip() for f in fanin_text.split(",") if f.strip())
        try:
            gate = Gate(target, gate_type, fanins)
        except (ValueError, NetlistError) as exc:
            raise BenchFormatError(f"line {lineno}: {exc}") from exc
        add(gate, lineno)

    try:
        circuit = Circuit(name, gates, outputs)
    except NetlistError as exc:
        raise BenchFormatError(str(exc)) from exc
    if not circuit.gate_names:
        raise BenchFormatError(f"circuit {name!r} has no logic gates")
    return circuit


def parse_bench_file(path: str | Path, name: str | None = None) -> Circuit:
    """Parse a ``.bench`` file; the circuit name defaults to the file stem."""
    path = Path(path)
    return parse_bench(path.read_text(), name=name or path.stem)


def write_bench(circuit: Circuit, header: str = "") -> str:
    """Serialise a circuit to ``.bench`` text.

    The output round-trips through :func:`parse_bench` to a structurally
    identical circuit (same gates, fanin order, outputs).
    """
    lines: list[str] = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    lines.append(f"# circuit: {circuit.name}")
    lines.append(
        f"# {len(circuit.input_names)} inputs, {len(circuit.output_names)} outputs, "
        f"{len(circuit.gate_names)} gates"
    )
    lines.extend(f"INPUT({name})" for name in circuit.input_names)
    lines.append("")
    lines.extend(f"OUTPUT({name})" for name in circuit.output_names)
    lines.append("")
    # Emit in insertion order so writing and re-parsing is an exact
    # round-trip (``.bench`` does not require definition before use).
    for gate in circuit:
        if gate.gate_type.is_input:
            continue
        fanins = ", ".join(gate.fanins)
        lines.append(f"{gate.name} = {gate.gate_type.value}({fanins})")
    return "\n".join(lines) + "\n"


def write_bench_file(circuit: Circuit, path: str | Path, header: str = "") -> None:
    Path(path).write_text(write_bench(circuit, header=header))
