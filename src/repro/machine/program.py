"""Static program representation: basic blocks and data segments.

A :class:`Program` is the unit loaded into a simulated process and the unit
the dynamic-binary-rewriting engine caches. Control flow may only occur at
basic-block boundaries, matching the granularity at which DynamoRIO copies
code into its cache.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.machine.isa import BLOCK_TERMINATORS, Instruction


class BasicBlock:
    """A straight-line run of instructions with a single entry point.

    Blocks fall through to the next block in program order unless their
    last instruction is a terminator (jump/return/halt).
    """

    __slots__ = ("label", "index", "instructions")

    def __init__(self, label: str, index: int = -1):
        self.label = label
        #: Position in the program's block list; -1 until finalized.
        self.index = index
        self.instructions: List[Instruction] = []

    def append(self, instr: Instruction) -> None:
        """Append an instruction, rejecting code after a terminator."""
        if self.instructions and self.instructions[-1].op in BLOCK_TERMINATORS:
            raise WorkloadError(
                f"block {self.label!r}: instruction after terminator")
        self.instructions.append(instr)

    @property
    def terminated(self) -> bool:
        """True when the block ends in an explicit terminator."""
        return bool(self.instructions) and \
            self.instructions[-1].op in BLOCK_TERMINATORS

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.label!r} x{len(self.instructions)}>"


class DataSegment:
    """A statically declared region of memory, mapped eagerly at load time.

    ``initial`` maps word offsets (in bytes, 8-aligned) to initial values.
    ``writable=False`` maps the segment read-only (like an ELF .rodata):
    stores raise a genuine guest protection fault — useful both for
    workload hygiene and for exercising the non-Aikido fault path.
    """

    __slots__ = ("name", "size", "initial", "writable")

    def __init__(self, name: str, size: int,
                 initial: Optional[Dict[int, int]] = None,
                 writable: bool = True):
        if size <= 0:
            raise WorkloadError(f"segment {name!r} has non-positive size")
        self.name = name
        self.size = size
        self.initial = dict(initial or {})
        self.writable = writable


class Program:
    """A finalized set of basic blocks plus static data segments.

    Construction protocol: create blocks (usually via
    :class:`repro.machine.asm.ProgramBuilder`), then call :meth:`finalize`,
    which resolves labels to block indices, assigns instruction uids, and
    validates structure. A finalized program is immutable.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self.blocks: List[BasicBlock] = []
        self.segments: List[DataSegment] = []
        self._labels: Dict[str, int] = {}
        self._finalized = False
        #: uid -> (block index, instruction index); built at finalize.
        self.instruction_locations: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_block(self, label: str) -> BasicBlock:
        """Create and register a new basic block with a unique label."""
        self._check_mutable()
        if label in self._labels:
            raise WorkloadError(f"duplicate label {label!r}")
        block = BasicBlock(label, index=len(self.blocks))
        self._labels[label] = block.index
        self.blocks.append(block)
        return block

    def add_segment(self, segment: DataSegment) -> None:
        """Register a static data segment, mapped by the loader."""
        self._check_mutable()
        self.segments.append(segment)

    def finalize(self) -> "Program":
        """Validate, resolve labels and assign instruction uids.

        Returns self for chaining. Raises
        :class:`~repro.errors.WorkloadError` on structural problems:
        unknown labels, terminators in mid-block (prevented at append),
        fall-through off the end of the program, or an empty program.
        """
        self._check_mutable()
        if not self.blocks:
            raise WorkloadError(f"program {self.name!r} has no code")
        seen_segments: Dict[str, int] = {}
        for index, segment in enumerate(self.segments):
            first = seen_segments.setdefault(segment.name, index)
            if first != index:
                # Both segments would be laid out (at different bases),
                # but the loader's per-process ``segment_bases`` dict
                # keeps only one entry per name — a recipe for workloads
                # writing one copy and reading the other.
                raise WorkloadError(
                    f"{self.name}: duplicate data segment "
                    f"{segment.name!r} (segment #{first}, "
                    f"{self.segments[first].size} bytes, and segment "
                    f"#{index}, {segment.size} bytes)")
        uid = 0
        for block in self.blocks:
            for pos, instr in enumerate(block.instructions):
                if instr.label is not None and instr.label not in self._labels:
                    raise WorkloadError(
                        f"{self.name}: unknown label {instr.label!r} in "
                        f"block {block.label!r}")
                if (instr.op in BLOCK_TERMINATORS
                        and pos != len(block.instructions) - 1):
                    raise WorkloadError(
                        f"{self.name}: terminator mid-block in {block.label!r}")
                instr.uid = uid
                self.instruction_locations[uid] = (block.index, pos)
                uid += 1
        last = self.blocks[-1]
        if not last.terminated:
            raise WorkloadError(
                f"{self.name}: last block {last.label!r} falls through "
                "off the end of the program")
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def finalized(self) -> bool:
        return self._finalized

    def label_index(self, label: str) -> int:
        """Resolve a label to its block index."""
        try:
            return self._labels[label]
        except KeyError:
            raise WorkloadError(f"unknown label {label!r}") from None

    def block_at(self, index: int) -> BasicBlock:
        return self.blocks[index]

    def instruction_at(self, uid: int) -> Instruction:
        """Return the static instruction with the given uid."""
        block_index, pos = self.instruction_locations[uid]
        return self.blocks[block_index].instructions[pos]

    def iter_instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def static_memory_instruction_count(self) -> int:
        """Number of static instructions that reference data memory."""
        return sum(1 for i in self.iter_instructions() if i.is_memory_op)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Program {self.name!r} blocks={len(self.blocks)} "
                f"segments={len(self.segments)}>")

    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._finalized:
            raise WorkloadError(f"program {self.name!r} is finalized")
