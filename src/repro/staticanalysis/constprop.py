"""Per-register constant / interval propagation.

The abstract value :class:`AVal` tracks what a 64-bit register may hold:

* ``BOT`` — unreachable / no value yet;
* a small set of known constants (at most :data:`MAX_CONSTS`);
* an unsigned interval ``[lo, hi]``;
* a *strided multi-interval*: a small set of base constants plus a
  bounded offset, ``{c + d : c in consts, 0 <= d <= width}`` — the
  shape of "partition base (ring generation x owner) + random index"
  address arithmetic that pipeline workloads use. Without it, adding a
  bounded random offset to a set of partition bases collapses to one
  interval spanning every partition, and per-thread privacy is lost;
* ``TOP`` — anything.

Each value also carries a ``maybe_tid`` taint: set on SPAWN results (and
anything they flow into), it lets the linter flag ``JOIN`` of a register
that provably never saw a thread id.

Transfer functions mirror :meth:`repro.machine.cpu.CPU.execute` exactly:
64-bit wrapping arithmetic (a potentially wrapping interval degrades to
TOP rather than modelling the wrap), unsigned comparisons, shift counts
masked to 6 bits, ``x % m`` in ``[0, m-1]``. The analysis is
intra-thread (FALL/BRANCH edges); CALL targets are seeded with all-TOP
entry states and registers are clobbered to TOP after a CALL returns,
which is sound for arbitrary callees. Conditional branches refine the
tested registers along their taken/fall-through edges, which is what
lets loop-strided address registers stay bounded.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.machine.isa import REGISTER_COUNT, Instruction, Opcode
from repro.staticanalysis.cfg import CFG, EdgeKind
from repro.staticanalysis.dataflow import ForwardProblem, solve_forward

_MASK64 = 0xFFFFFFFFFFFFFFFF
_UMAX = _MASK64

#: Constant sets larger than this degrade to an interval.
MAX_CONSTS = 16

#: Widening ladder: ascending bound landmarks (see :meth:`AVal.widen`).
_WIDEN_THRESHOLDS = tuple(
    [0] + [1 << k for k in (8, 12, 16, 20, 24, 28, 29, 30, 31, 32,
                            36, 40, 48, 56)] + [_UMAX])

_BOT, _CONST, _RANGE, _SETOFF, _TOP = \
    "bot", "const", "range", "setoff", "top"


class AVal:
    """Abstract 64-bit register value (immutable).

    For the ``setoff`` kind, ``consts`` holds the base constants and
    ``hi`` the inclusive offset width (``lo`` is unused and stays 0):
    the concrete values are ``{c + d : c in consts, 0 <= d <= hi}``.
    """

    __slots__ = ("kind", "consts", "lo", "hi", "maybe_tid")

    def __init__(self, kind: str, consts: FrozenSet[int] = frozenset(),
                 lo: int = 0, hi: int = 0, maybe_tid: bool = False):
        self.kind = kind
        self.consts = consts
        self.lo = lo
        self.hi = hi
        self.maybe_tid = maybe_tid

    # -- constructors ---------------------------------------------------
    @staticmethod
    def bot() -> "AVal":
        return _BOT_VAL

    @staticmethod
    def top(maybe_tid: bool = False) -> "AVal":
        return _TID_TOP_VAL if maybe_tid else _TOP_VAL

    @staticmethod
    def const(value: int, maybe_tid: bool = False) -> "AVal":
        """The single constant ``value``, interned (see :data:`_INTERNED`)."""
        key = (value & _MASK64, maybe_tid)
        val = _INTERNED.get(key)
        if val is None:
            if len(_INTERNED) >= MAX_INTERNED:
                _INTERNED.clear()
            val = _INTERNED[key] = AVal(_CONST, frozenset((key[0],)),
                                        maybe_tid=maybe_tid)
        return val

    @staticmethod
    def const_set(values: Iterable[int],
                  maybe_tid: bool = False) -> "AVal":
        return _masked_const_set(frozenset(v & _MASK64 for v in values),
                                 maybe_tid)

    @staticmethod
    def range(lo: int, hi: int, maybe_tid: bool = False) -> "AVal":
        if lo > hi:
            return _BOT_VAL
        if lo < 0 or hi > _UMAX:
            return AVal.top(maybe_tid)
        if lo == hi:
            return AVal.const(lo, maybe_tid)
        if hi - lo + 1 <= MAX_CONSTS:
            return AVal(_CONST, frozenset(range(lo, hi + 1)),
                        maybe_tid=maybe_tid)
        return AVal(_RANGE, lo=lo, hi=hi, maybe_tid=maybe_tid)

    @staticmethod
    def setoff(consts: Iterable[int], width: int,
               maybe_tid: bool = False) -> "AVal":
        """Base constants plus a bounded offset ``[0, width]``.

        Normalizes aggressively: zero width is a constant set, a single
        base (or bases whose windows all touch) is a plain interval, and
        more than :data:`MAX_CONSTS` bases degrade to the covering
        interval.
        """
        vals = frozenset(c & _MASK64 for c in consts)
        if not vals:
            return _BOT_VAL
        if width <= 0:
            return AVal.const_set(vals, maybe_tid)
        top = max(vals) + width
        if top > _UMAX:
            return AVal.top(maybe_tid)
        if len(vals) == 1 or len(vals) > MAX_CONSTS:
            return AVal.range(min(vals), top, maybe_tid)
        ordered = sorted(vals)
        if all(b - a <= width + 1
               for a, b in zip(ordered, ordered[1:])):
            return AVal.range(ordered[0], top, maybe_tid)
        return AVal(_SETOFF, vals, hi=width, maybe_tid=maybe_tid)

    # -- predicates -----------------------------------------------------
    @property
    def is_bot(self) -> bool:
        return self.kind == _BOT

    @property
    def is_top(self) -> bool:
        return self.kind == _TOP

    def bounds(self) -> Optional[Tuple[int, int]]:
        """(lo, hi) for bounded values, None for TOP/BOT."""
        if self.kind == _CONST:
            return (min(self.consts), max(self.consts))
        if self.kind == _RANGE:
            return (self.lo, self.hi)
        if self.kind == _SETOFF:
            return (min(self.consts), max(self.consts) + self.hi)
        return None

    def intervals(self) -> Optional[Tuple[Tuple[int, int], ...]]:
        """Disjoint concrete-value intervals, sorted ascending.

        ``None`` for TOP (unbounded), ``()`` for BOT. This is the
        footprint computation's entry point: a ``setoff`` value yields
        one interval per base constant instead of a single covering
        interval.
        """
        if self.kind == _CONST:
            raw = [(c, c) for c in sorted(self.consts)]
        elif self.kind == _RANGE:
            return ((self.lo, self.hi),)
        elif self.kind == _SETOFF:
            raw = [(c, c + self.hi) for c in sorted(self.consts)]
        elif self.kind == _BOT:
            return ()
        else:
            return None
        merged = [raw[0]]
        for lo, hi in raw[1:]:
            if lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return tuple(merged)

    def as_constant(self) -> Optional[int]:
        """The single concrete value, if there is exactly one."""
        if self.kind == _CONST and len(self.consts) == 1:
            return next(iter(self.consts))
        return None

    def may_contain(self, value: int) -> bool:
        """Could this value concretely be ``value``?"""
        if self.kind == _TOP:
            return True
        if self.kind == _CONST:
            return value in self.consts
        if self.kind == _RANGE:
            return self.lo <= value <= self.hi
        if self.kind == _SETOFF:
            return any(c <= value <= c + self.hi for c in self.consts)
        return False

    # -- lattice --------------------------------------------------------
    def join(self, other: "AVal") -> "AVal":
        # Equal operands are the common case in a converging fixed
        # point; the full join would only rebuild an equal value.
        if other is self or other == self:
            return self
        return self._join(other)

    def _join(self, other: "AVal") -> "AVal":
        """:meth:`join` without the equal-operand short-circuit."""
        kind, other_kind = self.kind, other.kind
        if kind == _BOT:
            return other.with_tid(self.maybe_tid or other.maybe_tid) \
                if self.maybe_tid else other
        if other_kind == _BOT:
            return self.with_tid(self.maybe_tid or other.maybe_tid) \
                if other.maybe_tid else self
        tid = self.maybe_tid or other.maybe_tid
        if kind == _TOP or other_kind == _TOP:
            return AVal.top(tid)
        if kind == _CONST and other_kind == _CONST:
            # Both operands are already masked: skip const_set's pass.
            return _masked_const_set(self.consts | other.consts, tid)
        if _SETOFF in (kind, other_kind):
            a, b = (self, other) if kind == _SETOFF else (other, self)
            if b.kind == _CONST:
                return AVal.setoff(a.consts | b.consts, a.hi, tid)
            if b.kind == _SETOFF:
                return AVal.setoff(a.consts | b.consts,
                                   max(a.hi, b.hi), tid)
            # b is a range: fold it in as one more base window.
            return AVal.setoff(a.consts | {b.lo},
                               max(a.hi, b.hi - b.lo), tid)
        a, b = self.bounds(), other.bounds()
        return AVal.range(min(a[0], b[0]), max(a[1], b[1]), tid)

    def widen(self, other: "AVal") -> "AVal":
        """Widening: unstable bounds jump to the next threshold.

        Thresholds are powers of two, which are also exactly the
        address-space region bases (static 2^28, heap 2^29, mmap 2^30,
        mirror 2^31) — so an address register that grows once settles at
        its region boundary instead of blowing up to 2^64. The ladder is
        finite, so repeated widening still terminates at TOP.
        """
        if other is self or other == self:
            return self
        return self._widen(other)

    def _widen(self, other: "AVal") -> "AVal":
        """:meth:`widen` without the equal-operand short-circuit."""
        joined = self._join(other)
        if joined == self:
            return self
        if joined.kind == _SETOFF:
            # Base sets only grow under join (capped at MAX_CONSTS,
            # beyond which setoff normalizes to a range), so the only
            # unstable dimension left is the offset width: jump it to
            # the next threshold like an interval bound.
            if self.kind == _SETOFF and joined.consts == self.consts \
                    and joined.hi > self.hi:
                w = next((t for t in _WIDEN_THRESHOLDS
                          if t >= joined.hi), _UMAX)
                return AVal.setoff(joined.consts, w, joined.maybe_tid)
            return joined
        mine, theirs = self.bounds(), joined.bounds()
        if mine is None or theirs is None:
            return joined
        lo, hi = theirs
        if hi > mine[1]:
            hi = next((t for t in _WIDEN_THRESHOLDS if t >= hi), _UMAX)
        if lo < mine[0]:
            lo = next((t for t in reversed(_WIDEN_THRESHOLDS)
                       if t <= lo), 0)
        if lo == 0 and hi == _UMAX:
            return AVal.top(joined.maybe_tid)
        return AVal.range(lo, hi, joined.maybe_tid)

    def with_tid(self, maybe_tid: bool) -> "AVal":
        if maybe_tid == self.maybe_tid:
            return self
        if self.kind == _CONST and len(self.consts) == 1:
            return AVal.const(next(iter(self.consts)), maybe_tid)
        return AVal(self.kind, self.consts, self.lo, self.hi, maybe_tid)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AVal)
                and self.kind == other.kind
                and self.consts == other.consts
                and self.lo == other.lo and self.hi == other.hi
                and self.maybe_tid == other.maybe_tid)

    def __hash__(self) -> int:
        return hash((self.kind, self.consts, self.lo, self.hi,
                     self.maybe_tid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tid = "~tid" if self.maybe_tid else ""
        if self.kind == _CONST:
            vals = ",".join(f"{v:#x}" for v in sorted(self.consts))
            return f"{{{vals}}}{tid}"
        if self.kind == _RANGE:
            return f"[{self.lo:#x},{self.hi:#x}]{tid}"
        if self.kind == _SETOFF:
            vals = ",".join(f"{v:#x}" for v in sorted(self.consts))
            return f"{{{vals}}}+[0,{self.hi:#x}]{tid}"
        return self.kind.upper() + tid


_BOT_VAL = AVal(_BOT)
_TOP_VAL = AVal(_TOP)
_TID_TOP_VAL = AVal(_TOP, maybe_tid=True)

#: Intern table for single-constant values, keyed by (value, maybe_tid):
#: every constant the analyses build goes through :meth:`AVal.const`,
#: so equal constants are usually the same object and joins of them
#: take the identity short-circuit. Cleared when it reaches
#: :data:`MAX_INTERNED` entries, which bounds it across a long campaign
#: of distinct programs (values stay equal after a clear, just no
#: longer identical to ones built before it).
_INTERNED: Dict[Tuple[int, bool], AVal] = {}
MAX_INTERNED = 1 << 14


def _masked_const_set(vals: FrozenSet[int], maybe_tid: bool) -> AVal:
    """:meth:`AVal.const_set` for values already reduced to 64 bits."""
    if not vals:
        return _BOT_VAL
    if len(vals) == 1:
        return AVal.const(next(iter(vals)), maybe_tid)
    if len(vals) > MAX_CONSTS:
        return AVal.range(min(vals), max(vals), maybe_tid)
    return AVal(_CONST, vals, maybe_tid=maybe_tid)


def _pairwise(a: AVal, b: AVal, fn) -> Optional[AVal]:
    """Exact const-set x const-set arithmetic when small enough."""
    if (a.kind == _CONST and b.kind == _CONST
            and len(a.consts) * len(b.consts) <= MAX_CONSTS * MAX_CONSTS):
        tid = a.maybe_tid or b.maybe_tid
        return AVal.const_set(
            (fn(x, y) for x in a.consts for y in b.consts), tid)
    return None


def _decompose(v: AVal) -> Optional[Tuple[FrozenSet[int], int]]:
    """(base constants, offset width) normal form, or None.

    Every bounded value is ``{c + d : c in bases, 0 <= d <= width}``:
    a constant set has width 0, a range is one base plus its span, and
    setoff carries both. TOP/BOT have no decomposition.
    """
    if v.kind == _CONST:
        return v.consts, 0
    if v.kind == _RANGE:
        return frozenset((v.lo,)), v.hi - v.lo
    if v.kind == _SETOFF:
        return v.consts, v.hi
    return None


def av_add(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x + y)
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    da, db = _decompose(a), _decompose(b)
    if da is not None and db is not None \
            and len(da[0]) * len(db[0]) <= MAX_CONSTS * MAX_CONSTS:
        bases = {x + y for x in da[0] for y in db[0]}
        if max(bases) + da[1] + db[1] <= _UMAX:
            return AVal.setoff(bases, da[1] + db[1], tid)
    ab, bb = a.bounds(), b.bounds()
    if ab is None or bb is None:
        return AVal.top(tid)
    lo, hi = ab[0] + bb[0], ab[1] + bb[1]
    if hi > _UMAX:  # may wrap
        return AVal.top(tid)
    return AVal.range(lo, hi, tid)


def av_sub(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x - y)
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    da, db = _decompose(a), _decompose(b)
    if da is not None and db is not None \
            and len(da[0]) * len(db[0]) <= MAX_CONSTS * MAX_CONSTS:
        # (ca + da) - (cb + db) = (ca - cb - wb) + (da + (wb - db)),
        # so shift the bases down by wb and widen by wa + wb.
        bases = {x - y - db[1] for x in da[0] for y in db[0]}
        if min(bases) >= 0:
            return AVal.setoff(bases, da[1] + db[1], tid)
    ab, bb = a.bounds(), b.bounds()
    if ab is None or bb is None:
        return AVal.top(tid)
    lo, hi = ab[0] - bb[1], ab[1] - bb[0]
    if lo < 0:  # may wrap below zero
        return AVal.top(tid)
    return AVal.range(lo, hi, tid)


def av_mul(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x * y)
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    ab, bb = a.bounds(), b.bounds()
    if ab is None or bb is None:
        return AVal.top(tid)
    hi = ab[1] * bb[1]
    if hi > _UMAX:
        return AVal.top(tid)
    return AVal.range(ab[0] * bb[0], hi, tid)


def av_and(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x & y)
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    ab, bb = a.bounds(), b.bounds()
    # x & y <= min(x, y): either bounded operand bounds the result.
    if ab is None and bb is None:
        return AVal.top(tid)
    hi = min(b[1] for b in (ab, bb) if b is not None)
    return AVal.range(0, hi, tid)


def av_or(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x | y)
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    ab, bb = a.bounds(), b.bounds()
    if ab is None or bb is None:
        return AVal.top(tid)
    # x | y never exceeds the next power of two above max(x, y).
    bits = max(ab[1].bit_length(), bb[1].bit_length())
    return AVal.range(max(ab[0], bb[0]), (1 << bits) - 1, tid)


def av_xor(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x ^ y)
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    ab, bb = a.bounds(), b.bounds()
    if ab is None or bb is None:
        return AVal.top(tid)
    bits = max(ab[1].bit_length(), bb[1].bit_length())
    return AVal.range(0, (1 << bits) - 1, tid)


def av_shl(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x << (y & 63))
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    ab = a.bounds()
    k = b.as_constant()
    if ab is None or k is None:
        return AVal.top(tid)
    k &= 63
    hi = ab[1] << k
    if hi > _UMAX:
        return AVal.top(tid)
    return AVal.range(ab[0] << k, hi, tid)


def av_shr(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b, lambda x, y: x >> (y & 63))
    if exact is not None:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    k = b.as_constant()
    if k is None:
        return AVal.top(tid)
    k &= 63
    ab = a.bounds()
    if ab is None:
        # Even TOP >> k is bounded: at most (2^64 - 1) >> k.
        return AVal.range(0, _UMAX >> k, tid)
    return AVal.range(ab[0] >> k, ab[1] >> k, tid)


def av_mod(a: AVal, b: AVal) -> AVal:
    if a.is_bot or b.is_bot:
        return AVal.bot()
    exact = _pairwise(a, b,
                      lambda x, y: x % y if y else 0) \
        if (b.kind == _CONST and 0 not in b.consts) else None
    if exact is not None and a.kind == _CONST:
        return exact
    tid = a.maybe_tid or b.maybe_tid
    bb = b.bounds()
    if bb is None:
        return AVal.top(tid)
    if bb[1] == 0:
        return AVal.bot()  # guaranteed modulo-by-zero trap
    ab = a.bounds()
    if ab is not None and ab[1] < bb[0] and bb[0] > 0:
        return a  # x % m == x when x < m for every possible m
    return AVal.range(0, bb[1] - 1, tid)


_ALU_FNS = {
    Opcode.ADD: av_add,
    Opcode.SUB: av_sub,
    Opcode.MUL: av_mul,
    Opcode.AND: av_and,
    Opcode.OR: av_or,
    Opcode.XOR: av_xor,
    Opcode.SHL: av_shl,
    Opcode.SHR: av_shr,
    Opcode.MOD: av_mod,
}

#: A register-file abstract state: one AVal per register.
RegState = Tuple[AVal, ...]


def initial_regs(arg: AVal = None) -> RegState:
    """Register file at thread start: all zero, ``r1`` = spawn arg."""
    regs = [AVal.const(0)] * REGISTER_COUNT
    if arg is not None:
        regs[1] = arg
    return tuple(regs)


def top_regs() -> RegState:
    """Fully unknown register file (CALL-target entry state)."""
    return (AVal.top(maybe_tid=True),) * REGISTER_COUNT


def instruction_address(instr: Instruction, regs: RegState) -> AVal:
    """Abstract effective address of a memory instruction."""
    mem = instr.mem
    if mem.base is None:
        return AVal.const(mem.disp)
    return av_add(regs[mem.base], AVal.const(mem.disp))


def instruction_address_bounds(instr: Instruction, regs: RegState
                               ) -> Optional[Tuple[int, int]]:
    """(lo, hi) bounds of the effective address, or None if unbounded."""
    return instruction_address(instr, regs).bounds()


class ConstProp(ForwardProblem):
    """Forward constant/interval propagation over one thread context.

    ``entry_regs`` is the register file at the context's entry block
    (main starts all-zero; a spawned thread starts all-zero with ``r1``
    set to the spawn argument's abstract value).
    """

    edge_kinds = frozenset({EdgeKind.FALL, EdgeKind.BRANCH})

    def __init__(self, cfg: CFG, entry_regs: Optional[RegState] = None):
        self.cfg = cfg
        self.entry_regs = entry_regs if entry_regs is not None \
            else initial_regs()

    # -- ForwardProblem interface --------------------------------------
    def initial(self) -> RegState:
        return (AVal.bot(),) * REGISTER_COUNT

    def entry_state(self) -> RegState:
        return self.entry_regs

    def join(self, a: RegState, b: RegState) -> RegState:
        if a == b:
            return a
        return tuple(x if x is y else x.join(y) for x, y in zip(a, b))

    def widen(self, old: RegState, new: RegState) -> RegState:
        if old == new:
            return old
        return tuple(x if x is y else x.widen(y) for x, y in zip(old, new))

    def transfer(self, block: int, state: RegState) -> RegState:
        regs = list(state)
        step = self._step
        for instr in self.cfg.program.blocks[block].instructions:
            step(instr, regs)
        return tuple(regs)

    def edge_transfer(self, block: int, out: RegState, succ: int,
                      kind: EdgeKind) -> RegState:
        instrs = self.cfg.program.blocks[block].instructions
        if not instrs:
            return out
        last = instrs[-1]
        taken = kind is EdgeKind.BRANCH
        return _refine_branch(last, out, taken)

    # -- semantics ------------------------------------------------------
    def _step(self, instr: Instruction, regs) -> None:
        op = instr.op
        if op is Opcode.LI:
            regs[instr.rd] = AVal.const(instr.imm)
        elif op is Opcode.MOV:
            regs[instr.rd] = regs[instr.rs1]
        elif op in _ALU_FNS:
            rhs = (regs[instr.rs2] if instr.rs2 is not None
                   else AVal.const(instr.imm))
            regs[instr.rd] = _ALU_FNS[op](regs[instr.rs1], rhs)
        elif op is Opcode.LOAD:
            # Loaded data is unknown, and a stored tid could round-trip
            # through memory, so keep the taint conservative.
            regs[instr.rd] = AVal.top(maybe_tid=True)
        elif op is Opcode.ATOMIC_ADD:
            if instr.rd is not None:
                regs[instr.rd] = AVal.top(maybe_tid=True)
        elif op is Opcode.SPAWN:
            regs[instr.rd] = AVal.top(maybe_tid=True)
        elif op is Opcode.SYSCALL or op is Opcode.HYPERCALL:
            # Result in r0 (SYS_GETTID returns a thread id there).
            regs[0] = AVal.top(maybe_tid=True)
        elif op is Opcode.CALL:
            # Arbitrary callee: every register may have changed by the
            # time control returns here.
            for i in range(REGISTER_COUNT):
                regs[i] = AVal.top(maybe_tid=True)
        # STORE/branches/sync ops write no register.

    # -- driving --------------------------------------------------------
    def solve(self, entry: int = 0) -> Dict[int, RegState]:
        """Fixed point from ``entry``; CALL targets seeded with TOP."""
        call_entries = {
            dst: top_regs()
            for src in range(len(self.cfg.succs))
            for dst, kind in self.cfg.succs[src]
            if kind is EdgeKind.CALL
        }
        return solve_forward(self.cfg, self, entry=entry,
                             entry_state=self.entry_regs,
                             extra_entries=call_entries)

    def states_at_instructions(self, entry: int = 0) -> Dict[int, RegState]:
        """Register state immediately *before* each instruction.

        Runs the fixed point, then one capture pass over the final block
        entry states. Keyed by instruction uid; instructions in blocks
        this context never reaches are absent.
        """
        block_in = self.solve(entry)
        blocks = self.cfg.program.blocks
        step = self._step
        captured: Dict[int, RegState] = {}
        for block, state in block_in.items():
            regs = list(state)
            for instr in blocks[block].instructions:
                if instr.uid >= 0:
                    captured[instr.uid] = tuple(regs)
                step(instr, regs)
        return captured


def _refine_branch(last: Instruction, state: RegState,
                   taken: bool) -> RegState:
    """Apply a conditional branch's predicate to the tested registers."""
    op = last.op
    if op not in (Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE):
        return state
    regs = list(state)

    def nonzero(v: AVal) -> AVal:
        b = v.bounds()
        if v.kind == _CONST:
            return AVal.const_set(v.consts - {0}, v.maybe_tid)
        if b is not None:
            return AVal.range(max(b[0], 1), b[1], v.maybe_tid)
        return v

    if op is Opcode.BZ or op is Opcode.BNZ:
        is_zero = (op is Opcode.BZ) == taken
        r = last.rs1
        if is_zero:
            if regs[r].may_contain(0):
                regs[r] = AVal.const(0, regs[r].maybe_tid)
            else:
                regs[r] = AVal.bot()  # edge is infeasible
        else:
            regs[r] = nonzero(regs[r])
        return tuple(regs)

    # BLT / BGE (unsigned): taken BLT and fallthrough BGE mean r1 < r2.
    less = (op is Opcode.BLT) == taken
    r1, r2 = last.rs1, last.rs2
    a, b = regs[r1], regs[r2]
    ab, bb = a.bounds(), b.bounds()
    if less:
        if bb is not None:
            hi = bb[1] - 1
            lo = ab[0] if ab is not None else 0
            regs[r1] = AVal.range(lo, min(ab[1], hi) if ab else hi,
                                  a.maybe_tid)
        if ab is not None:
            lo = ab[0] + 1
            hi = bb[1] if bb is not None else _UMAX
            regs[r2] = AVal.range(max(bb[0], lo) if bb else lo, hi,
                                  b.maybe_tid)
    else:  # r1 >= r2
        if bb is not None:
            lo = max(ab[0], bb[0]) if ab is not None else bb[0]
            hi = ab[1] if ab is not None else _UMAX
            regs[r1] = AVal.range(lo, hi, a.maybe_tid)
        if ab is not None:
            lo = bb[0] if bb is not None else 0
            hi = min(bb[1], ab[1]) if bb is not None else ab[1]
            regs[r2] = AVal.range(lo, hi, b.maybe_tid)
    return tuple(regs)
