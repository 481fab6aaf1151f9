"""The constant-propagation lattice's fast paths change no result.

``AVal.join``/``widen`` return their operand when the two operands are
equal, single constants are interned, a const-set join skips the
re-masking pass, and ``ConstProp.join``/``widen`` skip equal register
files. Each fast path is checked against the full computation
(``AVal._join``/``_widen``, ``AVal.const_set``) over generated values of
every kind, with and without the thread-id taint.
"""

from hypothesis import given, settings, strategies as st

from repro.staticanalysis import AVal
from repro.staticanalysis.constprop import (
    MAX_CONSTS,
    ConstProp,
)

_UMAX = (1 << 64) - 1

_word = st.one_of(st.integers(0, 1 << 12), st.integers(0, _UMAX),
                  st.sampled_from([1 << 28, 1 << 29, 1 << 30, 1 << 31]))
_tid = st.booleans()


@st.composite
def avals(draw):
    tid = draw(_tid)
    kind = draw(st.sampled_from(
        ("bot", "top", "const", "const_set", "range", "setoff")))
    if kind == "bot":
        return AVal.bot()
    if kind == "top":
        return AVal.top(tid)
    if kind == "const":
        return AVal.const(draw(_word), tid)
    if kind == "const_set":
        return AVal.const_set(
            draw(st.lists(_word, min_size=1, max_size=MAX_CONSTS + 2)), tid)
    if kind == "range":
        lo = draw(st.integers(0, 1 << 40))
        return AVal.range(lo, lo + draw(st.integers(0, 1 << 20)), tid)
    bases = draw(st.lists(st.integers(0, 1 << 32), min_size=1,
                          max_size=MAX_CONSTS + 2))
    return AVal.setoff(bases, draw(st.integers(0, 1 << 12)), tid)


def _twin(v: AVal) -> AVal:
    """An equal value that is a different object (bypasses interning)."""
    twin = AVal(v.kind, frozenset(v.consts), v.lo, v.hi, v.maybe_tid)
    assert twin == v and twin is not v
    return twin


@settings(max_examples=400, deadline=None)
@given(avals())
def test_equal_operands_match_the_full_join_and_widen(v):
    twin = _twin(v)
    for a, b in ((v, twin), (twin, v), (v, v)):
        assert a.join(b) == a._join(b) == v
        assert a.widen(b) == a._widen(b) == v


@settings(max_examples=400, deadline=None)
@given(avals(), avals())
def test_join_and_widen_match_the_full_computation(a, b):
    assert a.join(b) == a._join(b)
    assert a.widen(b) == a._widen(b)


@settings(max_examples=300, deadline=None)
@given(st.lists(_word, min_size=1, max_size=MAX_CONSTS),
       st.lists(_word, min_size=1, max_size=MAX_CONSTS), _tid, _tid)
def test_const_join_equals_const_set_of_the_union(xs, ys, ta, tb):
    a, b = AVal.const_set(xs, ta), AVal.const_set(ys, tb)
    assert a.join(b) == AVal.const_set(set(xs) | set(ys), ta or tb)


@settings(max_examples=300, deadline=None)
@given(_word, _tid)
def test_single_constants_are_interned(value, tid):
    v = AVal.const(value, tid)
    assert AVal.const(value, tid) is v
    assert AVal.const(value + (1 << 64), tid) is v  # masked to 64 bits
    assert AVal.const_set([value, value], tid) is v
    assert AVal.range(value, value, tid) is v
    assert AVal.setoff([value], 0, tid) is v
    assert AVal.const(value, not tid).with_tid(tid) is v
    assert v.join(_twin(v)) is v


@settings(max_examples=200, deadline=None)
@given(st.lists(avals(), min_size=4, max_size=4),
       st.lists(avals(), min_size=4, max_size=4))
def test_register_file_join_and_widen_match_elementwise(xs, ys):
    cp = ConstProp.__new__(ConstProp)  # join/widen read no CFG state
    a, b = tuple(xs), tuple(ys)
    assert cp.join(a, b) == tuple(x._join(y) for x, y in zip(a, b))
    assert cp.widen(a, b) == tuple(x._widen(y) for x, y in zip(a, b))
    twins = tuple(_twin(x) for x in a)
    assert cp.join(a, twins) == a
    assert cp.widen(a, twins) == a
