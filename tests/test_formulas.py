import copy
import gc
import os
import pickle
import subprocess
import sys
import textwrap
import weakref

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from entlogic.formulas import (
    Binary,
    Conn,
    NegAtom,
    PosAtom,
    QubitFormula,
    ShapeError,
    classical_collapse,
    dual,
    ent,
    expand_connectives,
    expand_entanglement,
    expand_sec,
    is_qubit_shaped,
    qubit_atom,
    qubit_of,
    sec,
    size,
)
from entlogic import formulas as formulas_module
from entlogic.syntax import parse_formula, print_formula
from strategies import formulas


A, B, X = PosAtom("A"), PosAtom("B"), PosAtom("X")
NA, NB = NegAtom("A"), NegAtom("B")
QA, QB = QubitFormula("A"), QubitFormula("B")


def test_dual_flips_literals():
    assert dual(A) == NA
    assert dual(NA) == A


def test_dual_exchanges_multiplicatives():
    assert dual(Binary(Conn.TIMES, A, B)) == Binary(Conn.PAR, NA, NB)
    assert dual(Binary(Conn.PAR, A, B)) == Binary(Conn.TIMES, NA, NB)


def test_dual_exchanges_additives_and_ent():
    assert dual(Binary(Conn.WITH, A, B)) == Binary(Conn.PLUS, NA, NB)
    e = ent(qubit_of("A"), qubit_of("B"))
    d = dual(e)
    assert d.conn is Conn.SEC
    assert d.left == Binary(Conn.PLUS, NA, A)


@settings(max_examples=1000, deadline=None)
@given(formulas())
def test_dual_is_involution(f):
    assert dual(dual(f)) == f


def test_qubit_of():
    assert qubit_of("A") == Binary(Conn.WITH, A, NA)
    assert qubit_of("B") == Binary(Conn.WITH, B, NB)


def test_dual_of_qubit_is_plus_over_swapped_literals():
    # computed by hand: dual(A & ~A) = ~A | A
    assert dual(qubit_of("A")) == Binary(Conn.PLUS, NA, A)


@pytest.mark.parametrize("bad", ["", "a", "9X", "A B", "_Y"])
def test_qubit_of_rejects_bad_identifiers(bad):
    with pytest.raises(ValueError):
        qubit_of(bad)


@given(st.from_regex(r"[A-Z][A-Za-z0-9_]{0,8}", fullmatch=True))
def test_qubit_of_always_pairs_an_atom_with_its_negation(name):
    q = qubit_of(name)
    assert q.conn is Conn.WITH
    assert q.left == PosAtom(name) and q.right == NegAtom(name)
    assert dual(q.left) == q.right


def test_qubit_shape_family():
    assert is_qubit_shaped(qubit_of("A"))
    assert is_qubit_shaped(dual(qubit_of("A")))
    assert is_qubit_shaped(Binary(Conn.WITH, NA, A))
    assert not is_qubit_shaped(Binary(Conn.WITH, A, NB))
    assert not is_qubit_shaped(Binary(Conn.TIMES, A, NA))
    assert not is_qubit_shaped(A)
    assert qubit_atom(qubit_of("B")) == "B"
    with pytest.raises(ShapeError):
        qubit_atom(Binary(Conn.WITH, A, B))


def test_expand_entanglement():
    assert expand_entanglement(QA, QB) == Binary(
        Conn.WITH, Binary(Conn.PAR, A, B), Binary(Conn.PAR, NA, NB)
    )
    assert expand_entanglement(QA, QA) == Binary(
        Conn.WITH, Binary(Conn.PAR, A, A), Binary(Conn.PAR, NA, NA)
    )


def test_expand_sec():
    assert expand_sec(QA, QB) == Binary(
        Conn.PLUS, Binary(Conn.TIMES, A, B), Binary(Conn.TIMES, NA, NB)
    )
    assert expand_sec(QA, QA) == Binary(
        Conn.PLUS, Binary(Conn.TIMES, A, A), Binary(Conn.TIMES, NA, NA)
    )


def test_dual_of_expansion_matches_sec_up_to_commutation():
    # hand dualization gives (~A * ~B) | (A * B); the sec expansion lists the
    # same operands under | in the other order
    d = dual(expand_entanglement(QA, QB))
    s = expand_sec(QA, QB)
    assert d.conn is s.conn is Conn.PLUS
    assert {d.left, d.right} == {s.left, s.right}


def test_ent_sec_constructors_enforce_shape():
    assert ent(qubit_of("A"), qubit_of("B")).conn is Conn.ENT
    assert sec(dual(qubit_of("A")), qubit_of("B")).conn is Conn.SEC
    with pytest.raises(ShapeError):
        ent(A, qubit_of("B"))
    with pytest.raises(ShapeError):
        sec(qubit_of("A"), Binary(Conn.WITH, A, B))


def test_expand_connectives_rewrites_nested_nodes():
    f = Binary(Conn.TIMES, ent(qubit_of("A"), qubit_of("B")), X)
    g = expand_connectives(f)
    assert g == Binary(Conn.TIMES, expand_entanglement(QA, QB), X)


def test_classical_collapse_multiplicatives():
    assert classical_collapse(Binary(Conn.TIMES, A, B)) == Binary(Conn.WITH, A, B)
    assert classical_collapse(Binary(Conn.PAR, A, B)) == Binary(Conn.PLUS, A, B)


def test_classical_collapse_ent():
    got = classical_collapse(ent(qubit_of("A"), qubit_of("A")))
    assert got == Binary(Conn.WITH, Binary(Conn.PLUS, A, A), Binary(Conn.PLUS, NA, NA))


def test_classical_collapse_sec():
    got = classical_collapse(sec(qubit_of("A"), qubit_of("B")))
    assert got == Binary(Conn.PLUS, Binary(Conn.WITH, A, B), Binary(Conn.WITH, NA, NB))


def test_classical_collapse_rejects_bad_ent_operands():
    with pytest.raises(ShapeError):
        classical_collapse(Binary(Conn.ENT, A, B))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_classical_collapse_is_idempotent_map(f):
    once = classical_collapse(f)
    assert classical_collapse(once) == once


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_size_positive_and_additive(f):
    n = size(f)
    assert n >= 1
    if isinstance(f, Binary):
        assert n == 1 + size(f.left) + size(f.right)


# ---------------------------------------------------------------------------
# interning: one object per distinct formula


def test_parsing_twice_gives_the_same_object():
    text = "((A * ~B) par Q(C)) | (Q(A) @ Q(B))"
    assert parse_formula(text) is parse_formula(text)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_dual_of_dual_is_the_same_object(f):
    assert dual(dual(f)) is f


def test_walkers_keep_their_own_stack_on_deep_formulas():
    # far deeper than the interpreter's recursion limit
    f = A
    for _ in range(10_000):
        f = Binary(Conn.WITH, f, A)
    assert dual(dual(f)) is f
    assert size(f) == 20_001
    assert classical_collapse(f) is f
    assert parse_formula(print_formula(f)) is f


def test_expansion_without_ent_or_sec_is_the_same_object():
    f = parse_formula("((A * ~B) par Q(C)) | (A & B)")
    assert expand_connectives(f) is f


def test_equal_structure_built_separately_is_identical():
    assert Binary(Conn.PAR, PosAtom("A"), NegAtom("B")) is Binary(Conn.PAR, A, NB)
    assert PosAtom("A") is not NegAtom("A")


def test_fields_cannot_be_assigned():
    f = Binary(Conn.TIMES, A, B)
    with pytest.raises(AttributeError):
        f.left = B
    with pytest.raises(AttributeError):
        A.name = "B"
    with pytest.raises(AttributeError):
        del NA.name
    assert f.left is A and A.name == "A"


def test_positional_match_patterns_bind():
    match Binary(Conn.WITH, A, NB):
        case Binary(conn, PosAtom(left), NegAtom(right)):
            assert (conn, left, right) == (Conn.WITH, "A", "B")
        case _:
            pytest.fail("positional pattern did not match")


def _deep(depth: int):
    f = A
    for _ in range(depth):
        f = Binary(Conn.WITH, f, NB)
    return f


def test_repr_is_the_dataclass_repr():
    assert repr(A) == "PosAtom(name='A')"
    assert repr(NB) == "NegAtom(name='B')"
    assert repr(Binary(Conn.WITH, A, NB)) == (
        "Binary(conn=<Conn.WITH: '&'>, left=PosAtom(name='A'), right=NegAtom(name='B'))"
    )
    # 2,000 levels is beyond the interpreter's recursion limit
    expected = "PosAtom(name='A')"
    for _ in range(2000):
        expected = f"Binary(conn=<Conn.WITH: '&'>, left={expected}, right=NegAtom(name='B'))"
    assert repr(_deep(2000)) == expected


@pytest.mark.parametrize(
    "f",
    [
        A,
        NA,
        Binary(Conn.PAR, qubit_of("A"), Binary(Conn.TIMES, B, NB)),
        Binary(Conn.ENT, A, qubit_of("B")),  # @ over a non-qubit operand: no parser round trip
        _deep(2000),
    ],
)
def test_pickle_and_copy_return_the_identical_object(f):
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f


def test_dead_terms_leave_the_intern_table():
    def fresh_terms():
        # only this test's terms reach repr: another test's live 2,000-deep
        # chain would cost 2 M nodes of it
        def names(t):
            return {getattr(x, "name", None) for x in (t, getattr(t, "left", None), getattr(t, "right", None))}

        live = [ref() for ref in list(formulas_module._TERMS.values())]
        own = [t for t in live if t is not None and "Fresh_only_here" in names(t)]
        return [t for t in own if "Fresh_only_here" in repr(t)]

    f = Binary(Conn.TIMES, PosAtom("Fresh_only_here"), NegAtom("Fresh_only_here"))
    assert len(fresh_terms()) == 3
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert fresh_terms() == []


_THREADED_LITERALS = textwrap.dedent(
    """
    import gc, random, sys, threading
    from entlogic import formulas
    from entlogic.formulas import NegAtom, PosAtom

    def live_literals():
        rows = list(formulas._TERMS.items())
        return sum(1 for key, ref in rows if key[0] in (PosAtom, NegAtom) and ref() is not None)

    def race(names):
        # eight threads build the same fresh literals, each in its own
        # order, so they race to take bits and to intern one name
        built = [[] for _ in range(8)]
        start = threading.Barrier(8)

        def build(k):
            order = random.Random(k).sample(names, len(names))
            start.wait()
            for name in order:
                built[k] += PosAtom(name), NegAtom(name)

        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        literals = {id(lit): lit for terms in built for lit in terms}.values()
        assert len(literals) == 2 * len(names), len(literals)  # one term per name and sign
        bits = [lit.relevance[0] for lit in literals]
        assert all(bit.bit_count() == 1 for bit in bits)
        assert len(set(bits)) == len(bits), len(bits) - len(set(bits))
        assert all(formulas._BITS[type(lit), lit.name] == lit.relevance[0] for lit in literals)
        assert len(formulas._BITS) == live_literals()

    sys.setswitchinterval(1e-6)  # the threads change hands often
    for r in range(5):
        race([f"Fresh_thread_{r}_{i}" for i in range(1000)])
        gc.collect()
        assert len(formulas._BITS) == live_literals() < 2000
    print("ok")
    """
)


def test_threads_that_build_literals_get_distinct_bits():
    # in a fresh interpreter, so that a finalizer's error reaches stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _THREADED_LITERALS], capture_output=True, text=True, timeout=120, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_relevance_bits_of_dead_literals_are_reused():
    def live_literals():
        rows = list(formulas_module._TERMS.items())
        return sum(1 for key, ref in rows if key[0] in (PosAtom, NegAtom) and ref() is not None)

    for k in range(6):
        names = [f"Fresh_bit_{k}_{i}" for i in range(40)]
        terms = [Binary(Conn.TIMES, PosAtom(name), NegAtom(name)) for name in names]
        assert len(formulas_module._BITS) == live_literals()
        del terms
        gc.collect()
        assert len(formulas_module._BITS) == live_literals()
        # the lowest bit no live literal holds: at most one past them
        probe = PosAtom(f"Fresh_bit_probe_{k}")
        assert probe.relevance[0].bit_length() <= live_literals()
        del probe
