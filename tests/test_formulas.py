import pytest
from hypothesis import given
from hypothesis import strategies as st

from filtra.formulas import (
    Atom,
    FormulaSyntaxError,
    Not,
    Or,
    UnknownAtomError,
    conj,
    iff,
    implies,
    parse_formula,
    print_formula,
)

ATOMS = ("p", "q", "r")

formulas = st.recursive(
    st.sampled_from(ATOMS).map(Atom),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda pair: Or(*pair)),
    ),
    max_leaves=16,
)


def test_parse_disjunction():
    assert parse_formula("p | q", ("p", "q")) == Or(Atom("p"), Atom("q"))


def test_parse_desugars_implication():
    assert parse_formula("p -> q", ("p", "q")) == Or(Not(Atom("p")), Atom("q"))


def test_parse_desugars_conjunction_and_iff():
    p, q = Atom("p"), Atom("q")
    assert parse_formula("p & q", ATOMS) == conj(p, q)
    assert parse_formula("p <-> q", ATOMS) == iff(p, q)


def test_unknown_atom_is_reported_by_name():
    with pytest.raises(UnknownAtomError) as err:
        parse_formula("p & r", ("p", "q"))
    assert err.value.name == "r"
    assert str(err.value) == "unknown atom 'r' (column 5)"


def test_syntax_error_carries_position():
    for text, position, message in [
        ("p | | q", 5, "expected an atom, '~' or '(', found '|' (column 5)"),
        ("(p | q", 7, "expected ')', found 'end of input' (column 7)"),
        ("p $ q", 3, "unexpected character '$' (column 3)"),
        ("p q", 3, "unexpected 'q' (column 3)"),
        # too deep for the recursive descent: once a RecursionError
        ("~" * 5000 + "p", 1, "formula nested too deeply to parse (column 1)"),
        ("(" * 200 + "p" + ")" * 200, 1, "formula nested too deeply to parse (column 1)"),
    ]:
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text, ("p", "q"))
        assert err.value.position == position
        assert str(err.value) == message


def test_precedence_not_binds_tightest():
    assert parse_formula("~p | q", ("p", "q")) == Or(Not(Atom("p")), Atom("q"))
    assert parse_formula("~(p | q)", ("p", "q")) == Not(Or(Atom("p"), Atom("q")))


def test_precedence_and_over_or():
    p, q, r = (Atom(a) for a in ATOMS)
    assert parse_formula("p & q | r", ATOMS) == Or(conj(p, q), r)


def test_implication_is_right_associative():
    p, q, r = (Atom(a) for a in ATOMS)
    assert parse_formula("p -> q -> r", ATOMS) == implies(p, implies(q, r))


def test_iff_is_right_associative_and_binds_loosest():
    p, q, r = (Atom(a) for a in ATOMS)
    assert parse_formula("p <-> q <-> r", ATOMS) == iff(p, iff(q, r))
    assert parse_formula("p -> q <-> r", ATOMS) == iff(implies(p, q), r)


def test_nesting_100_deep_parses_and_round_trips():
    formula = Atom("p")
    for _ in range(100):
        formula = Not(formula)
    assert parse_formula("~" * 100 + "p", ATOMS) == formula
    assert parse_formula("(" * 100 + "p" + ")" * 100, ATOMS) == Atom("p")
    assert parse_formula(print_formula(formula), ATOMS) == formula


def test_print_examples():
    assert print_formula(Or(Atom("p"), Atom("q"))) == "(p | q)"
    assert print_formula(Not(Atom("p"))) == "(~p)"


@given(formulas)
def test_print_parse_roundtrip(formula):
    assert parse_formula(print_formula(formula), ATOMS) == formula
