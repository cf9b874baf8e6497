import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meq import modelspec
from meq.hilbert import SpaceLayout, annihilation, embed, transition
from meq.modelspec import (
    Adjoint,
    BinaryOp,
    CascadeParams,
    Literal,
    ModelError,
    ModelLexicalError,
    ModelSemanticError,
    ModelSyntaxError,
    Name,
    PrimitiveCall,
    build_model,
    cascade_document,
    cascade_model,
    cascade_text,
    document_environment,
    evaluate_observable,
    parse_model,
    render_model,
)
from meq.steady import steady_dense
from meq.superspace import build_liouvillian


def parse_binding(source, preamble="spaces:\n  m 3\n"):
    """Parse one expression through a minimal document and return its AST."""
    text = f"{preamble}define:\n  result = {source}\nhamiltonian:\n  0\n"
    doc = parse_model(text)
    return dict(doc.bindings)["result"]


QUBIT_DECAY = """\
# lossy two-level system
spaces:
  q 2
define:
  jm = trans(q,1,2)
hamiltonian:
  0
dissipators:
  1 , jm
"""


class TestGrammar:
    def test_adjoint_of_primitive(self):
        node = parse_binding("a(m)'")
        assert node == Adjoint(PrimitiveCall("a", ("m",)))

    def test_scalar_multiple_of_sum(self):
        text = (
            "spaces:\n  m 3\ndefine:\n  s12 = trans(m,1,2)\n"
            "  x = 2*(s12 + s12')\nhamiltonian:\n  0\n"
        )
        doc = parse_model(text)
        node = dict(doc.bindings)["x"]
        assert node == BinaryOp(
            "*", Literal(2 + 0j), BinaryOp("+", Name("s12"), Adjoint(Name("s12")))
        )

    def test_precedence(self):
        node = parse_binding("1 + 2*3")
        assert node == BinaryOp(
            "+", Literal(1 + 0j), BinaryOp("*", Literal(2 + 0j), Literal(3 + 0j))
        )

    def test_adjoint_binds_tightest(self):
        node = parse_binding("a(m)'*a(m)")
        assert node == BinaryOp(
            "*", Adjoint(PrimitiveCall("a", ("m",))), PrimitiveCall("a", ("m",))
        )

    def test_double_adjoint_normalizes(self):
        node = parse_binding("a(m)''")
        assert node == PrimitiveCall("a", ("m",))

    def test_left_associativity(self):
        node = parse_binding("1 - 2 - 3")
        assert node == BinaryOp(
            "-", BinaryOp("-", Literal(1 + 0j), Literal(2 + 0j)), Literal(3 + 0j)
        )

    def test_complex_literal_forms(self):
        assert parse_binding("2i") == Literal(2j)
        assert parse_binding("(3,2)") == Literal(3 + 2j)
        assert parse_binding("(3,-2)") == Literal(3 - 2j)
        assert parse_binding("3+2i") == BinaryOp("+", Literal(3 + 0j), Literal(2j))
        assert parse_binding("1.5e-3") == Literal(1.5e-3 + 0j)

    def test_comments_and_blank_lines(self):
        doc = parse_model(QUBIT_DECAY)
        assert doc.spaces == (("q", 2),)
        assert doc.dissipators[0][0] == 1.0


def tokens(source):
    """The lexer's lines of (kind, text, line, column, value) tuples; every
    symbol's kind reads SYMBOL."""
    return [[(t.kind if t.kind in ("NUMBER", "IDENT", "EOL") else "SYMBOL",
              t.text, t.line, t.column, t.value) for t in line]
            for line in modelspec._tokenize(source)]


class TestLexer:
    # every row holds for the character loop the token grammar replaced
    @pytest.mark.parametrize("source,expected", [
        ("\u0663", [[("NUMBER", "\u0663", 1, 1, 3), ("EOL", "", 1, 2, 0)]]),  # Arabic-Indic 3
        ("\u0663.\u0665e\u0662", [[("NUMBER", "\u0663.\u0665e\u0662", 1, 1, 350), ("EOL", "", 1, 6, 0)]]),
        ("x\u00b2", [[("IDENT", "x\u00b2", 1, 1, 0), ("EOL", "", 1, 3, 0)]]),
        ("2.", [[("NUMBER", "2.", 1, 1, 2), ("EOL", "", 1, 3, 0)]]),
        (".5i", [[("NUMBER", ".5i", 1, 1, 0.5j), ("EOL", "", 1, 4, 0)]]),
        ("1E-2", [[("NUMBER", "1E-2", 1, 1, 0.01), ("EOL", "", 1, 5, 0)]]),
        ("1e-400", [[("NUMBER", "1e-400", 1, 1, 0), ("EOL", "", 1, 7, 0)]]),
        ("_y=(1,-2)", [[("IDENT", "_y", 1, 1, 0), ("SYMBOL", "=", 1, 3, 0),
                        ("SYMBOL", "(", 1, 4, 0), ("NUMBER", "1", 1, 5, 1),
                        ("SYMBOL", ",", 1, 6, 0), ("SYMBOL", "-", 1, 7, 0),
                        ("NUMBER", "2", 1, 8, 2), ("SYMBOL", ")", 1, 9, 0),
                        ("EOL", "", 1, 10, 0)]]),
        ("a\r\n\tb'", [[("IDENT", "a", 1, 1, 0), ("EOL", "", 1, 3, 0)],
                       [("IDENT", "b", 2, 2, 0), ("SYMBOL", "'", 2, 3, 0), ("EOL", "", 2, 4, 0)]]),
        # a line's end sits where its comment starts
        ("x = 1  # note\n", [[("IDENT", "x", 1, 1, 0), ("SYMBOL", "=", 1, 3, 0),
                              ("NUMBER", "1", 1, 5, 1), ("EOL", "", 1, 8, 0)]]),
        ("\n \t\r\n  # only a comment\ny:#", [[("IDENT", "y", 4, 1, 0), ("SYMBOL", ":", 4, 2, 0),
                                               ("EOL", "", 4, 3, 0)]]),
        ("", []),
    ])
    def test_tokens(self, source, expected):
        assert tokens(source) == expected

    @pytest.mark.parametrize("source,message,column", [
        ("\u00b2", "unexpected character '\u00b2'", 1),
        ("\u00bd", "unexpected character '\u00bd'", 1),
        ("\u216b", "unexpected character '\u216b'", 1),  # Roman numeral twelve
        ("x \u00b2y", "unexpected character '\u00b2'", 3),
        ("\u00a7", "unexpected character '\u00a7'", 1),
        ("\f", "unexpected character '\\x0c'", 1),
        (" .", "unexpected character '.'", 2),
        ("1e", "malformed exponent in number '1e'", 1),
        ("  1e+", "malformed exponent in number '1e'", 3),
        ("1ei", "malformed exponent in number '1e'", 1),
        ("1e5.", "malformed number '1e5.'", 1),
        ("2.5.3", "malformed number '2.5.'", 1),
        ("2x", "malformed number '2x'", 1),
        ("2i_", "malformed number '2i_'", 1),
        ("2\u00b2", "malformed number '2\u00b2'", 1),
        ("x\t3e", "malformed exponent in number '3e'", 3),
    ])
    def test_errors(self, source, message, column):
        with pytest.raises(ModelLexicalError) as info:
            tokens(f"y\n{source}")
        assert str(info.value) == f"line 2, column {column}: {message}"

    @pytest.mark.parametrize("source", ["1e400", "1e400i", pytest.param("9" * 400, id="nines")])
    def test_overflowing_literal_is_out_of_range(self, source):
        with pytest.raises(ModelLexicalError) as info:
            tokens(f"y\n(1, {source})")
        assert str(info.value) == f"line 2, column 5: number out of range {source!r}"


class TestErrors:
    def test_lexical_bad_character(self):
        with pytest.raises(ModelLexicalError) as info:
            parse_model("spaces:\n  q 2\nhamiltonian:\n  0 $ 1\n")
        assert info.value.line == 4
        assert info.value.column == 5

    def test_lexical_malformed_number(self):
        with pytest.raises(ModelLexicalError) as info:
            parse_model("spaces:\n  q 2\nhamiltonian:\n  2q3\n")
        assert info.value.line == 4

    # str.isdigit accepts superscripts, which float() then refused with a bare ValueError
    @pytest.mark.parametrize("source,message", [
        ("2²", "malformed number '2²'"),
        ("²", "unexpected character '²'"),
    ])
    def test_lexical_non_decimal_digit(self, source, message):
        with pytest.raises(ModelLexicalError, match=message) as info:
            parse_model(f"spaces:\n  q 2\nhamiltonian:\n  {source}\n")
        assert (info.value.line, info.value.column) == (4, 3)

    def test_syntax_unbalanced_paren(self):
        source = "spaces:\n  q 2\ndefine:\n  s12 = trans(q,1,2)\nhamiltonian:\n  2*(s12 + s12'\n"
        with pytest.raises(ModelSyntaxError) as info:
            parse_model(source)
        assert info.value.line == 6
        assert "')'" in info.value.expected

    def test_syntax_dangling_operator(self):
        with pytest.raises(ModelSyntaxError) as info:
            parse_model("spaces:\n  q 2\nhamiltonian:\n  1 +\n")
        assert info.value.line == 4

    def test_syntax_unknown_section(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("stuff:\n  q 2\n")

    def test_semantic_unknown_identifier(self):
        with pytest.raises(ModelSemanticError) as info:
            parse_model("spaces:\n  q 2\nhamiltonian:\n  sx\n")
        assert info.value.line == 4
        assert "sx" in str(info.value)

    def test_semantic_unknown_space(self):
        with pytest.raises(ModelSemanticError):
            parse_model("spaces:\n  q 2\nhamiltonian:\n  trans(z,1,2) + trans(z,2,1)\n")

    def test_semantic_index_out_of_range(self):
        with pytest.raises(ModelSemanticError):
            parse_model("spaces:\n  q 2\nhamiltonian:\n  proj(q,3)\n")

    def test_semantic_bad_rate(self):
        source = "spaces:\n  q 2\nhamiltonian:\n  0\ndissipators:\n  0 , trans(q,1,2)\n"
        with pytest.raises(ModelSemanticError) as info:
            parse_model(source)
        assert info.value.line == 6

    def test_semantic_missing_hamiltonian(self):
        with pytest.raises(ModelSemanticError):
            parse_model("spaces:\n  q 2\n")

    def test_semantic_no_spaces(self):
        with pytest.raises(ModelSemanticError):
            parse_model("hamiltonian:\n  0\n")

    def test_semantic_forward_reference(self):
        source = "spaces:\n  q 2\ndefine:\n  x = y\n  y = 1\nhamiltonian:\n  0\n"
        with pytest.raises(ModelSemanticError):
            parse_model(source)

    def test_scalar_plus_operator_rejected(self):
        doc = parse_model("spaces:\n  q 2\nhamiltonian:\n  1 + proj(q,1)\n")
        with pytest.raises(ModelSemanticError):
            build_model(doc)

    def test_non_hermitian_hamiltonian_rejected(self):
        doc = parse_model("spaces:\n  q 2\nhamiltonian:\n  trans(q,1,2)\n")
        with pytest.raises(ModelSemanticError):
            build_model(doc)


SPACE_M = "spaces:\n  m 3\n"
HAMILTONIAN_0 = "hamiltonian:\n  0\n"


def binding(expr):
    """A document whose fourth line binds ``x = expr``."""
    return f"{SPACE_M}define:\n  x = {expr}\n{HAMILTONIAN_0}"


# positioned errors of the document format: (document, or a document and an
# observable, error class, line, column, message)
FORMAT_ERRORS = {
    "duplicate section": (SPACE_M + "spaces:\n", ModelSyntaxError, 3, 1,
                          "duplicate section 'spaces'"),
    "text after a section header": ("spaces: m\n", ModelSyntaxError, 1, 9,
                                    "unexpected 'm' after section header (expected end of line)"),
    "line before any header": ("m 3\n", ModelSyntaxError, 1, 1, "expected a section header "
                               "(expected spaces: or define: or hamiltonian: or dissipators:)"),
    "space dimension 0": ("spaces:\n  m 0\n", ModelSemanticError, 2, 5,
                          "space dimension must be a positive integer, got '0'"),
    "space dimension 2.5": ("spaces:\n  m 2.5\n", ModelSemanticError, 2, 5,
                            "space dimension must be a positive integer, got '2.5'"),
    "duplicate space": (SPACE_M + "  m 2\n", ModelSemanticError, 3, 3, "duplicate space 'm'"),
    "redefinition": (f"{SPACE_M}define:\n  x = 1\n  x = 2\n{HAMILTONIAN_0}",
                     ModelSemanticError, 5, 3, "redefinition of 'x'"),
    "second hamiltonian line": (SPACE_M + HAMILTONIAN_0 + "  1\n", ModelSyntaxError, 5, 3,
                                "hamiltonian section takes a single expression"),
    "bad complex pair": (binding("(1,a)"), ModelSyntaxError, 4, 10,
                         "unexpected 'a' in complex pair (expected real number)"),
    "non-integer index": (binding("proj(m,1.5)"), ModelSemanticError, 4, 14,
                          "primitive index must be an integer, got '1.5'"),
    "bad argument": (binding("proj(m,+)"), ModelSyntaxError, 4, 14,
                     "unexpected '+' in argument list (expected space name or integer)"),
    "token after an expression": (binding("1 2"), ModelSyntaxError, 4, 9,
                                  "unexpected '2' after expression (expected end of line)"),
    "unknown primitive": (binding("foo(m)"), ModelSemanticError, 4, 7, "unknown primitive 'foo'"),
    "arity": (binding("trans(m,1)"), ModelSemanticError, 4, 7,
              "primitive 'trans' takes 3 argument(s), got 2"),
    "space argument": (binding("a(3)"), ModelSemanticError, 4, 7,
                       "first argument of 'a' must be a space name"),
    "level argument": (binding("proj(m,m)"), ModelSemanticError, 4, 7,
                       "level index of 'proj' must be an integer"),
    "non-name binding": (f"{SPACE_M}define:\n  3 = 1\n{HAMILTONIAN_0}", ModelSyntaxError, 4, 3,
                         "unexpected '3' (expected binding name)"),
    "two-line observable": ((SPACE_M + HAMILTONIAN_0, "proj(m,1)\nproj(m,2)"), ModelSyntaxError,
                            1, 1, "observable must be a single expression"),
}


class TestFormatErrors:
    @pytest.mark.parametrize("source,cls,line,column,message",
                             list(FORMAT_ERRORS.values()), ids=list(FORMAT_ERRORS))
    def test_positioned_error(self, source, cls, line, column, message):
        document, observable = source if isinstance(source, tuple) else (source, None)
        with pytest.raises(ModelError) as info:
            doc = parse_model(document)
            if observable is not None:
                evaluate_observable(doc, observable)
        assert type(info.value) is cls
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"line {line}, column {column}: {message}"


class TestEvaluation:
    def test_qubit_decay_document(self):
        model = build_model(parse_model(QUBIT_DECAY))
        result = steady_dense(build_liouvillian(model))
        assert np.allclose(result.rho.to_dense(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_scalar_hamiltonian_is_identity_multiple(self):
        doc = parse_model("spaces:\n  q 2\nhamiltonian:\n  2\n")
        model = build_model(doc)
        assert np.allclose(model.hamiltonian.to_dense(), 2 * np.eye(2))

    def test_products_do_not_commute(self):
        doc = parse_model("spaces:\n  m 3\nhamiltonian:\n  0\n")
        left = evaluate_observable(doc, "a(m)*a(m)'")
        right = evaluate_observable(doc, "a(m)'*a(m)")
        assert np.abs(left.to_dense() - right.to_dense()).max() > 0.5

    def test_transition_adjoint_identity(self):
        doc = parse_model("spaces:\n  m 3\nhamiltonian:\n  0\n")
        adjoint = evaluate_observable(doc, "trans(m,1,2)'")
        swapped = evaluate_observable(doc, "trans(m,2,1)")
        assert np.array_equal(adjoint.to_dense(), swapped.to_dense())

    def test_number_operator_diagonal(self):
        doc = parse_model("spaces:\n  m 4\nhamiltonian:\n  0\n")
        number = evaluate_observable(doc, "a(m)'*a(m)")
        assert np.allclose(number.to_dense(), np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_primitives_are_embedded(self):
        doc = parse_model("spaces:\n  p 2\n  m 3\nhamiltonian:\n  0\n")
        layout = SpaceLayout([("p", 2), ("m", 3)])
        lifted = evaluate_observable(doc, "a(m)")
        expected = embed(layout, "m", annihilation(3))
        assert np.array_equal(lifted.to_dense(), expected.to_dense())
        assert np.array_equal(
            evaluate_observable(doc, "ident(p)").to_dense(), np.eye(6)
        )

    def test_scalar_adjoint_conjugates(self):
        doc = parse_model("spaces:\n  q 2\nhamiltonian:\n  0\n")
        value = evaluate_observable(doc, "(2,3)'*ident(q)")
        assert np.allclose(value.to_dense(), (2 - 3j) * np.eye(2))


class TestRoundTrip:
    def test_cascade_document_round_trips(self):
        doc = cascade_document(CascadeParams())
        text = render_model(doc)
        assert parse_model(text) == doc

    def test_assorted_documents_round_trip(self):
        for source in (
            QUBIT_DECAY,
            "spaces:\n  m 3\ndefine:\n  x = (1,-2)*a(m) + a(m)'\nhamiltonian:\n  x + x'\n",
            "spaces:\n  p 2\n  m 3\nhamiltonian:\n  proj(p,2) - 0.5*ident(p)\n",
        ):
            doc = parse_model(source)
            assert parse_model(render_model(doc)) == doc

    def test_rendered_literal_forms_survive(self):
        doc = parse_model(
            "spaces:\n  q 2\ndefine:\n  x = 2i*trans(q,1,2) + (0,-2)*trans(q,2,1)\nhamiltonian:\n  x\n"
        )
        assert parse_model(render_model(doc)) == doc


class TestCascade:
    def test_dimensions(self):
        params = CascadeParams()
        model = cascade_model(params)
        layout = model.layout
        assert layout.names == ("xi", "a", "b")
        assert layout.dims == (3, 5, 3)
        assert layout.total_dim == 45
        liouv = build_liouvillian(model)
        assert liouv.dim == 2025

    def test_document_matches_programmatic_builder(self):
        params = CascadeParams()
        built = build_model(parse_model(render_model(cascade_document(params))))
        direct = cascade_model(params)
        assert (
            np.abs(built.hamiltonian.to_dense() - direct.hamiltonian.to_dense()).max()
            < 1e-14
        )
        assert len(built.dissipators) == len(direct.dissipators)
        for (rate_b, jump_b), (rate_d, jump_d) in zip(
            built.dissipators, direct.dissipators
        ):
            assert rate_b == rate_d
            assert np.abs(jump_b.to_dense() - jump_d.to_dense()).max() < 1e-14

    @pytest.mark.parametrize("params", [
        CascadeParams(delta_a=-1.5, delta_b=0.25, g_a=-2.0, g_b=1e16, n_a=2, n_b=1),
        CascadeParams(omega_a=3 - 2j, omega_b=-0.5j, gamma_12=1e-9, gamma_b=7.5, n_a=1, n_b=3),
    ], ids=["signed", "complex"])
    def test_text_matches_programmatic_builder(self, params):
        """The gate: cascade text through parser and evaluator against the hand-built operators."""
        built = build_model(parse_model(cascade_text(params)))
        direct = cascade_model(params)
        assert np.array_equal(built.hamiltonian.to_dense(), direct.hamiltonian.to_dense())
        assert [rate for rate, _ in built.dissipators] == [rate for rate, _ in direct.dissipators]
        for (_, jump_b), (_, jump_d) in zip(built.dissipators, direct.dissipators, strict=True):
            assert np.array_equal(jump_b.to_dense(), jump_d.to_dense())

    def test_decoupled_cascade_decays_to_ground(self):
        params = CascadeParams(
            delta_a=0.4, delta_b=-0.3, omega_a=0.0, omega_b=0.0,
            g_a=0.0, g_b=0.0, n_a=2, n_b=1,
        )
        result = steady_dense(build_liouvillian(cascade_model(params)))
        expected = np.zeros((18, 18))
        expected[0, 0] = 1.0
        assert np.abs(result.rho.to_dense() - expected).max() < 1e-10

    def test_complex_drive_round_trip(self):
        params = CascadeParams(omega_a=2 + 1j, omega_b=0.5 - 0.25j, n_a=1, n_b=1)
        doc = cascade_document(params)
        assert parse_model(render_model(doc)) == doc
        built = build_model(doc)
        direct = cascade_model(params)
        assert (
            np.abs(built.hamiltonian.to_dense() - direct.hamiltonian.to_dense()).max()
            < 1e-14
        )

    @given(st.builds(
        CascadeParams,
        **{name: st.floats(allow_nan=False, allow_infinity=False)
           for name in ("delta_a", "delta_b", "g_a", "g_b")},
        **{name: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
           for name in ("gamma_12", "gamma_23", "gamma_a", "gamma_b")},
        omega_a=st.complex_numbers(allow_nan=False, allow_infinity=False),
        omega_b=st.complex_numbers(allow_nan=False, allow_infinity=False),
        n_a=st.integers(0, 3), n_b=st.integers(0, 3),
    ))
    def test_text_is_canonical(self, params):
        text = cascade_text(params)
        assert render_model(parse_model(text)) == text
        assert cascade_document(params) == parse_model(text)

    @pytest.mark.parametrize("field,value", [
        ("delta_a", math.inf), ("g_b", -math.inf), ("gamma_23", math.inf),
        ("gamma_a", math.nan), ("omega_a", complex(math.inf, 0)), ("omega_b", complex(0, math.nan)),
    ])
    def test_non_finite_param_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CascadeParams(**{field: value})

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CascadeParams(gamma_a=0.0)
        with pytest.raises(ValueError):
            CascadeParams(n_a=-1)
        with pytest.raises(ValueError):
            CascadeParams(g_a=0.0).alpha
        assert CascadeParams().alpha == 20.0
        assert CascadeParams().beta == 5.0

    def test_environment_exposes_bindings(self):
        layout, env = document_environment(cascade_document(CascadeParams()))
        assert set(env) >= {"s11", "s22", "s33", "s12", "s23", "am", "bm"}
        expected = embed(layout, "xi", transition(3, 1, 1))
        assert np.array_equal(env["s11"].to_dense(), expected.to_dense())
