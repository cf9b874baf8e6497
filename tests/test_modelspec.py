import numpy as np
import pytest

from meq.hilbert import SpaceLayout, annihilation, embed, transition
from meq.modelspec import (
    Adjoint,
    BinaryOp,
    CascadeParams,
    Literal,
    ModelLexicalError,
    ModelSemanticError,
    ModelSyntaxError,
    Name,
    PrimitiveCall,
    build_model,
    cascade_document,
    cascade_layout,
    cascade_model,
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
        layout = cascade_layout(params)
        assert layout.names == ("xi", "a", "b")
        assert layout.dims == (3, 5, 3)
        assert layout.total_dim == 45
        liouv = build_liouvillian(cascade_model(params))
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
