"""Every library function that takes a field element reads it through
`field.element`: an integer is a code, an element must belong to the field,
and anything else raises FieldError.  Characters and FieldElement operators
read integers as scalars instead, through `field.scalar`."""

import ast
import operator
from functools import lru_cache
from pathlib import Path

import pytest

from charsum.characters import char, quadratic_char
from charsum.finite_field import FieldError, build_tower, construct_field
from charsum.hypergeometric import hyp2f1, norm_fiber, norm_restricted_jacobi
from charsum.katz import KatzContext, kernel_sum, mixed_sum, norm_restricted_gauss

SRC = Path(__file__).resolve().parents[1] / "src" / "charsum"
TOWERS = [(7, 1), (3, 3)]  # q = 3 (mod 4), so each carries a KatzContext
CASES = [
    "mixed_sum-j", "mixed_sum-k", "norm_restricted_gauss", "norm_restricted_jacobi",
    "kernel_sum", "hyp2f1", "norm_fiber", "FieldTower.embed", "FieldTower.norm", "KatzContext-a",
]


@lru_cache(maxsize=None)
def element_cases(p, t):
    """name -> (the field the argument lives in, the call at that argument)."""
    tower = build_tower(p, t)
    base, top = tower.base, tower.top
    ctx = KatzContext(tower, 1)
    a, b, c = char(base, 1), char(base, 2), char(base, 3)
    return {
        "mixed_sum-j": (base, lambda x: mixed_sum(ctx, x, 2)),
        "mixed_sum-k": (base, lambda x: mixed_sum(ctx, 2, x)),
        "norm_restricted_gauss": (base, lambda x: norm_restricted_gauss(ctx, x)),
        "norm_restricted_jacobi": (base, lambda x: norm_restricted_jacobi(ctx, a, x)),
        "kernel_sum": (base, lambda x: kernel_sum(a, x)),
        "hyp2f1": (base, lambda x: hyp2f1(a, b, c, x)),
        "norm_fiber": (base, lambda x: norm_fiber(tower, x)),
        "FieldTower.embed": (base, tower.embed),
        "FieldTower.norm": (top, tower.norm),
        "KatzContext-a": (base, lambda x: context_data(KatzContext(tower, x))),
    }


def context_data(ctx):
    return ctx.a, ctx.tau, ctx._fiber_pairs


@pytest.mark.parametrize("p,t", TOWERS)
@pytest.mark.parametrize("name", CASES)
class TestElementArguments:
    def test_another_fields_element_is_rejected(self, p, t, name):
        field, call = element_cases(p, t)[name]
        tower = build_tower(p, t)
        # the canonical F_q has the base's order but is another field
        near = tower.base if field is tower.top else construct_field(p, t)
        for other in (construct_field(11).element(3), near.element(3)):
            assert other.field is not field
            with pytest.raises(FieldError):
                call(other)

    def test_a_code_out_of_range_is_rejected(self, p, t, name):
        field, call = element_cases(p, t)[name]
        for code in (field.order, field.order + 2, -1):
            with pytest.raises(FieldError):
                call(code)

    def test_a_code_and_its_element_agree(self, p, t, name):
        field, call = element_cases(p, t)[name]
        for code in (3, field.order - 1):  # 3 is not a scalar at q = 27
            assert call(code) == call(field.element(code))


def test_hyp2f1_reads_an_integer_as_a_code():
    # the row hyp2f1_row:hyp2f1 of test_routes checks the row against every code x
    # at q = 27, for (1, 2, 3), (5, 10, 5 + n/2) and (0, 0, 0) among others
    field = build_tower(3, 3).base
    assert hyp2f1(char(field, 1), char(field, 2), char(field, 3), 3) != 0


def test_characters_and_operators_read_an_integer_as_a_scalar():
    field = build_tower(3, 3).base
    x = field.element(3)  # the element X of F_27 = F_3[X]/(f), not 3 = 0
    phi = quadratic_char(field)
    assert phi(3) == 0 and phi(x) != 0
    assert x + 3 == x and x * 4 == x
    assert field.element(4) == 1 + x


def test_element_takes_a_code_or_an_element_only():
    field = construct_field(3, 3)
    for value in [(1, 2, 0), [1, 2, 0], 2.9, 1.0, "3"]:
        with pytest.raises(TypeError):
            field.element(value)
    with pytest.raises(TypeError):
        quadratic_char(field)(2.9)
    assert field.element(field.element(7)).code == 7


# ---------------------------------------------------------------------------
# the scalar convention: FieldElement's binary operators, == and a character
# read an int through Z -> F_p and an element of the field by its code

SCALAR_FIELDS = [(7, 1), (3, 2)]
CODE_ARITHMETIC = {  # operator -> the code arithmetic its result must equal
    operator.add: lambda f, a, b: f.add_codes(a, b),
    operator.sub: lambda f, a, b: f.sub_codes(a, b),
    operator.mul: lambda f, a, b: f.mul_codes(a, b),
    operator.truediv: lambda f, a, b: f.mul_codes(a, f.inv_code(b)),
}


def scalar_operands(field):
    """(operand, the code it is read as); every code is nonzero, so each
    operand can divide."""
    p = field.p
    return [
        (field.element(field.order - 2), field.order - 2),
        (2 * p + 2, 2),  # an int >= p
        (-p - 2, p - 2),  # a negative int
        (True, 1),  # bools are ints
    ]


@pytest.mark.parametrize("p,m", SCALAR_FIELDS)
def test_an_operand_is_read_as_a_scalar(p, m):
    field = construct_field(p, m)
    x, chi = field.element(3), char(field, 1)  # 3 is X, not a scalar, in F_9
    for other, code in scalar_operands(field):
        for op, codes in CODE_ARITHMETIC.items():
            forward, reflected = op(x, other), op(other, x)
            assert forward.field is reflected.field is field
            assert forward.code == codes(field, 3, code)
            assert reflected.code == codes(field, code, 3)
        assert (x == other) is (code == 3)
        assert (field.element(code) == other) is True
        assert chi(other) == chi.value_table()[code]


@pytest.mark.parametrize("p,m", SCALAR_FIELDS)
def test_another_fields_element_and_a_float_are_refused(p, m):
    field = construct_field(p, m)
    x, chi = field.element(3), char(field, 1)
    # the tower's base has the order of field but is another field
    for other in (construct_field(11).element(3), build_tower(p, m).base.element(3)):
        assert other.field is not field
        for op in CODE_ARITHMETIC:
            for args in ((x, other), (other, x)):
                with pytest.raises(FieldError):
                    op(*args)
        assert x != other
        with pytest.raises(FieldError):
            chi(other)
    for op in CODE_ARITHMETIC:
        for args in ((x, 3.0), (3.0, x)):
            with pytest.raises(TypeError):
                op(*args)
    assert x != 3.0
    with pytest.raises(TypeError):
        chi(3.0)


# ---------------------------------------------------------------------------
# one coercion path: only finite_field inspects an argument's type to decide
# how to read it

COERCING_MODULES = {"finite_field.py"}


def ad_hoc_coercions(source: str) -> list[int]:
    """Lines that read an argument through hasattr(_, "code") or
    isinstance(_, FieldElement)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if len(node.args) != 2:
            continue
        kind = node.args[1]
        if node.func.id == "hasattr":
            if isinstance(kind, ast.Constant) and kind.value == "code":
                lines.append(node.lineno)
        elif node.func.id == "isinstance":
            named = {n.id for n in ast.walk(kind) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(kind) if isinstance(n, ast.Attribute)}
            if "FieldElement" in named:
                lines.append(node.lineno)
    return lines


def test_the_guard_sees_each_ad_hoc_coercion():
    assert ad_hoc_coercions('jc = j.code if hasattr(j, "code") else int(j)') == [1]
    assert ad_hoc_coercions("c = x.code if isinstance(x, FieldElement) else int(x)") == [1]
    assert ad_hoc_coercions("ok = isinstance(x, (int, finite_field.FieldElement))") == [1]
    assert ad_hoc_coercions("c = field.element(x).code\nisinstance(x, int)") == []


def test_element_arguments_are_read_only_through_field_element():
    modules = sorted(SRC.glob("*.py"))
    assert {m.name for m in modules} >= COERCING_MODULES | {
        "characters.py", "katz.py", "hypergeometric.py",
    }
    found = {
        m.name: lines
        for m in modules
        if m.name not in COERCING_MODULES
        and (lines := ad_hoc_coercions(m.read_text(encoding="utf-8")))
    }
    assert found == {}
