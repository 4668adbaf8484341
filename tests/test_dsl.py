import re
from pathlib import Path

import pytest

from usmod.cli import main
from usmod.dsl import ASSERTIONS, DECLARATIONS, evaluate_assertions, parse_program
from usmod.errors import (
    ConfigError,
    DomainError,
    InvalidMultiplicativeSetError,
    InvalidRingError,
    NotPrimeError,
    ResourceExceededError,
)

RUNNING_EXAMPLE = """
# running example over Z/6
ring R = zmod 6
mset S over R = closure {4}
module M over R = regular
sub K of M = gens {2}
sub L of M = gens {3}
assert u_s_essential(K, S)
assert essential(K) == false
assert u_s_torsion(L, S) == true
assert u_s_torsion(K, S) == false
"""


def test_parse_and_evaluate_running_example():
    env = parse_program(RUNNING_EXAMPLE)
    assert env.rings["R"].size == 6
    assert env.msets["S"].members == (1, 4)
    assert env.subs["K"].members == (0, 2, 4)
    results = evaluate_assertions(env)
    assert all(r.ok for r in results)
    torsion = [r for r in results if r.law == "u_s_torsion"][0]
    assert torsion.witness_s == "4"


def test_contract_statement_forms():
    # every statement form of the external interface parses as documented
    env = parse_program(
        """
ring R = zmod 6
ring R2 = zmod 6
ring T = product R R2
module M over R = regular
ring E = trivext R M
mset S over R = closure {4}
mset S2 over R = complement_prime {0,3}
module D = dsum M M
sub K of M = gens {2}
module Q = quot M K
hom f : M -> M = images {1: 3}
"""
    )
    assert env.rings["T"].size == 36
    assert env.rings["E"].size == 36
    assert env.msets["S2"].members == (1, 2, 4, 5)
    assert env.modules["Q"].size == 2
    assert env.homs["f"].map == (0, 3, 0, 3, 0, 3)


def test_parse_composite_rings():
    env = parse_program(
        """
ring A = zmod 2
ring B = zmod 3
ring P = product A B
module MA over A = regular
ring T = trivext A MA
"""
    )
    assert env.rings["P"].size == 6
    assert env.rings["T"].size == 4


def test_module_expressions():
    env = parse_program(
        """
ring R = zmod 6
module M over R = regular
module D = dsum M M
sub K of M = gens {3}
module Q = quot M K
module W = asmod K
"""
    )
    assert env.modules["D"].size == 36
    assert env.modules["Q"].size == 3
    assert env.modules["W"].size == 2


def test_hom_from_images():
    env = parse_program(
        """
ring R = zmod 6
module M over R = regular
sub K of M = gens {2}
module KM = asmod K
hom i : KM -> M = images {1: 2}
hom d : M -> M = images {1: 2}
assert u_s_mono(i, S) == true
mset S over R = closure {4}
"""
    )
    assert env.homs["i"].map == (0, 2, 4)
    assert env.homs["d"].map == (0, 2, 4, 0, 2, 4)


def test_hom_images_on_non_generators():
    # neither 2 nor 3 generates Z/6, but together they do: f = 5x
    env = parse_program(
        """
ring R = zmod 6
module M over R = regular
module V = dsum M M
hom f : M -> M = images {2: 4, 3: 3}
hom g : M -> M = images {1: 2, 2: 4, 4: 2}
hom p : V -> M = images {7: 1, 6: 1}
"""
    )
    assert env.homs["f"].map == (0, 5, 4, 3, 2, 1)
    assert env.homs["g"].map == (0, 2, 4, 0, 2, 4)
    # V indexes (a|b) as 6a + b: 7 = (1|1) and 6 = (1|0), so p(a|b) = a
    assert env.homs["p"].map == tuple(x // 6 for x in range(36))
    with pytest.raises(ConfigError, match="linear"):
        parse_program("ring R = zmod 6\nmodule M over R = regular\nhom f : M -> M = images {1: 2, 2: 3}")
    with pytest.raises(ConfigError, match="linear"):
        parse_program("ring R = zmod 6\nmodule M over R = regular\nhom f : M -> M = images {0: 1}")


def test_hom_images_refuse_a_repeated_element():
    """Two images for one element are refused, not resolved to the last."""
    with pytest.raises(ConfigError, match=r"^line 3: element 1 is given two images$"):
        parse_program("ring R = zmod 6\nmodule M over R = regular\nhom f : M -> M = images {1: 1, 1: 2}")


def test_hom_images_must_determine_map():
    with pytest.raises(ConfigError, match="determine"):
        parse_program(
            """
ring R = zmod 6
module M over R = regular
hom f : M -> M = images {2: 2}
"""
        )


def test_hom_images_must_be_linear():
    with pytest.raises(ConfigError, match="linear"):
        parse_program(
            """
ring R = zmod 6
module M over R = regular
hom f : M -> M = images {1: 3, 2: 2}
"""
        )


@pytest.mark.parametrize("src_n, dst_n", [(6, 4), (4, 6)])
def test_hom_images_need_one_ring(src_n, dst_n):
    program = f"""
ring A = zmod {src_n}
ring B = zmod {dst_n}
module M over A = regular
module N over B = regular
hom f : M -> N = images {{1: 1}}
"""
    with pytest.raises(ConfigError, match="line 6: source and target are over different rings"):
        parse_program(program)


def test_parse_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_program("frobnicate Q = zmod 6")
    with pytest.raises(ConfigError, match="unknown ring"):
        parse_program("mset S over R = closure {1}")
    with pytest.raises(ConfigError, match="bad set literal"):
        parse_program("ring R = zmod 6\nmodule M over R = regular\nsub K of M = gens {x}")
    # generators outside Z/6 (-1 is not read as 5) and a complement of a non-ideal
    for rhs, error in (
        ("closure {7}", InvalidMultiplicativeSetError),
        ("closure {-1}", InvalidMultiplicativeSetError),
        ("complement_prime {0, 2, 3, 4}", NotPrimeError),
    ):
        with pytest.raises(error):
            parse_program(f"ring R = zmod 6\nmset S over R = {rhs}")


@pytest.mark.parametrize(
    "program, error, message",
    [
        (
            "ring R = zmod 6\nring T = zmod 4\nmodule M over R = regular\n"
            "module N over T = regular\nmodule E = dsum M N",
            DomainError,
            "line 5: summands are over different rings",
        ),
        (
            "ring R = zmod 6\nmodule M over R = regular\nmodule N = dsum M M\n"
            "sub J of N = gens {7}\nmodule W = quot M J",
            DomainError,
            "line 5: submodule of a different module",
        ),
        (
            "ring R = zmod 6\nring T = zmod 4\nmodule N over T = regular\nring X = trivext R N",
            DomainError,
            "line 4: module is not over the given ring",
        ),
        ("ring R = zmod 0", InvalidRingError, "line 1: zmod needs n >= 2, got 0"),
        ("ring R = zmod 600", ResourceExceededError, "line 1: zmod ring would have 600 > 64 elements"),
    ],
    ids=["dsum-rings", "quot-foreign-sub", "trivext-ring", "zmod-0", "zmod-600"],
)
def test_library_refusals_name_their_line(program, error, message):
    """A refusal raised by the library while a line is built is prefixed
    with that line once, and keeps its class."""
    with pytest.raises(error) as info:
        parse_program(program)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "program, line, name",
    [
        ("ring R = zmod 6\nring R = zmod 4\nmset S over R = closure {3}", 2, "R"),
        ("ring R = zmod 6\nmodule M over R = regular\nsub K of M = gens {2}\n"
         "module K over R = regular", 4, "K"),
        ("ring R = zmod 6\nmset R over R = closure {1}", 2, "R"),
    ],
    ids=["ring-twice", "module-and-sub", "mset-named-as-ring"],
)
def test_a_name_is_declared_once(program, line, name):
    """A second declaration of a name, in the same table or another one, is
    refused instead of replacing or shadowing the first."""
    with pytest.raises(ConfigError, match=rf"^line {line}: {name!r} is already declared$"):
        parse_program(program)


_TWO_RINGS = "ring R = zmod 6\nring T = zmod 4\nmodule M over R = regular\nsub K of M = gens {2}\n"


@pytest.mark.parametrize("rhs", ["dsum M M", "quot M K", "asmod K"], ids=["dsum", "quot", "asmod"])
def test_a_module_form_is_over_its_named_ring(rhs):
    """``over RING`` is checked against the ring the form builds over: a
    module named over T but built from modules over R is refused, and the
    same form over R is accepted."""
    with pytest.raises(ConfigError, match="^line 5: module D is not over T$"):
        parse_program(_TWO_RINGS + f"module D over T = {rhs}")
    env = parse_program(_TWO_RINGS + f"module D over R = {rhs}")
    assert env.modules["D"].ring == env.rings["R"]


def test_assert_failure_reported_not_raised():
    env = parse_program(
        """
ring R = zmod 6
mset S over R = closure {4}
module M over R = regular
sub K of M = gens {2}
assert essential(K)
"""
    )
    results = evaluate_assertions(env)
    assert len(results) == 1
    assert results[0].verdict is False and not results[0].ok


def test_assert_envelope_roundtrip():
    env = parse_program(
        """
ring R = zmod 6
mset S over R = closure {4}
module M over R = regular
sub K of M = gens {2}
module KM = asmod K
hom i : KM -> M = images {1: 2}
assert u_s_preenvelope(i, S)
assert u_s_envelope(i, S)
assert u_s_injective(M, S)
assert u_s_iso_exists(KM, M, S)
"""
    )
    results = evaluate_assertions(env)
    assert all(r.ok for r in results), [r.to_json() for r in results]


def test_assert_json_fields():
    env = parse_program(
        """
ring R = zmod 6
mset S over R = closure {4}
module M over R = regular
sub L of M = gens {3}
assert u_s_torsion(L, S)
"""
    )
    payload = evaluate_assertions(env)[0].to_json()
    assert set(payload) >= {"verdict", "witness_s", "enumeration_complete", "law"}
    assert payload["verdict"] is True and payload["witness_s"] == "4"


def test_mono_and_epi_witnesses():
    # the shown s is the first member of S killing the kernel (mono) or the
    # cokernel (epi); a check that fails shows none
    env = parse_program(
        """
ring R = zmod 6
mset S over R = closure {4}
module M over R = regular
sub K of M = gens {2}
module KM = asmod K
hom d : M -> M = images {1: 2}
hom i : KM -> M = images {1: 2}
hom z : M -> M = images {1: 0}
assert u_s_mono(d, S)
assert u_s_epi(d, S)
assert u_s_mono(i, S)
assert u_s_epi(i, S)
assert u_s_mono(z, S) == false
assert u_s_epi(z, S) == false
"""
    )
    results = evaluate_assertions(env)
    assert all(r.ok for r in results), [r.to_json() for r in results]
    assert [r.witness_s for r in results] == ["4", "4", "1", "4", None, None]


@pytest.mark.parametrize(
    "line,count",
    [("assert u_s_essential(K)", "got 1"), ("assert essential(K, S)", "got 2")],
    ids=["too-few", "too-many"],
)
def test_assert_argument_count_is_checked(line, count):
    """A miscounted assertion is a config-error result on its line, not a
    crash, and the other lines are still evaluated."""
    env = parse_program(RUNNING_EXAMPLE + line + "\n")
    *others, bad = evaluate_assertions(env)
    assert all(r.ok for r in others)
    assert bad.verdict is None and not bad.ok
    assert bad.detail.startswith("config-error: line ") and count in bad.detail


def test_preenvelope_not_mono_is_refused_before_the_target_is_certified(
    tmp_path, monkeypatch, capsys
):
    """The zero map Z/8 -> Z/8 + Z/4 is no u-S-mono at S = {1}; that answers
    the question before any hom scan into the target, which exceeds the cap."""
    program = tmp_path / "z.usm"
    program.write_text(
        "ring R = zmod 8\nmset S over R = closure {1}\nmodule A over R = regular\n"
        "module M over R = regular\nsub T of M = gens {4}\nmodule Q = quot M T\n"
        "module E = dsum A Q\nhom z : A -> E = images {1: 0}\n"
        "assert u_s_preenvelope(z, S) == false\n"
    )
    monkeypatch.setenv("USMOD_CAPS", "hom=16")
    assert main(["check", str(program)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok   line 9: assert u_s_preenvelope(z, S) == false [not-mono]",
        "-- 1/1 assertions passed",
    ]


DSL_DOC = (Path(__file__).resolve().parents[1] / "docs" / "dsl.md").read_text(encoding="utf-8")


def _ebnf_rule(name: str) -> str:
    return re.search(rf"^{name}\s*=(.*?);", DSL_DOC, re.S | re.M).group(1)


def test_dsl_doc_example_and_grammar_match_the_parser():
    """The example program of docs/dsl.md passes, and its EBNF lists exactly
    the assertion functions of the assertion table and, for each declaration
    table, the keyword and operand count of each of its forms."""
    example = re.search(r"## Examples\n\n```\n(.*?)```", DSL_DOC, re.S).group(1)
    results = evaluate_assertions(parse_program(example))
    assert len(results) == 3 and all(r.ok for r in results), [r.to_json() for r in results]
    assert sorted(re.findall(r'"(\w+)"', _ebnf_rule("func"))) == sorted(ASSERTIONS)
    for table, rule in (("rings", "ring-expr"), ("msets", "mset-expr"), ("modules", "module-expr")):
        # each alternative minus its comment: the keyword, then its operands
        alternatives = [
            re.sub(r"\(\*.*?\*\)", "", alt).split()
            for alt in _ebnf_rule(rule).split("|")
        ]
        documented = sorted((words[0].strip('"'), len(words) - 1) for words in alternatives)
        shapes = [f.shape.split() for f in DECLARATIONS if f.table == table]
        assert documented == sorted((words[0], len(words) - 1) for words in shapes), rule
