"""What a process loads: the lazy package namespace and the CLI's per-command imports.

A module is compiled from source in every process whose bytecode cannot be
cached, so a CLI command must load only the modules it runs.  These tests
check which modules a command loaded, never how long it took.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quasisym

SRC = Path(__file__).resolve().parents[1] / "src"

# the package's public names, by home module, as `quasisym/__init__.py`
# imported them eagerly before the namespace became lazy
PUBLIC = {
    "composition": ("Composition", "coarsenings", "compositions_of", "concat",
                    "elementary_decompose", "enumerate_compositions", "omega", "refinements",
                    "reverse"),
    "elements": ("QSymElem", "counit", "format_elem", "monomial", "one", "scale", "to_basis",
                 "zero"),
    "hopf": ("TensorElem", "antipode", "antipode_F", "coproduct", "derivation_delta", "m_k",
             "tensor_bullet_left", "tensor_bullet_right", "tensor_mul", "tensor_of"),
    "kp": ("complete_h", "elementary_schur", "kp_classical_identity", "kp_identity",
           "power_sum", "sigma_render"),
    "oracle": ("Polynomial", "certify_equal", "expand", "expand_bullet", "poly_equal"),
    "products": ("bullet", "bullet_F", "bullet_tilde", "bullet_via_first", "elementary_F",
                 "factorize_F", "hat_bullet", "mul"),
    "qss": ("QssPoly", "qss_bullet", "qss_kp_check", "qss_M", "qss_p", "t_substitution_check"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_public_names_are_their_home_modules_objects():
    listed = dir(quasisym)
    for module, name in NAMES:
        home = importlib.import_module(f"quasisym.{module}")
        assert getattr(quasisym, name) is getattr(home, name), name
        assert name in listed, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from quasisym import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"quasisym.{module}"), name)
    assert sorted(quasisym.__all__) == sorted(name for _, name in NAMES)


def test_plain_attributes_and_unknown_names():
    assert quasisym.__version__ == "0.1.0"
    assert quasisym.kernel_backend == "python"
    with pytest.raises(AttributeError, match="no_such_name"):
        quasisym.no_such_name
    assert not hasattr(quasisym, "no_such_name")


# the child runs one command through main() and then prints the modules it loaded
CHILD = "import sys\nfrom quasisym.cli import main\nmain(sys.argv[1:])\nprint(sorted(sys.modules))\n"


def run_child(*argv, code=CHILD):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def loaded_by(*argv) -> set:
    proc = run_child(*argv)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule_until_one_is_named():
    proc = run_child(code=(
        "import sys, quasisym\n"
        "print(sorted(m for m in sys.modules if m.startswith('quasisym.')))\n"
        "from quasisym import _core, products\n"
        "print(_core is sys.modules['quasisym._core'], "
        "products is sys.modules['quasisym.products'])\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue True\n"


# argparse, and gettext and locale, which its messages load: the CLI reads
# argv itself, so no command loads them
ARGV_PARSING = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ("eval", "M[1] * F[2]"),
    ("eval", "h3 - p1 .1. p2"),
    ("convert", "--to", "F", "M[1,1] + M[2]"),
    ("coproduct", "M[2,1]"),
    ("antipode", "M[2,1]"),
    ("expand", "--vars", "3", "M[2,1]"),
    ("kp", "--m", "1", "--n", "2", "--pde"),
    ("kp", "--m", "1", "--n", "2", "--certify", "5"),
], ids=" ".join)
def test_command_loads_no_suite_or_heavy_module(argv):
    loaded = loaded_by(*argv)
    assert "quasisym.cli" in loaded
    assert not loaded & {"quasisym.suites", "quasisym.qss", "dataclasses", "json", *ARGV_PARSING}


# the coefficients are int numerators over one denominator: no command parses
# or prints a rational through fractions, which loads decimal and numbers too
RATIONAL = "3/2*M[1,2] - 1/3*F[2,1]"


@pytest.mark.parametrize("argv", [
    ("eval", RATIONAL),
    ("convert", "--to", "F", RATIONAL),
    ("coproduct", RATIONAL),
    ("antipode", RATIONAL),
    ("expand", "--vars", "3", RATIONAL),
    ("eval", "h3 - 1/2*p2"),
    ("kp", "--m", "1", "--n", "2", "--pde", "--certify", "5"),
    ("qss-verify", "--N", "3", "--suite", "kp"),
    ("qss-verify", "--N", "3", "--suite", "cancel"),
    ("qss-verify", "--N", "3", "--suite", "closure"),
    ("verify", "antipode"),
], ids=" ".join)
def test_command_loads_no_fractions(argv):
    loaded = loaded_by(*argv)
    assert "quasisym.cli" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}


SCALED = [
    (("convert", "--to", "F", "3/2*M[1,2]"), {"quasisym.products", "quasisym._core"}),
    (("expand", "--vars", "3", "1/2*M[1,2]"), {"quasisym.products"}),
]


@pytest.mark.parametrize("argv, unloaded", SCALED, ids=[" ".join(a) for a, _ in SCALED])
def test_a_number_times_an_element_loads_no_product(argv, unloaded):
    # a constant factor scales the other operand: no structure constants
    loaded = loaded_by(*argv)
    assert "quasisym.cli" in loaded
    assert not loaded & unloaded


def test_oracle_loads_no_structure_constants():
    # the oracle is the ground truth for the products and the Hopf and KP
    # structure, so it must reach its answers without them
    proc = run_child(code="import sys, quasisym.oracle\nprint(sorted(sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert "quasisym.oracle" in loaded
    assert not loaded & {f"quasisym.{name}" for name in ("products", "hopf", "kp", "suites", "qss")}


@pytest.mark.parametrize("argv", [("coproduct", "M[2,1] - 1/2*F[1,2]"), ("antipode", "Mt[2,1]")],
                         ids=" ".join)
def test_coproduct_and_antipode_load_no_product(argv):
    # deconcatenation and the signed reversal need no structure constant:
    # hopf imports products and the kernel only in the functions that multiply
    loaded = loaded_by(*argv)
    assert "quasisym.hopf" in loaded
    assert not loaded & {"quasisym.products", "quasisym._core"}


def test_basis_expression_loads_only_the_algebra():
    loaded = loaded_by("eval", "M[1] * F[2]")
    assert not loaded & {"quasisym.kp", "quasisym.hopf", "quasisym.oracle"}


@pytest.mark.parametrize("suite", ["kp", "closure", "cancel"])
def test_qss_verify_loads_only_the_two_alphabet_module(suite):
    loaded = loaded_by("qss-verify", "--N", "2", "--suite", suite)
    assert "quasisym.qss" in loaded
    assert not loaded & {"quasisym.suites", "quasisym.hopf", "quasisym.kp", *ARGV_PARSING}


def test_verify_loads_no_argv_parsing_module():
    loaded = loaded_by("verify", "kp", "--max", "2")
    assert "quasisym.suites" in loaded
    assert not loaded & ARGV_PARSING


def test_verify_names_every_suite_on_a_bad_choice():
    from quasisym.suites import SUITES

    proc = run_child("verify", "no-such-suite")
    assert proc.returncode == 2
    assert "invalid choice: 'no-such-suite'" in proc.stderr
    for name in [*SUITES, "all"]:
        assert repr(name) in proc.stderr


def test_verify_help_lists_the_suites():
    from quasisym.suites import SUITES

    proc = run_child("verify", "--help")
    assert proc.returncode == 0
    help_words = re.split(r"[\s,{}]+", proc.stdout)
    for name in [*SUITES, "all"]:
        assert name in help_words
