"""Golden CLI output on rational inputs, byte for byte.

The expected strings were captured from the CLI before coefficients became
int-or-Fraction; printing must not depend on how a coefficient is stored.
The qss-verify reports were captured while two-alphabet polynomials still
had their own product and key format.  The cases on number literals were
captured while a literal was still parsed into a Fraction and every
coefficient printed through one.
"""

import pytest

from quasisym.cli import main

GOLDEN = [
    (
        ["eval", "3/2*M[1,2] - 1/3*F[2,1]"],
        "3/2*M[1,2] - 1/3*M[2,1] - 1/3*M[1,1,1]\n",
    ),
    (
        ["eval", "(3/2*M[1] - 1/3*Mt[2]) * (M[1] + 1/2)"],
        "3/4*M[1] + 4/3*M[2] + 3*M[1,1] - 1/3*M[3] - 1/3*M[1,2] - 1/3*M[2,1]\n",
    ),
    (
        ["eval", "(3/2*F[1,1] - 1/3*M[2]) .2. (M[1] - 1/3)"],
        "1/9*M[2,2] - 1/2*M[1,1,2] - 1/3*M[2,3] + 3/2*M[1,1,3] - 1/3*M[2,2,1]"
        " + 3/2*M[1,1,2,1]\n",
    ),
    (
        ["eval", "(M[1] - 1/3*Mt[1,1]) ^1^ (3/2*F[2])"],
        "3/2*M[2,2] + 3/2*M[1,1,2] + 3/2*M[2,1,1] + 3/2*M[1,1,1,1] - 1/2*M[3,2]"
        " - 1/2*M[1,2,2] - 1/2*M[2,1,2] - 1/2*M[3,1,1] - 1/2*M[1,1,1,2]"
        " - 1/2*M[1,2,1,1] - 1/2*M[2,1,1,1] - 1/2*M[1,1,1,1,1]\n",
    ),
    (
        ["eval", "1/3*h3 - 3/2*p2*p1"],
        "-7/6*M[3] - 7/6*M[1,2] - 7/6*M[2,1] + 1/3*M[1,1,1]\n",
    ),
    (["eval", "3/2*M[1] - 3/2*M[1]"], "0\n"),
    (
        ["eval", "h4"],
        "M[4] + M[1,3] + M[2,2] + M[3,1] + M[1,1,2] + M[1,2,1] + M[2,1,1] + M[1,1,1,1]\n",
    ),
    (
        ["convert", "--to", "F", "3/2*M[2,1] - 1/3*M[1,1,1] + M[3]"],
        "F[3] - F[1,2] + 1/2*F[2,1] - 5/6*F[1,1,1]\n",
    ),
    (
        ["convert", "--to", "Mt", "3/2*F[2,1] - 1/3*M[1,2]"],
        "1/3*Mt[3] - 11/6*Mt[1,2] + 3/2*Mt[1,1,1]\n",
    ),
    (
        ["coproduct", "3/2*M[1,2] - 1/3*F[2,1]"],
        "3/2*1 (x) M[1,2]\n"
        "-1/3*1 (x) M[2,1]\n"
        "-1/3*1 (x) M[1,1,1]\n"
        "3/2*M[1] (x) M[2]\n"
        "-1/3*M[1] (x) M[1,1]\n"
        "-1/3*M[2] (x) M[1]\n"
        "-1/3*M[1,1] (x) M[1]\n"
        "3/2*M[1,2] (x) 1\n"
        "-1/3*M[2,1] (x) 1\n"
        "-1/3*M[1,1,1] (x) 1\n",
    ),
    (
        ["coproduct", "2*M[1,1] - M[2] + 3/2"],
        "3/2*1 (x) 1\n"
        "-1 (x) M[2]\n"
        "2*1 (x) M[1,1]\n"
        "2*M[1] (x) M[1]\n"
        "-M[2] (x) 1\n"
        "2*M[1,1] (x) 1\n",
    ),
    (["eval", "4/6*M[1] + 0/3*M[2]"], "2/3*M[1]\n"),
    (["eval", "-4/6"], "-2/3\n"),
    (["eval", "M[1,2] * 1/2"], "1/2*M[1,2]\n"),
    (["eval", "2/3 * 3/2 * F[2]"], "M[2] + M[1,1]\n"),
    (["eval", "2 .1. 3"], "6*M[1]\n"),
    (["eval", "1/2 ^1^ M[1]"], "1/2*M[1,1]\n"),
    (["coproduct", "3/2"], "3/2*1 (x) 1\n"),
    (["convert", "--to", "Mt", "2/4"], "1/2\n"),
    (["antipode", "3/2*M[1,2] - 1/3*Mt[3]"], "11/6*M[3] + 3/2*M[2,1]\n"),
    (["antipode", "-1/3*F[2,1] + 2*M[1]"], "-2*M[1] + 1/3*M[2,1] + 1/3*M[1,1,1]\n"),
    (
        ["expand", "--vars", "3", "3/2*M[1,2] - 1/3*F[2]"],
        "-1/3*x1^2 - 1/3*x1*x2 - 1/3*x1*x3 - 1/3*x2^2 - 1/3*x2*x3 - 1/3*x3^2"
        " + 3/2*x1*x2^2 + 3/2*x1*x3^2 + 3/2*x2*x3^2\n",
    ),
    (
        ["expand", "--vars", "3", "3/2 - 1/3*Mt[1,1]"],
        "3/2 - 1/3*x1^2 - 1/3*x1*x2 - 1/3*x1*x3 - 1/3*x2^2 - 1/3*x2*x3 - 1/3*x3^2\n",
    ),
    (
        ["kp", "--m", "1", "--n", "2", "--pde"],
        "kp m=1 n=2: PASS\n"
        "4*phi_{t1,t3} - 3*phi_{t2,t2} - phi_{t1,t1,t1,t1} + 6*phi_{t1}*phi_{t2}"
        " - 6*phi_{t1}*phi_{t1,t1} - 6*phi_{t2}*phi_{t1} - 6*phi_{t1,t1}*phi_{t1} = 0\n",
    ),
    (
        ["qss-verify", "--N", "3", "--suite", "kp"],
        "qss-kp: 1/1 passed\n",
    ),
    (
        ["qss-verify", "--N", "3", "--suite", "cancel", "--json"],
        '{"case": "x_1=y_1=t on M[]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[2]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[2]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[2]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[1,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[1,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[1,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[3]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[3]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[3]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[1,2]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[1,2]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[1,2]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[2,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[2,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[2,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_1=y_1=t on M[1,1,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_2=y_2=t on M[1,1,1]", "status": "pass", "suite": "qss-cancel"}\n'
        '{"case": "x_3=y_3=t on M[1,1,1]", "status": "pass", "suite": "qss-cancel"}\n',
    ),
    (
        ["qss-verify", "--N", "5", "--suite", "closure", "--json"],
        '{"case": "M[1]*M[1] in span(weight 2)", "status": "pass", "suite": "qss-closure"}\n'
        '{"case": "M[1]*M[2] in span(weight 3)", "status": "pass", "suite": "qss-closure"}\n'
        '{"case": "M[1]*M[1,1] in span(weight 3)", "status": "pass", "suite": "qss-closure"}\n'
        '{"case": "M[2]*M[1] in span(weight 3)", "status": "pass", "suite": "qss-closure"}\n'
        '{"case": "M[1,1]*M[1] in span(weight 3)", "status": "pass", "suite": "qss-closure"}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_is_unchanged(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
