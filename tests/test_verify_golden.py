"""Golden `verify all` reports, byte for byte.

Both reports were captured from the CLI before the integer checks were
routed through one helper; a refactor must leave them unchanged.  The text
report is pinned verbatim, the 3,050-line JSON report by its SHA-256.
"""

import hashlib

from quasisym.cli import main

VERIFY_ALL = """\
antipode: 16/16 passed
antipode-F: 31/31 passed
antipode-bullet: 128/128 passed
bullet-oracle: 80/80 passed
delta-derivation: 40/40 passed
distributivity: 76/76 passed
f-rules: 74/74 passed
generation: 31/31 passed
kp: 9/9 passed
kp-classical: 3/3 passed
lemma-iter: 256/256 passed
newton: 18/18 passed
qss-cancel: 32/32 passed
qss-closure: 5/5 passed
qss-kp: 3/3 passed
qss-y-zero: 8/8 passed
recursion: 128/128 passed
shuffle-oracle: 64/64 passed
weak-nonassoc: 2048/2048 passed
"""

VERIFY_ALL_JSON_SHA256 = "e371ada4aaf16b99359555efaee1971f8d0728fe9e9b037349f023dc719d6932"


def test_verify_all_report_is_unchanged(capsys):
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL


def test_verify_all_json_report_is_unchanged(capsys):
    assert main(["verify", "all", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3050
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256
