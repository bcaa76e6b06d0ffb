"""Golden outputs: the CSV tables of the figure presets and two generic
configurations, the JSON of the searches and of one payoff, and the stdout
and report file of ``verify``, pinned as sha256 digests of their exact bytes.

Any change to the evaluation, the grids or the CSV formatting that moves a
printed digit fails here.  A deliberate change of output must update these
digests and say so.
"""

import hashlib

import pytest

from qpd3 import verify
from qpd3.cli import main

STRATEGIES = ["--strategy", "A:1.1,0.4,-0.7", "--strategy", "B:2.0,-1.2,0.3",
              "--strategy", "C:0.5,2.5,1.0"]
#: Split passages: each passage has its own p and mu.
SPLIT = ["--p", "0.2", "--mu", "0.5", "--p2", "0.6", "--mu2", "0.9",
         "--gamma", "1.2", "--delta", "0.9"]

# fig2 and fig3 print the same table: under the canned sweep profile every
# payoff is constant in p and mu (see verify.check_p_sweep_qualitative).
GOLDEN = [
    (["sweep", "--preset", "fig2"],
     "6f6f8480410aff79b2ceb1910323c84ed648bf43aa74cd64f830c49008e2d762"),
    (["sweep", "--preset", "fig3"],
     "6f6f8480410aff79b2ceb1910323c84ed648bf43aa74cd64f830c49008e2d762"),
    (["sweep", "--var", "mu", "--gamma", "1.1", "--delta", "0.7", "--p", "0.4",
      "--grid", "0:1:11"] + STRATEGIES,
     "f7b9e81d770319f7380d3459ffb122421e5f06b8777cdab5ce544720f588709b"),
    (["surface", "--preset", "fig4"],
     "078c3b1fab7910c029b3979b97d1d8d28aea30f4f887b441f5a8bb2934919641"),
    (["surface", "--preset", "fig5"],
     "61c1e4608edce5b2da5c23014bd75c76f0d5c3ab4d2c361ca2d11bc8bbd19f7b"),
    (["surface", "--res", "61"] + SPLIT + STRATEGIES,
     "109b3458e631633f4e1edaa7a05ca5cc1fe1594ed2ffd5aa635cc7faa4c6467d"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN, ids=["fig2", "fig3", "mu-sweep", "fig4", "fig5", "surface-res61"]
)
def test_csv_output_is_byte_identical(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: The JSON records of the searches and one split-passage payoff.
JSON_GOLDEN = [
    (["best-response", "--player", "alice", "--claimed", "pi/2,pi/2,0",
      "--strategy", "B:pi/2,0,0", "--strategy", "C:pi/2,0,0", "--res", "9"],
     "f93c64d94fb627d03be99cac9cc51cc23772db868a054e6863d4cda436a2e7ef"),
    (["nash-check", "--gamma", "0", "--delta", "0", "--strategy", "A:pi,0,0",
      "--strategy", "B:pi,0,0", "--strategy", "C:pi,0,0", "--res", "5"],
     "9f811fb0e9871049002ae3f2969b5b5235727da04d669a66e399d350462401d3"),
    (["nash-check", "--res", "7"] + SPLIT + STRATEGIES,
     "70f081315f51ef7d6d8f5409fc8f9f30d0680f3867740f5cb1e7eb2e0c2a4c20"),
    (["payoff"] + SPLIT + STRATEGIES,
     "2fcd6b7cc4e25e201a82f8c8f7f7128451449d54f599de283b9d09f80cc71465"),
]


@pytest.mark.parametrize(
    "argv,digest", JSON_GOLDEN, ids=["best-response", "nash-classical", "nash-noisy", "payoff"]
)
def test_json_output_is_byte_identical(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: seed -> digests of ``qpd3 verify --seed N --report report.json`` (stdout,
#: report file).  The closed_form_agreement line names the report path, so
#: every run writes the same relative path from a fresh working directory.
#: The digests are the same for every seed: the seeded random states' largest
#: defect (about 2e-16) stays below the grid's 6.661e-16, the printed maximum.
VERIFY_GOLDEN = {
    0: ("f919aa989866e97335670ba1652067a30ea83504cc48347fed0c256b0d5e6232",
        "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
    3: ("f919aa989866e97335670ba1652067a30ea83504cc48347fed0c256b0d5e6232",
        "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
    7: ("f919aa989866e97335670ba1652067a30ea83504cc48347fed0c256b0d5e6232",
        "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
    1234: ("f919aa989866e97335670ba1652067a30ea83504cc48347fed0c256b0d5e6232",
           "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_GOLDEN))
def test_verify_output_is_byte_identical(capsys, monkeypatch, tmp_path, seed):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--seed", str(seed), "--report", "report.json"]) == 1
    out = capsys.readouterr().out
    stdout_digest, report_digest = VERIFY_GOLDEN[seed]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_digest


def test_surface_argmax_invariance_line():
    assert verify.check_surface_argmax_invariance().line() == (
        "PASS  surface_argmax_invariance: measured claimed point maximal at 16/16 (p,mu) "
        "combos (tolerance max within 1e-12) — tie-broken argmax location(s): "
        "[(-3.14159265359, 0.0), (-1.570796326795, 0.0)]"
    )
