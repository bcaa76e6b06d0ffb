"""Golden outputs: the CSV tables of the figure presets and two generic
configurations, the JSON of the searches and of one payoff, the stdout
and report file of ``verify``, the help texts, the stderr of refused
requests, and preset runs with overriding flags, pinned as sha256 digests
of their exact bytes.

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
     "344f1f7ce11834d627a04f4d9b4f87d3c25ade77e644af95ab072cc0d096e19a"),
    (["nash-check", "--gamma", "0", "--delta", "0", "--strategy", "A:pi,0,0",
      "--strategy", "B:pi,0,0", "--strategy", "C:pi,0,0", "--res", "5"],
     "42b03c433555d140394e2ee8c43e02d6f1a50662fd493a20bc25d1bcd1faee3c"),
    (["nash-check", "--res", "7"] + SPLIT + STRATEGIES,
     "4382e08d43cfd0910d0aa81391d984150f03653697a6f0a6da22d72c3eaec2dd"),
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
#: The stdout digests depend on the seed: the channel line reports the seeded
#: random states' largest Kraus-sum defect apart from the grid's (seeds 3 and
#: 1234 happen to print the same 1.110e-16).
VERIFY_GOLDEN = {
    0: ("cdbc97f7070920c2ae125032d266907e311aeb7b1af41aee4500f43c00b316d9",
        "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
    3: ("53cf02b8448967f060f44211911b8e0ecc426a4ca1d070ebb58c42cb14991b6a",
        "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
    7: ("4df7d53c2721cf672fc21506b76e40ea3768458daf60e9bb8bf44eba3624e9a1",
        "7e14861fc191383fcbce330756ddac8cd97c19c3dc7d196618a9adca407505aa"),
    1234: ("53cf02b8448967f060f44211911b8e0ecc426a4ca1d070ebb58c42cb14991b6a",
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
        "combos (tolerance max within 1e-12) — exact maximum over the (alpha1, theta1) "
        "plane at beta1 = 0 exceeds the claimed point by at most 4.441e-16"
    )


#: The help text of ``qpd3`` and of each subcommand (stdout of ``-h``).
HELP_GOLDEN = {
    "qpd3": "853a4790a1c17ccc985f0775c9b084f04463d5f536c83e9fbe23a7ede0999c5c",
    "payoff": "9bb6dbcb98f7f8da8231d5255388a28185e2bcffac0c0564220024dabf02ff4b",
    "sweep": "1103ac6cd50291dcddf3e6813f350b0464c9ab3976ee69d2876678117d1fedc8",
    "surface": "43af5a2d9750fb021811776f0dfd32d3b56aafcac1db46e712a62bb0d06a30f4",
    "best-response": "6e61a2b5d581621ddc809697691e7d273919ddbabe025bce49e7cebfa79a79bd",
    "nash-check": "2de0ca928695c863f7104716958774e27cc14db0a4f22a101d276b35c7fc38c4",
    "verify": "01363b3d671bd7f441578b0984a28cb7811e2da472bc094f9c490f1b9147d02b",
}


@pytest.mark.parametrize("cmd", sorted(HELP_GOLDEN))
def test_help_is_byte_identical(capsys, monkeypatch, cmd):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([] if cmd == "qpd3" else [cmd]) + ["-h"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == HELP_GOLDEN[cmd]


#: Refused requests: exit 2, nothing on stdout, and these stderr bytes.
REFUSAL_GOLDEN = [
    (["sweep"], "c2f81a2bab7231e2eb472b555ddfab0e06733622e43ad25b44e4a02271d97c72"),
    (["sweep", "--var", "p", "--p", "0.3"],
     "217a6527f1d67f82333bbd024ab44b3b102d88d51f101a5d4ed61629501606dd"),
    (["sweep", "--preset", "fig3", "--mu2", "0.3"],
     "62a7c72d221a80c7f894d0c9c2513f63ce3b3bd3965a045345c3b667ed783a7b"),
    (["sweep", "--preset", "fig2", "--p", "0.3"],
     "217a6527f1d67f82333bbd024ab44b3b102d88d51f101a5d4ed61629501606dd"),
    (["payoff", "--strategy", "A:1,0,0", "--strategy", "A:2,0,0"],
     "6540a56fd086091d951e21bca9c277dba9cf4cc9d42191953714a39302d08aa5"),
    (["best-response", "--player", "bob", "--claimed", "0,0,0", "--res", "3",
      "--strategy", "B:pi,0,0"],
     "d657e0b434e7120553c7971608a7a9e6c32ab22bcdcf0b5fc835c63305bf2ffd"),
    (["payoff", "--p", "1.5"], "7af369d7423cf79473dbb8c2c7c2a729700e53aaba0760dcebe3cfc145f01222"),
    (["payoff", "--p", "abc"], "6f6269757f0f2792c7432c8e33f7f21c91633b3cc2dfcadc926d81531bc0971e"),
    (["surface", "--res", "0"], "caa49a86563894a2cf489d2efa7119c62aebd743aeb63d4f80436f8fee615576"),
    (["verify", "--seed", "-1"], "084fdac86497d4c84da1721a3f69cc85078b94fc00dd422150c1a0a69081e176"),
    (["payoff", "--gamma", "pi"], "1cf556712358bf1371350df0c202da422d5942002ffe3692a40b658a2c21f7ca"),
    (["sweep", "--preset", "fig3", "--var", "p"],
     "273eea4d1faa3e99bac7ec9f05f7fd72f549780825557945d6109a99aa811925"),
    (["sweep", "--preset", "fig2", "--var", "mu"],
     "fc388ccc64f0468b203d75cdaab1ed8f81438a42bea9add2d4f33b9680799930"),
]


@pytest.mark.parametrize("argv,digest", REFUSAL_GOLDEN, ids=[
    "sweep-no-var", "p-sweep-p", "fig3-mu2", "fig2-p", "duplicate-strategy",
    "best-response-strategy", "p-out-of-range", "p-not-a-number", "surface-res0",
    "negative-seed", "gamma-out-of-range", "fig3-var-p", "fig2-var-mu",
])
def test_refusal_is_byte_identical(capsys, monkeypatch, tmp_path, argv, digest):
    # argparse's usage line in the message is wrapped to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode("utf-8")).hexdigest() == digest


#: Figure presets with flags that override their profile, p or mu.
OVERRIDE_GOLDEN = [
    # README's non-flat example: Charlie's second phase at zero
    (["sweep", "--preset", "fig2", "--mu", "1", "--strategy", "C:pi/2,pi/2,0"],
     "9486e2d7fc451ff69eb5e5deb1f8c260552f55864c45ae4332c1d3f5ee87269d"),
    (["sweep", "--preset", "fig3", "--p", "0.7", "--p2", "0.2", "--strategy", "C:pi/2,pi/2,0"],
     "6dd5d0fda7e688f072ca1212ce13831ca5c99b28b57369f2a13de46cf28a5417"),
    (["surface", "--preset", "fig5", "--mu", "0.2", "--res", "9", "--strategy", "B:1,0,0"],
     "9e8b653aa28ff9d92486b9fec2a361353a8a3e7c15f461de881fdc497c8f452d"),
    (["best-response", "--player", "bob", "--claimed", "1,0.5,0", "--res", "5", "--p", "0.3",
      "--strategy", "A:pi/2,0,0"],
     "90e8aeddd5c646397a01ce35996839b27403c343ca2966f259782064360f4f5d"),
]


@pytest.mark.parametrize("argv,digest", OVERRIDE_GOLDEN,
                         ids=["fig2-mu1-charlie", "fig3-split-p", "fig5-mu-bob", "best-response"])
def test_preset_override_output_is_byte_identical(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
