"""Bit-identity pins of the k-series kernel.

DECK pins, as float.hex, p_0..p_8, p_25, the tail mass above state 8 and the
pgf at u = -0.5 and 0.5 of six parameter sets, at x = lam^nu t^(-beta) from
0 to 5.  Each set is evaluated on one params object, time after time, so
later times read rows that earlier ones cached.  The values are those of the
kernel that filled its rows one entry at a time through log_abs_gamma; any
change to the floats a term is formed from, or to the order they are added
in, moves a bit here.  An entry the kernel refuses (ConvergenceError: its
rounding bound exceeds ROUNDING_TOL) is pinned as REFUSED; those are x = 5
entries whose alternating series cancel more digits than the bound allows.
"""

import math

import pytest

from fracpois.errors import ConvergenceError
from fracpois.processes import FractionalParams, pmf, pmf_tail_mass, sstfpp_pgf
from fracpois.specfun import POLE_TOL, log_abs_gamma

POINTS = {
    "tfpp": (1.3, 0.6, 1.0, -0.6, 0.0),
    "sfpp": (1.0, 1.0, 0.5, -1.0, 0.0),
    "stfpp": (1.0, 0.7, 0.6, -0.7, 0.0),
    "sstfpp": (1.0, 0.8, 0.6, -0.5, 0.1),
    # nu = 0.5: pole zeros in the state rows
    "nu_half": (1.0, 0.8, 0.5, -0.6, 0.2),
    # nu = 0.4: p_25 starts past the first ln C_k build
    "sstfpp_deep": (1.2, 0.9, 0.4, -0.95, 0.3),
}
N = 8
PGF_U = (-0.5, 0.5)
REFUSED = None

DECK = {
    'tfpp': {
        0.0: (
            '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        1e-06: (
            '0x1.ffffda725e3ebp-1', '0x1.2c6cfe1327471p-20', '0x1.feef37bf418c9p-41',
            '0x1.6019eac28a122p-61', '0x1.9f3f3a0b73c9bp-82', '0x1.b0b0b39efb7bap-103',
            '0x1.96dfd681cb3b5p-124', '0x1.5e7ab05ca3d21p-145', '0x1.17a98806f79f2p-166',
            '0x1.604b6446cb933p-539', '0x1.a105fe89793b1p-188', '0x1.ffffc7ab8edd3p-1',
            '0x1.ffffed392e9fap-1',
        ),
        0.3: (
            '0x1.76e13f76614ffp-1', '0x1.b14beca105555p-3', '0x1.7b6c547e939a3p-5',
            '0x1.131a1d02475e9p-7', '0x1.59ca60e717feep-10', '0x1.8368cf67de6cfp-13',
            '0x1.8a33fb4f4112ap-16', '0x1.7140f7c70e1cfp-19', '0x1.41aa0017c0091p-22',
            '0x1.989054d433878p-85', '0x1.227c65b5c5dccp-25', '0x1.4625fe66e8bc5p-1',
            '0x1.b38d988743f80p-1',
        ),
        1.7: (
            '0x1.170405ee5d38ep-2', '0x1.e723c1daa0c34p-3', '0x1.769f89bf41bedp-3',
            '0x1.03bf6ebd313b2p-3', '0x1.4a0371a63a690p-4', '0x1.84b2e1d2535e1p-5',
            '0x1.ac3f6f40a153ep-6', '0x1.bc79f29272164p-7', '0x1.b512d84240955p-8',
            '0x1.67e6fe256d3fep-33', '0x1.69d49626197e3p-8', '0x1.7f96729f96729p-3',
            '0x1.d71958417c2d0p-2',
        ),
        5.0: (
            REFUSED, REFUSED, REFUSED,
            REFUSED, REFUSED, REFUSED,
            REFUSED, REFUSED, REFUSED,
            REFUSED, REFUSED, REFUSED,
            '0x1.86ff56b4633b2p-3',
        ),
    },
    'sfpp': {
        0.0: (
            '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        1e-06: (
            '0x1.ffffde7211d81p-1', '0x1.0c6f6873c5eb5p-21', '0x1.0c6f7a0b5e455p-23',
            '0x1.0c6f7a0b5ea7bp-24', '0x1.4f8b588e366a8p-25', '0x1.d5c31593e5d77p-26',
            '0x1.6052502eec66cp-26', '0x1.14d2f5dbb9c21p-26', '0x1.c1d6cf850dde6p-27',
            '0x1.3aeb025b70664p-29', '0x1.a5b9628cbd0e3p-23', '0x1.ffffd6e78731fp-1',
            '0x1.ffffe846004b3p-1',
        ),
        0.3: (
            '0x1.7b4c869c37c05p-1', '0x1.c728a18842e5ap-4', '0x1.27da68fef84d5p-5',
            '0x1.2eae38380db89p-6', '0x1.7c91d0056b7a0p-7', '0x1.0b1469ad6440ap-7',
            '0x1.9130c2072af41p-8', '0x1.3b81da06d2c5dp-8', '0x1.0082c5108a865p-8',
            '0x1.680cd7dd282e1p-11', '0x1.e22493807a0eap-5', '0x1.62918011fd1b9p-1',
            '0x1.9e229f2f41b29p-1',
        ),
        1.7: (
            '0x1.7622c78a98a5cp-3', '0x1.3e03f66901baep-3', '0x1.ad522640f5744p-4',
            '0x1.233fc9fd9bccdp-4', '0x1.9fc244b8ac66bp-5', '0x1.3812eec34614cp-5',
            '0x1.e822fba159663p-6', '0x1.8a45d452f613ep-6', '0x1.46a4fb64e0ea3p-6',
            '0x1.ef1ca50f5115bp-9', '0x1.4b3ca1d17cf85p-2', '0x1.fea86bd50baebp-4',
            '0x1.33c813a68e0c1p-2',
        ),
        5.0: (
            '0x1.b993fe00dd4bap-8', '0x1.13fc7ec085942p-6', '0x1.9dfabe20c08a8p-6',
            '0x1.ee79b86e3ef73p-6', '0x1.0654ab25abdcdp-5', '0x1.04e4afd1fd8a9p-5',
            '0x1.f4a4f9b557b94p-6', '0x1.d702a3318e050p-6', '0x1.b692450913cdfp-6',
            '0x1.20300aea6dcbdp-7', '0x1.8ac3eb9a8791ep-1', '0x1.1f15b6c5d3606p-9',
            '0x1.dd7b695415af4p-6',
        ),
    },
    'stfpp': {
        0.0: (
            '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        1e-06: (
            '0x1.ffffdb12606e8p-1', '0x1.6282b7a916fafp-21', '0x1.1b9beeea8f59ep-23',
            '0x1.08b3a659a3517p-24', '0x1.3da45f0b79bc4p-25', '0x1.affe424134a6fp-26',
            '0x1.3ccb85306f845p-26', '0x1.e8c4f89584b7ep-27', '0x1.8703f99752900p-27',
            '0x1.e3ccd7257d6bcp-30', '0x1.2d6863cf05db9p-23', '0x1.ffffd0e69ea07p-1',
            '0x1.ffffe7a2eeddfp-1',
        ),
        0.3: (
            '0x1.768c7fdba7f53p-1', '0x1.09969d080d0b1p-3', '0x1.56b07b306c0d8p-5',
            '0x1.4793d0d2c2e82p-6', '0x1.86318be6c240bp-7', '0x1.0732c0d647410p-7',
            '0x1.7f8e98b7784cbp-8', '0x1.2667c67fad115p-8', '0x1.d529c07c4f3d5p-9',
            '0x1.1b7d51faf7006p-11', '0x1.60f8af6d92c13p-5', '0x1.59b630aa2e4c8p-1',
            '0x1.9ef7d4d87994ap-1',
        ),
        1.7: (
            '0x1.01df8b656b730p-2', '0x1.2f309ec8ab672p-3', '0x1.9db2dc67985eap-4',
            '0x1.2640d2fd57534p-4', '0x1.b0fb17e3b7b96p-5', '0x1.48caf00f5b4d2p-5',
            '0x1.00f69633bbb07p-5', '0x1.9bf46deed9062p-6', '0x1.5183e946d5956p-6',
            '0x1.af5863cdb770cp-9', '0x1.075c2024ce549p-2', '0x1.926334c09e7d3p-3',
            '0x1.763c205e1e798p-2',
        ),
        5.0: (
            '0x1.3db95deb8b9a8p-4', '0x1.ac5d31ce8b6fap-5', REFUSED,
            REFUSED, REFUSED, REFUSED,
            REFUSED, REFUSED, REFUSED,
            '0x1.18a9bab14dda5p-7', REFUSED, REFUSED,
            '0x1.fbd7f5e721df3p-4',
        ),
    },
    'sstfpp': {
        0.0: (
            '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        1e-06: (
            '0x1.ffffdcd3223f2p-1', '0x1.51aea6b598d7bp-21', '0x1.0e2579d287949p-23',
            '0x1.f845e9e4d43f9p-25', '0x1.2e90570579dd0p-25', '0x1.9b7c9dc94dc02p-26',
            '0x1.2dc1c8552bef8p-26', '0x1.d1916032ecedap-27', '0x1.74744c7f08b13p-27',
            '0x1.ccd5a1cd269bcp-30', '0x1.1f19a3c49aae0p-23', '0x1.ffffd322f9b0ep-1',
            '0x1.ffffe8cb009c1p-1',
        ),
        0.3: (
            '0x1.7d821278aec45p-1', '0x1.f6e379d4b0afbp-4', '0x1.456218fde37bbp-5',
            '0x1.37e7951c9a088p-6', '0x1.73d4a6371b0d5p-7', '0x1.f5bcca231107fp-8',
            '0x1.6d9c5a197b531p-8', '0x1.18a1c2f861343p-8', '0x1.bf3525c1525a5p-9',
            '0x1.0e26b16b050f7p-11', '0x1.505a286f08636p-5', '0x1.62375d3bb3f69p-1',
            '0x1.a3ccd7a9ae3bbp-1',
        ),
        1.7: (
            '0x1.26cf6e9236edcp-2', '0x1.2a41c82286dc9p-3', '0x1.864e45cb4d695p-4',
            '0x1.12c2670708347p-4', '0x1.9437e4dd96cc4p-5', '0x1.33c7e317dd5a4p-5',
            '0x1.e29429f8be9d6p-6', '0x1.83e443fb283b5p-6', '0x1.3e838bb7a82fbp-6',
            '0x1.9acd10850b9bep-9', '0x1.f4f7931d11482p-3', '0x1.dcb15994244a7p-3',
            '0x1.9782ab807c0fap-2',
        ),
        5.0: (
            '0x1.acbd171f9a7acp-4', '0x1.fbce7b713d678p-5', REFUSED,
            REFUSED, REFUSED, REFUSED,
            REFUSED, REFUSED, REFUSED,
            '0x1.0654988eff8dcp-7', REFUSED, REFUSED,
            '0x1.41d1b82361b79p-3',
        ),
    },
    'nu_half': {
        0.0: (
            '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        1e-06: (
            '0x1.ffffdd0604b31p-1', '0x1.17cfcd7be84bdp-21', '0x1.17cfe7538fbc0p-23',
            '0x1.17cfe75390a67p-24', '0x1.5dc3e128750c8p-25', '0x1.e9abd4d23d99bp-26',
            '0x1.6f40df9dae426p-26', '0x1.208e668e2d853p-26', '0x1.d4e766a709fe8p-27',
            '0x1.4843c13b000b6p-29', '0x1.b798f03c997edp-23', '0x1.ffffd529a89cbp-1',
            '0x1.ffffe74493daap-1',
        ),
        0.3: (
            '0x1.7ce38995a4afbp-1', '0x1.a979ceb640e39p-4', '0x1.28ca8f45cd092p-5',
            '0x1.35d2f0461c329p-6', '0x1.88373114898a7p-7', '0x1.141fd9032beebp-7',
            '0x1.9f85b9528b545p-8', '0x1.4727c6b8334acp-8', '0x1.0a31c47a3c17cp-8',
            '0x1.76d88d81931dbp-11', '0x1.f5ee16b9cb7ecp-5', '0x1.660225b3bb566p-1',
            '0x1.9dee683181d31p-1',
        ),
        1.7: (
            '0x1.182b7ea3a002fp-2', '0x1.fe09acc2df617p-4', '0x1.45ed5da287a34p-4',
            '0x1.cbc761cda4794p-5', '0x1.57dc0550f02d7p-5', '0x1.0c34bda874f9dp-5',
            '0x1.b00e3d83761f1p-6', '0x1.64eb607bb5a7ep-6', '0x1.2ce8c9746a607p-6',
            '0x1.f0a295501f176p-9', '0x1.4cbd93b2ebcbcp-2', '0x1.cf143299c9df0p-3',
            '0x1.77f05cfce53a9p-2',
        ),
        5.0: (
            '0x1.7905a798e8452p-4', '0x1.8a14294febf4ep-5', '0x1.2d3f7087b8f89p-5',
            '0x1.f9705f698cbb3p-6', '0x1.b99276cc8319ep-6', '0x1.8a6e582eae374p-6',
            '0x1.653c86997ed72p-6', '0x1.46a2028312709p-6', '0x1.2cbdab69f9a9ap-6',
            '0x1.cfdfe4087d130p-8', '0x1.5cb9a656feeb3p-1', '0x1.3123cc79c1c11p-4',
            '0x1.0ec71d7214a44p-3',
        ),
    },
    'sstfpp_deep': {
        0.0: (
            '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        1e-06: (
            '0x1.ffffdcc974a95p-1', '0x1.c2ba1a176822ap-22', '0x1.0e6fb691be064p-23',
            '0x1.20772aea7591bp-24', '0x1.77015274ad6cfp-25', '0x1.0e00f42825a8fp-25',
            '0x1.9e0176dfab914p-26', '0x1.4b345f661f785p-26', '0x1.113e687fc348bp-26',
            '0x1.b07e896311c22p-29', '0x1.447a1dfb3c284p-22', '0x1.ffffd6962f42dp-1',
            '0x1.ffffe55040838p-1',
        ),
        0.3: (
            '0x1.77207eb36b757p-1', '0x1.70bc5595de0c6p-4', '0x1.0e64151c149b4p-5',
            '0x1.2b88c13f84a10p-6', '0x1.8befa044c11e7p-7', '0x1.1fe6e6c52439cp-7',
            '0x1.bc6dea4050acbp-8', '0x1.6550ac49d2e1ap-8', '0x1.27edadf089c2dp-8',
            '0x1.df22a90daf175p-11', '0x1.6a15e4c7f3629p-4', '0x1.636bae99719e5p-1',
            '0x1.942fda79b69efp-1',
        ),
        1.7: (
            '0x1.8b71c61e3a07ep-3', '0x1.d4dd0c59bc372p-4', '0x1.2f20a3a071d8dp-4',
            '0x1.a994cec48541bp-5', '0x1.3ef0862b7f3efp-5', '0x1.f580a2fb3a3a0p-6',
            '0x1.9871414048d64p-6', '0x1.55a254691fad9p-6', '0x1.23b9e8c0912d3p-6',
            '0x1.17d8a92933885p-8', '0x1.bbc2243e03dbap-2', '0x1.326878ac73da3p-3',
            '0x1.1e16c7bc91004p-2',
        ),
        5.0: (
            '0x1.81b05f98d9ac5p-6', '0x1.3ea6c34b4f745p-6', '0x1.3a53730f0b032p-6',
            '0x1.328bab04c5bcdp-6', '0x1.26554c779010bp-6', '0x1.17c745b784558p-6',
            '0x1.087baa658d9a9p-6', '0x1.f2c79e56933a1p-7', '0x1.d5facb29dfe23p-7',
            '0x1.a32b9e0abe054p-8', '0x1.ad3e826d99815p-1', '0x1.171661b6d5dc0p-6',
            '0x1.5c6fa18c39f87p-5',
        ),
    },
}


def _values(params, point, x):
    lam, _, nu, beta, _ = point
    t = (x / lam ** nu) ** (1.0 / -beta)
    calls = [lambda n=n: pmf(params, t, n) for n in (*range(N + 1), 25)]
    calls.append(lambda: pmf_tail_mass(params, t, N))
    calls += [lambda u=u: sstfpp_pgf(params, u, t) for u in PGF_U]
    out = []
    for call in calls:
        try:
            out.append(call().hex())
        except ConvergenceError as exc:
            assert "rounding error bound" in str(exc)
            out.append(REFUSED)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_deck_is_bit_identical(name):
    params = FractionalParams(*POINTS[name])
    for x, pinned in DECK[name].items():
        assert _values(params, POINTS[name], x) == pinned, (name, x)


# Targets of the state fill's argument a = k nu + 1 - n: the first three
# poles, points within POLE_TOL of them (poles, except above 0) and within
# 2 POLE_TOL (not poles), and half-integers.
POLE_ARGS = sorted(
    [m + d * POLE_TOL for m in (0.0, -1.0, -2.0) for d in (0.0, -0.5, 0.5, -1.5, 1.5)]
    + [0.5, -0.5, -1.5, -2.5]
)


@pytest.mark.parametrize("a", POLE_ARGS)
def test_state_fill_follows_log_abs_gamma(a):
    # entry k = 2 of state n's row, with n and nu chosen so that
    # 2 nu + 1 - n lands on a (nu in (0, 1])
    n = 2 - math.floor(a)
    nu = (a - 1.0 + n) / 2.0
    arg = 2 * nu + 1.0 - n  # as the fill forms it
    assert abs(arg - a) < 1e-12
    row = []
    FractionalParams(1.0, alpha=0.7, nu=nu)._terms.grow(n, row, 0.0, 3)
    sign, lg = log_abs_gamma(arg)
    # a pole within POLE_TOL of a non-positive integer, never at a > 0
    assert (sign == 0.0) == (a <= 0.0 and abs(a - round(a)) <= POLE_TOL)
    if sign == 0.0:
        assert row[4:6] == [0.0, -math.inf]
    else:
        # (-1)^(n + k) folded into the sign, k = 2
        assert row[4:6] == [sign * (-1.0) ** n, math.lgamma(2 * nu + 1.0) - lg]
