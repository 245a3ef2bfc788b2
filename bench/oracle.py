"""Reference values for the benchmark, computed with mpmath at 30 digits.

Run as a separate process before any timing starts; it never imports
isotorus.  It reads one JSON request on stdin and writes one JSON reply on
stdout; every number in the reply is a decimal string.

Request keys (all optional):
  "iso":    [z, ...]  -> Iso(z) and Iso(z)^2 from the paper's closed form
  "deriv":  [z, ...]  -> d Iso/dz by mpmath.diff on that closed form
  "roots":  [z, ...]  -> rho = float(Iso(z)), the inversion target made from z,
                         and the root of Iso(.) = rho by bracketed bisection
  "taylor": n         -> the first n+1 Taylor coefficients of Abar and Vbar

Floats travel as repr() strings, so every input is the exact binary value
the program sees.  To regenerate a reference by hand:

  echo '{"iso": ["0.3"], "roots": ["0.41"], "taylor": 5}' | python3 bench/oracle.py
"""

import json
import sys

import mpmath as mp

mp.mp.dps = 30
DIGITS = 30

K_RATIO = 9 * mp.sqrt(2) / (8 * mp.pi)
Z_MAX = mp.sqrt(2) - 1


def iso_squared(z):
    """Iso(z)^2 = K F(-3/2,-3/2;1;x)^2 / F(-1/2,-1/2;1;x)^3 ((1-t)/(1+t))^3,
    with t = z^2 and x = 4t/(1-t)^2."""
    t = z * z
    x = 4 * t / (1 - t) ** 2
    w = (1 - t) / (1 + t)
    f1 = mp.hyp2f1(-0.5, -0.5, 1, x)
    f2 = mp.hyp2f1(-1.5, -1.5, 1, x)
    return K_RATIO * f2 ** 2 / f1 ** 3 * w ** 3


def iso(z):
    return mp.sqrt(iso_squared(z))


def root(rho, near):
    """Bisection for Iso(z) = rho, which has one root since Iso increases.

    Starts from a bracket of width 2e-12 around ``near`` when Iso changes
    sign across it, else from the whole domain [0, sqrt(2) - 1]."""
    lo, hi = mp.mpf(0), Z_MAX
    a, b = max(lo, near - mp.mpf("1e-12")), min(hi, near + mp.mpf("1e-12"))
    if iso(a) <= rho <= iso(b):
        lo, hi = a, b
    while hi - lo > mp.mpf("1e-20"):
        mid = (lo + hi) / 2
        if iso(mid) < rho:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def abar(s):
    return 4 * (1 - s ** 2) / (s ** 2 - 6 * s + 1) ** 2 * mp.hyp2f1(-0.5, -0.5, 1, 4 * s / (1 - s) ** 2)


def vbar(s):
    return 2 * (1 - s) ** 3 / (s ** 2 - 6 * s + 1) ** 3 * mp.hyp2f1(-1.5, -1.5, 1, 4 * s / (1 - s) ** 2)


def text(v) -> str:
    return mp.nstr(v, DIGITS, strip_zeros=False, min_fixed=-mp.inf, max_fixed=mp.inf)


def answer(request: dict) -> dict:
    out = {"dps": mp.mp.dps, "iso": {}, "deriv": {}, "roots": {}, "taylor": {}}
    for s in request.get("iso", ()):
        z = mp.mpf(float(s))
        sq = iso_squared(z)
        out["iso"][s] = {"iso": text(mp.sqrt(sq)), "iso_squared": text(sq)}
    for s in request.get("deriv", ()):
        out["deriv"][s] = text(mp.diff(iso, mp.mpf(float(s))))
    for s in request.get("roots", ()):
        z = mp.mpf(float(s))
        rho = float(iso(z))
        out["roots"][s] = {"rho": repr(rho), "root": text(root(mp.mpf(rho), z))}
    n = request.get("taylor")
    if n:
        out["taylor"] = {
            "abar": [text(c) for c in mp.taylor(abar, 0, n)],
            "vbar": [text(c) for c in mp.taylor(vbar, 0, n)],
        }
    return out


if __name__ == "__main__":
    json.dump(answer(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
