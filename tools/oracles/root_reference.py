"""50-digit roots of the frequency polynomial at pinned operating points.

Builds the degree-6 coefficients in omega with exact-decimal mpmath
arithmetic (independent of the numpy path) and solves with mp.polyroots,
printing 17-digit literals for the physical quartet after removing the two
dissipative poles; these freeze the root-finder regression tests.

It then checks the factorization the package solves: the sextic equals
eta1 eta2 Q(-i omega) coefficient by coefficient, with eta_j = 1 + i tau_j
omega and the real quartic

    Q(s) = 1 - (tau1 + tau2) s + (tau1 tau2 + 2 L C1 + 2 L C2) s^2
           - 2 L (C1 tau2 + C2 tau1) s^3 + 2 L^2 C1 C2 (1 - cos k) s^4,

and that the roots s of Q, mapped to omega = i s, are the same quartet.
"""

import mpmath as mp

mp.mp.dps = 50


def conv(p, q):
    out = [mp.mpc(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def coefficients(r1, r2, c1, c2, l, k):
    one = mp.mpf(1)
    eta1 = [one, 1j * r1 * c1]
    eta2 = [one, 1j * r2 * c2]

    def axpy(p, q, s):
        return [pi + s * qi for pi, qi in zip(p, q)]

    a = [mp.mpc(0)] * 2 + [l * c1 * e for e in eta2]
    b = [mp.mpc(0)] * 2 + [l * c2 * e for e in eta1]
    p = conv(eta1, eta2) + [mp.mpc(0)]
    p = axpy(axpy(p, a, -1), b, -1)
    out = conv(p, p)
    out = axpy(out, conv(a, a), -1)
    out = axpy(out, conv(b, b), -1)
    return axpy(out, conv(a, b), -2 * mp.cos(k))


def quartic(r1, r2, c1, c2, l, k):
    t1, t2 = r1 * c1, r2 * c2
    return [mp.mpf(1), -(t1 + t2), t1 * t2 + 2 * l * (c1 + c2),
            -2 * l * (c1 * t2 + c2 * t1), 2 * l * l * c1 * c2 * (1 - mp.cos(k))]


def physical_roots(r1, r2, c1, c2, l, k):
    asc = coefficients(r1, r2, c1, c2, l, k)
    roots = mp.polyroots(asc[::-1], maxsteps=200, extraprec=100)
    poles = [1j / (r1 * c1), 1j / (r2 * c2)]
    keep = list(roots)
    for pole in poles:
        keep.remove(min(keep, key=lambda z: abs(z - pole)))
    return sorted(keep, key=lambda z: (mp.re(z), mp.im(z)))


def quartic_roots(r1, r2, c1, c2, l, k):
    s = mp.polyroots(quartic(r1, r2, c1, c2, l, k)[::-1], maxsteps=200, extraprec=100)
    return sorted((1j * z for z in s), key=lambda z: (mp.re(z), mp.im(z)))


def factor_mismatch(r1, r2, c1, c2, l, k):
    """max_j |sextic_j - (eta1 eta2 Q(-i omega))_j| / max_j |sextic_j|."""
    sextic = coefficients(r1, r2, c1, c2, l, k)
    in_omega = [q * (-1j) ** j for j, q in enumerate(quartic(r1, r2, c1, c2, l, k))]
    factored = conv(conv([1, 1j * r1 * c1], [1, 1j * r2 * c2]), in_omega)
    return max(abs(x - y) for x, y in zip(sextic, factored)) / max(abs(x) for x in sextic)


CASES = [
    ("row2 k=pi/3", ("0.03", "0.14", "1.50", "0.26", "0.57"), mp.pi / 3),
    ("row4 k=2.1", ("0.05", "1.41", "0.03", "1.34", "1.17"), mp.mpf("2.1")),
]

for name, pars, k in CASES:
    vals = [mp.mpf(x) for x in pars]
    print(name)
    sextic_roots = physical_roots(*vals, k)
    for z in sextic_roots:
        print("   ", mp.nstr(z, 17, strip_zeros=False))
    print("    sextic vs eta1 eta2 Q, worst coefficient:",
          mp.nstr(factor_mismatch(*vals, k), 3))
    worst = max(abs(x - y) / abs(x) for x, y in zip(sextic_roots, quartic_roots(*vals, k)))
    print("    quartic roots vs sextic quartet, worst relative:", mp.nstr(worst, 3))
