"""Independent checker for `quartic-certify --batch` output lines.

Uses exact rational arithmetic only and nothing from the library.  A line
passes when its verdict is proven by what it carries:

* definite / semidefinite verdicts: the certificate is rebuilt for the
  input form (multiplied by e4, or taken as is, with its sign restored,
  when e4 = 0), must reproduce the coefficients through
  m11 = e4, 2 m12 = e3, 2 m13 + m22 = e2, 2 m23 = e1, m33 = e0,
  and must be semidefinite of the claimed sign (all seven principal minors
  >= 0 after the sign flip; the three leading ones > 0 for a definite
  claim).  A "not definite" claim also needs a real zero of the form;
* indefinite verdicts: the two witnesses evaluate, exactly, to a positive
  and a negative value of the input form;
* the verdict equals the one fixed by the form's construction, if any.

Entries p + q*sqrt(d) share one radicand per certificate and are handled
as pairs (p, q) over that d.
"""

from __future__ import annotations

from fractions import Fraction

VERDICTS = {
    "positive-definite": (1, True),
    "positive-semidefinite-not-definite": (1, False),
    "negative-definite": (-1, True),
    "negative-semidefinite-not-definite": (-1, False),
    "identically-zero": (1, False),
}
INDEFINITE = "indefinite"


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class _Field:
    """Arithmetic on pairs (p, q) meaning p + q*sqrt(d), for one d >= 0."""

    def __init__(self, d: Fraction):
        self.d = d

    def mul(self, a, b):
        return (a[0] * b[0] + a[1] * b[1] * self.d, a[0] * b[1] + a[1] * b[0])

    @staticmethod
    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def sign(self, a) -> int:
        sp, sq = _sign(a[0]), _sign(a[1])
        if sq == 0 or self.d == 0:
            return sp
        if sp == 0 or sp == sq:
            return sq
        return sp * _sign(a[0] * a[0] - a[1] * a[1] * self.d)


def _minors(field: _Field, m11, m12, m13, m22, m23, m33):
    """(all seven principal minors, the three leading principal minors)."""
    mul, sub = field.mul, field.sub
    d12 = sub(mul(m11, m22), mul(m12, m12))
    d13 = sub(mul(m11, m33), mul(m13, m13))
    d23 = sub(mul(m22, m33), mul(m23, m23))
    # cofactor expansion along the first row
    det = sub(sub(mul(m11, d23), mul(m12, sub(mul(m12, m33), mul(m13, m23)))),
              mul(m13, sub(mul(m13, m22), mul(m12, m23))))
    return (m11, m22, m33, d12, d13, d23, det), (m11, d12, det)


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b; coefficient lists, highest degree first, b[0] != 0."""
    a = list(a)
    while len(a) >= len(b):
        k = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= k * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _has_real_root(coeffs: list[Fraction]) -> bool:
    """Whether p(t) = coeffs (highest degree first, semidefinite) has a real root.

    A real root of a nonnegative polynomial is a multiple root, hence a root
    of gcd(p, p'); that gcd has degree at most 3 for a quartic.
    """
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    n = len(coeffs) - 1
    if n < 1:
        return False
    a, b = coeffs, [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    while b:
        a, b = b, _poly_rem(a, b)
    degree = len(a) - 1
    if degree == 2:
        return a[1] * a[1] - 4 * a[0] * a[2] >= 0
    return degree % 2 == 1


def _entry(entry: dict) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(entry["p"]), Fraction(entry["q"]), Fraction(entry["d"])


def check_certificate(coeffs, verdict: str, rows) -> list[str]:
    """Problems with `rows` as a certificate of `verdict` for the form `coeffs`."""
    if rows is None:
        return ["no certificate"]
    e4, e3, e2, e1, e0 = coeffs
    sign, definite = VERDICTS[verdict]
    entries = [[_entry(e) for e in row] for row in rows]
    radicands = {d for row in entries for (_, q, d) in row if q != 0}
    if len(radicands) > 1:
        return [f"entries mix radicands {sorted(map(str, radicands))}"]
    d = radicands.pop() if radicands else Fraction(0)
    if d < 0:
        return [f"negative radicand {d}"]
    field = _Field(d)
    if any(entries[i][j][:2] != entries[j][i][:2] for i in range(3) for j in range(i)):
        return ["certificate is not symmetric"]
    # the emitted matrix is the PSD Gram matrix of the decided form, e4 times
    # which gives the input form's matrix; with e4 = 0 the sign is restored
    scale = e4 if e4 != 0 else Fraction(sign)
    m = [[(scale * p, scale * q) for (p, q, _) in row] for row in entries]
    m11, m12, m13, m22, m23, m33 = m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2]

    problems = []
    two = (Fraction(2), Fraction(0))
    rebuilt = {
        "m11": m11,
        "2 m12": field.mul(two, m12),
        "2 m13 + m22": (2 * m13[0] + m22[0], 2 * m13[1] + m22[1]),
        "2 m23": field.mul(two, m23),
        "m33": m33,
    }
    for (name, got), want in zip(rebuilt.items(), coeffs):
        if got != (want, 0):
            problems.append(f"{name} = {got[0]} + {got[1]}*sqrt({d}), want {want}")

    signed = [(sign * p, sign * q) for p, q in (m11, m12, m13, m22, m23, m33)]
    principal, leading = _minors(field, *signed)
    if any(field.sign(x) < 0 for x in principal):
        problems.append("a principal minor is negative")
    if definite and any(field.sign(x) <= 0 for x in leading):
        problems.append("a leading principal minor is not positive")
    if not definite:
        if verdict == "identically-zero":
            if any(c != 0 for c in coeffs):
                problems.append("form is not identically zero")
        elif e4 != 0 and not _has_real_root(list(coeffs)):
            problems.append("no real zero: the form is definite")
    return problems


def evaluate(coeffs, x: Fraction, y: Fraction) -> Fraction:
    e4, e3, e2, e1, e0 = coeffs
    return e4 * x**4 + e3 * x**3 * y + e2 * x**2 * y**2 + e1 * x * y**3 + e0 * y**4


def check_witnesses(coeffs, witnesses) -> list[str]:
    if witnesses is None:
        return ["no witnesses"]
    problems = []
    for label, want in (("positive", 1), ("negative", -1)):
        w = witnesses[label]
        value = evaluate(coeffs, Fraction(w["x"]), Fraction(w["y"]))
        if _sign(value) != want:
            problems.append(f"{label} witness f({w['x']}, {w['y']}) = {value}")
        if Fraction(w["value"]) != value:
            problems.append(f"{label} witness value {w['value']} != {value}")
    return problems


def check_line(out: dict, coeffs, expected: str | None) -> list[str]:
    """Problems with one batch output line for the form `coeffs`."""
    if "error" in out:
        return [f"error line: {out['error']}"]
    if [Fraction(c) for c in out["input"]] != list(coeffs):
        return [f"input echoed as {out['input']}"]
    verdict = out["verdict"]
    if expected is not None and verdict != expected:
        return [f"verdict {verdict}, construction gives {expected}"]
    if verdict == INDEFINITE:
        return check_witnesses(coeffs, out["witnesses"])
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    return check_certificate(coeffs, verdict, out["certificate"])


def disagrees(out: dict) -> bool:
    """The CLI's own failure signal for a line: an error, or any cross-check flag false."""
    return "error" in out or any(v is False for v in out.get("agreement", {}).values())
