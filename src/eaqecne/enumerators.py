"""Weight distributions of dual codes on Python integers, without numpy.

A code C of size q^m in F_q^(2n) has the weight distribution A_0, ..., A_n:
A_w of its words have symplectic weight w, the count of coordinates j with
(a_j, b_j) != 0, which is the Hamming weight of the GF(q^2) word.  Its
symplectic dual has the enumerator

    W_{C^⊥}(x, y) = W_C(x + (q^2 - 1) y, x - y) / |C|

(Ketkar, Klappenecker, Kumar & Sarvepalli, "Nonbinary stabilizer codes over
finite fields", IEEE TIT 52(11), 2006), so A^⊥_w = sum_i A_i K_w(i) / q^m,
where the Krawtchouk value K_w(i) is the coefficient of y^w in
P_i(y) = (1 + (q^2 - 1) y)^(n - i) (1 - y)^i.
"""

from __future__ import annotations

from math import comb


def dual_distribution(A: list[int], q: int, m: int) -> list[int]:
    """A^⊥_0, ..., A^⊥_n of the dual of a code of size q^m whose weight
    distribution is A_0, ..., A_n.

    O(n^2) integer steps: P_0 from binomials, then P_(i+1) from P_i by one
    multiplication by (1 - y) and one exact division by (1 + (q^2 - 1) y),
    never a Krawtchouk value on its own.  Raises RuntimeError unless every
    A^⊥_w is a nonnegative integer and they sum to q^(2n - m), so a wrong
    input distribution never yields a distribution silently."""
    n, a = len(A) - 1, q * q - 1
    P = [comb(n, j) * a ** j for j in range(n + 1)]
    total = [0] * (n + 1)
    for i, count in enumerate(A):
        if count:
            total = [t + count * x for t, x in zip(total, P)]
        if i < n:
            # coefficient j of P (1 - y) / (1 + a y): P_j - P_(j-1) - a * (its j - 1)
            low = last = 0
            for j, x in enumerate(P):
                P[j] = last = x - low - a * last
                low = x
    size, out = q ** m, []
    for t in total:
        count, rest = divmod(t, size)
        if rest or count < 0:
            raise RuntimeError(
                f"dual weight count {t}/{size} is not a nonnegative integer")
        out.append(count)
    if sum(out) != q ** (2 * n - m):
        raise RuntimeError(f"dual weight counts sum to {sum(out)}, not q^(2n-m) "
                           f"with q={q}, n={n}, m={m}")
    return out
