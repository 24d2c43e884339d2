"""Hand-written Python implementations of the 14 suite programs.

Each function takes the program's entry arguments and returns what the
entry point must return.  They are written from the programs' intent
(count primes, sort and checksum, simulate five bodies ...) and share
no code with the compiler, so a miscompile cannot agree with them by
construction.  Where a program spells out an evaluation order for
floats, the reference keeps that order, because the comparison below
allows only 1e-9 relative error.
"""

from __future__ import annotations

import math


def fannkuch(n: int) -> int:
    """Maximum pancake flips over all permutations of 0..n-1."""
    best = 0
    perm = list(range(n))
    count = [0] * (n + 1)
    r = n
    while True:
        work = perm[:]
        flips = 0
        while work[0] != 0:
            k = work[0]
            work[:k + 1] = work[k::-1]
            flips += 1
        best = max(best, flips)
        while r != 1:
            count[r - 1] = r
            r -= 1
        while True:
            if r == n:
                return best
            perm[:r + 1] = perm[1:r + 1] + [perm[0]]
            count[r] -= 1
            if count[r] > 0:
                break
            r += 1


def nbody(steps: int) -> float:
    """Energy of the Jovian system after *steps* advances of dt=0.01."""
    pi = 3.141592653589793
    solar_mass = 4.0 * pi * pi
    days = 365.24
    bodies = [
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], solar_mass),
        ([4.84143144246472090, -1.16032004402742839, -0.103622044471123109],
         [0.00166007664274403694 * days, 0.00769901118419740425 * days,
          -0.0000690460016972063023 * days],
         0.000954791938424326609 * solar_mass),
        ([8.34336671824457987, 4.12479856412430479, -0.403523417114321381],
         [-0.00276742510726862411 * days, 0.00499852801234917238 * days,
          0.0000230417297573763929 * days],
         0.000285885980666130812 * solar_mass),
        ([12.8943695621391310, -15.1111514016986312, -0.223307578892655734],
         [0.00296460137564761618 * days, 0.00237847173959480950 * days,
          -0.0000296589568540237556 * days],
         0.0000436624404335156298 * solar_mass),
        ([15.3796971148509165, -25.9193146099879641, 0.179258772950371181],
         [0.00268067772490389322 * days, 0.00162824170038242295 * days,
          -0.0000951592254519715870 * days],
         0.0000517138990464035365 * solar_mass),
    ]
    pos = [p for b in bodies for p in b[0]]
    vel = [v for b in bodies for v in b[1]]
    mass = [b[2] for b in bodies]
    n = len(mass)
    p = [0.0, 0.0, 0.0]
    for i in range(n):
        for axis in range(3):
            p[axis] += vel[i * 3 + axis] * mass[i]
    for axis in range(3):
        vel[axis] = -p[axis] / solar_mass
    dt = 0.01
    for _ in range(steps):
        for i in range(n):
            for j in range(i + 1, n):
                d = [pos[i * 3 + a] - pos[j * 3 + a] for a in range(3)]
                d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
                mag = dt / (d2 * math.sqrt(d2))
                for a in range(3):
                    vel[i * 3 + a] -= d[a] * mass[j] * mag
                for a in range(3):
                    vel[j * 3 + a] += d[a] * mass[i] * mag
        for i in range(n):
            for a in range(3):
                pos[i * 3 + a] += dt * vel[i * 3 + a]
    e = 0.0
    for i in range(n):
        vx, vy, vz = vel[i * 3:i * 3 + 3]
        e += 0.5 * mass[i] * (vx * vx + vy * vy + vz * vz)
        for j in range(i + 1, n):
            d = [pos[i * 3 + a] - pos[j * 3 + a] for a in range(3)]
            e -= mass[i] * mass[j] / math.sqrt(
                d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    return e


def spectral_norm(n: int) -> float:
    def a(i, j):
        return 1.0 / float((i + j) * (i + j + 1) // 2 + i + 1)

    def mult_av(v):
        return [sum_in_order(a(i, j) * v[j] for j in range(n))
                for i in range(n)]

    def mult_atv(v):
        return [sum_in_order(a(j, i) * v[j] for j in range(n))
                for i in range(n)]

    u = [1.0] * n
    v = [0.0] * n
    for _ in range(10):
        v = mult_atv(mult_av(u))
        u = mult_atv(mult_av(v))
    vbv = sum_in_order(u[i] * v[i] for i in range(n))
    vv = sum_in_order(v[i] * v[i] for i in range(n))
    return math.sqrt(vbv / vv)


def sum_in_order(values) -> float:
    """Left-to-right float sum from 0.0 (``sum`` would start at int 0)."""
    total = 0.0
    for value in values:
        total += value
    return total


def mandelbrot(size: int) -> int:
    inside = 0
    for y in range(size):
        for x in range(size):
            cr = 2.0 * float(x) / float(size) - 1.5
            ci = 2.0 * float(y) / float(size) - 1.0
            zr = zi = 0.0
            for _ in range(50):
                zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
                if zr * zr + zi * zi > 4.0:
                    break
            else:
                inside += 1
    return inside


def nqueens(n: int) -> int:
    """Solutions of the n-queens puzzle, by plain backtracking."""
    def place(row, cols, diag_a, diag_b):
        if row == n:
            return 1
        total = 0
        for col in range(n):
            if col in cols or row + col in diag_a or row - col in diag_b:
                continue
            total += place(row + 1, cols | {col}, diag_a | {row + col},
                           diag_b | {row - col})
        return total
    return place(0, frozenset(), frozenset(), frozenset())


def ackermann(m: int, n: int) -> int:
    """A(m, n) through its closed forms for m <= 3."""
    closed = {0: lambda k: k + 1, 1: lambda k: k + 2,
              2: lambda k: 2 * k + 3, 3: lambda k: 2 ** (k + 3) - 3}
    return closed[m](n)


def sieve(n: int) -> int:
    """Primes below n, by trial division."""
    def is_prime(k):
        return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))
    return sum(1 for k in range(n) if is_prime(k))


def _lcg(seed: int, mul: int, add: int, mod: int, count: int):
    for _ in range(count):
        seed = (seed * mul + add) % mod
        yield seed


def quicksort(n: int) -> int:
    data = sorted(s % 10000 for s in _lcg(42, 1103515245, 12345,
                                          2147483648, n))
    return sum(v * (i % 7 + 1) for i, v in enumerate(data))


def matmul(n: int) -> int:
    a = [[(i + j) % 17 for j in range(n)] for i in range(n)]
    b = [[(i * 3 + j * 2) % 13 for j in range(n)] for i in range(n)]
    return sum(sum(a[i][k] * b[k][i * 7 % n] for k in range(n))
               for i in range(n))


def pow_(x: int) -> int:
    """x ** 13 wrapped to a signed 64-bit word."""
    value = (x ** 13) & (2 ** 64 - 1)
    return value - 2 ** 64 if value >= 2 ** 63 else value


def dot_generic(n: int) -> int:
    return sum((i % 23) * ((i * i) % 19) for i in range(n))


def filter_image(n: int) -> float:
    src = [float(i * 37 % 256) / 255.0 for i in range(n)]
    total = 0.0
    for i in range(n):
        acc = 0.0
        for k, weight in ((-1, 0.25), (0, 0.5), (1, 0.25)):
            acc += src[min(max(i + k, 0), n - 1)] * weight
        total += acc
    return total


def sort_hof(n: int) -> int:
    data = sorted((s % 1000 for s in _lcg(7, 48271, 0, 2147483647, n)),
                  reverse=True)
    return sum(v * (i % 5 + 1) for i, v in enumerate(data))


def compose(n: int) -> int:
    acc = 1
    for _ in range(n):
        acc = (acc * 3 + 7) % 1000003
    return acc


REFERENCES = {
    "fannkuch": fannkuch, "nbody": nbody, "spectral_norm": spectral_norm,
    "mandelbrot": mandelbrot, "nqueens": nqueens, "ackermann": ackermann,
    "sieve": sieve, "quicksort": quicksort, "matmul": matmul,
    "pow": pow_, "dot_generic": dot_generic, "filter_image": filter_image,
    "sort_hof": sort_hof, "compose": compose,
}


def matches(expected, got) -> bool:
    """Integers exactly; floats within 1e-9 relative."""
    if isinstance(expected, float) or isinstance(got, float):
        return (isinstance(got, float)
                and math.isclose(got, expected, rel_tol=1e-9, abs_tol=0.0))
    return type(got) is int and got == expected
