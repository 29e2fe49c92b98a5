"""Private-key recovery from partially known nonces.

Each signature whose nonce has ``l`` known low bits yields a linear
congruence on the key: writing k = a + 2^l * b with known a turns the
signing equation into b = t*d + u (mod n) where b is unusually small.
Dividing every congruence by the first one's eliminates d, and shifting
each b by the middle of its range leaves m hidden values of at most
n / 2^(l+1) each. Embedded in an (m+1)-dimensional integer lattice they
form an exceptionally short vector, which LLL finds; the key is read off
the reduced basis and verified against the public point before being
reported.

LLL runs a floating-point pass for the bulk of the work and one exact
integral pass to finish it; the rows are exact integers throughout, and a
returned basis has passed the exact checks (see ``lll_reduce``).
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .ecdsa import Signature, keygen, sign
from .errors import ConfigError, DomainError, RecoveryFailed
from .ff_curve import CurveParams, ProjectivePoint, fast_multiply, inverse_mod

# Lovasz parameter of lll_reduce's default and of every key recovery:
# close to 1, so the reduced rows are near-shortest, which reading the key
# off a row relies on.
DEFAULT_DELTA = Fraction(99, 100)

_WARMUP_DELTA = 0.5

# Size-reduction bound of the floating-point pass: a little above 1/2 so
# that rounding error cannot keep a row cycling.
_ETA = 0.51
# Largest Gram entry after scaling, well inside a double's exponent range.
_GRAM_BITS = 960


@dataclass(frozen=True, slots=True)
class HnpSample:
    """One signature with the known low bits of its nonce."""

    r: int
    s: int
    z: int
    known_lsb: int
    leak_bits: int

    def __post_init__(self) -> None:
        if self.leak_bits < 1:
            raise DomainError("each sample needs at least one known bit")
        if not 0 <= self.known_lsb < (1 << self.leak_bits):
            raise DomainError("known bits exceed the declared leak width")


@dataclass(frozen=True, slots=True)
class HnpInstance:
    """Hidden number problem over the scalar group of one curve."""

    modulus: int
    samples: tuple[HnpSample, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise DomainError("modulus must be at least 2")
        if not self.samples:
            raise DomainError("an instance needs at least one sample")
        widths = {s.leak_bits for s in self.samples}
        if len(widths) != 1:
            raise DomainError("the baseline solver needs a uniform leak width")
        for i, sample in enumerate(self.samples):
            if not (0 < sample.r < self.modulus and 0 < sample.s < self.modulus):
                raise DomainError(f"sample {i}: r and s must lie in [1, n)")

    @property
    def leak_bits(self) -> int:
        return self.samples[0].leak_bits


@dataclass(frozen=True, slots=True)
class LatticeBasis:
    """Integer row basis."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DomainError("a basis needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise DomainError("basis rows must share one width")
        if len(self.rows) > width:
            raise DomainError("more rows than coordinates cannot be independent")

    @property
    def dimension(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One cell of the success-rate grid."""

    curve: CurveParams
    leak_bits: int
    signature_count: int
    error_rate: float
    trials: int = 100
    seed: int = 0
    strategy: str = "direct"
    max_tries: int = 20

    def __post_init__(self) -> None:
        if not 1 <= self.leak_bits <= self.curve.n.bit_length():
            raise ConfigError("leak_bits must lie in [1, bitlen(n)]")
        if self.signature_count < 1:
            raise ConfigError("signature_count must be at least 1")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError("error_rate must lie in [0, 1]")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.strategy not in ("direct", "subset_retry"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.max_tries < 1:
            raise ConfigError("max_tries must be at least 1")


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """Aggregated outcome of one grid cell."""

    config: ExperimentConfig
    successes: int
    mean_seconds: float


def build_hnp(
    records: Sequence[tuple[Signature, int]],
    curve: CurveParams,
    leak_bits: int,
) -> HnpInstance:
    """Bundle signatures and their known nonce LSBs into an instance.

    The known bits are the contiguous low end of each nonce; the same
    width applies to every record.
    """
    if not records:
        raise DomainError("at least one signature record is required")
    samples = tuple(
        HnpSample(sig.r, sig.s, sig.z, known, leak_bits)
        for sig, known in records
    )
    return HnpInstance(modulus=curve.n, samples=samples)


def hnp_coefficients(inst: HnpInstance) -> list[tuple[int, int]]:
    """The (t_i, u_i) pairs with b_i = t_i*d + u_i (mod n), |b_i| < n/2^l.

    From s*k = z + r*d and k = a + 2^l*b: b = 2^-l*s^-1*r * d
    + 2^-l*(s^-1*z - a), all modulo n.
    """
    n = inst.modulus
    shift_inv = inverse_mod(pow(2, inst.leak_bits, n), n)
    pairs = []
    for sample in inst.samples:
        s_inv = inverse_mod(sample.s, n)
        t = shift_inv * s_inv % n * sample.r % n
        u = shift_inv * ((s_inv * sample.z - sample.known_lsb) % n) % n
        pairs.append((t, u))
    return pairs


def _centre(inst: HnpInstance) -> int:
    """The middle of each hidden b_i's range [0, n / 2^l)."""
    return inst.modulus >> (inst.leak_bits + 1)


def build_lattice(inst: HnpInstance) -> LatticeBasis:
    """Kannan embedding of the instance with d eliminated, (m+1)-dimensional.

    The first sample is the pivot: with t_i' = t_i / t_0, b_i = t_i' * b_0
    + (u_i - t_i' * u_0) (mod n) no longer involves d.  Recentred on
    c = n >> (l+1), each beta_i = b_i - c lies within about c of 0 and
    beta_i = t_i' * beta_0 + u_i' (mod n) with u_i' = t_i' * (c - u_0)
    + u_i - c.  Rows: n*e_i for 0 < i < m, then (1, t_1' .., 0), then
    (0, u_1' .., K) with Kannan constant K = max(1, c), so the planted
    vector (beta_0 .. beta_{m-1}, K) has every coordinate near c, and no
    entry of the basis exceeds n.
    """
    n = inst.modulus
    m = len(inst.samples)
    c = _centre(inst)
    (t0, u0), *rest = hnp_coefficients(inst)
    t0_inv = inverse_mod(t0, n)
    ts = [t * t0_inv % n for t, _ in rest]
    us = [(t * (c - u0) + u - c) % n for t, (_, u) in zip(ts, rest)]
    rows: list[list[int]] = []
    for i in range(1, m):
        row = [0] * (m + 1)
        row[i] = n
        rows.append(row)
    rows.append([1, *ts, 0])
    rows.append([0, *us, max(1, c)])
    return LatticeBasis(tuple(tuple(r) for r in rows))


def _dot(x: list[int], y: list[int]) -> int:
    return sum(a * c for a, c in zip(x, y))


def _float_pass(b: list[list[int]], u: list[list[int]], delta: float) -> int:
    """Bulk LLL reduction steered by floating-point Gram-Schmidt, in place;
    returns the swap count.

    Schnorr-Euchner lazy size reduction in the manner of L^2 (Nguyen and
    Stehle, SIAM J. Comput. 2009): the rows, their transform and their Gram
    matrix stay exact integers, and only the choice of each multiple to
    subtract and of each swap is made in doubles, from the Gram matrix
    scaled by a power of two so that its largest entry fits. Should the
    doubles stop being usable (a non-positive Gram-Schmidt norm, a row that
    will not settle, no end in sight), it stops early; the rows still span
    the same lattice and the exact pass that follows finishes the job.
    """
    n = len(b)
    gram = [[_dot(x, y) for y in b] for x in b]
    top = max(gram[i][i] for i in range(n)).bit_length()
    scale = 1 << max(0, top - _GRAM_BITS)
    r = [[0.0] * n for _ in range(n)]  # r[i][j] = <b_i, b*_j> / scale
    mu = [[0.0] * n for _ in range(n)]
    swaps = 0
    steps = n * n * (top + 10)
    k = 1
    try:
        r[0][0] = gram[0][0] / scale
        while k < n:
            steps -= 1
            if steps < 0 or not r[k - 1][k - 1] > 0:
                break
            rk, muk, gk = r[k], mu[k], gram[k]
            for _ in range(top):
                settled = True
                for j in range(k):
                    acc = gk[j] / scale
                    muj = mu[j]
                    for i in range(j):
                        acc -= muj[i] * rk[i]
                    rk[j] = acc
                    muk[j] = m = acc / r[j][j]
                    if abs(m) > _ETA:
                        settled = False
                if settled:
                    break
                for j in range(k - 1, -1, -1):
                    x = round(muk[j])
                    if not x:
                        continue
                    muj = mu[j]
                    for i in range(j):
                        muk[i] -= x * muj[i]
                    b[k] = [p - x * q for p, q in zip(b[k], b[j])]
                    u[k] = [p - x * q for p, q in zip(u[k], u[j])]
                    gj = gram[j]
                    gkk = gk[k] - 2 * x * gk[j] + x * x * gj[j]
                    for i in range(n):
                        gk[i] -= x * gj[i]
                        gram[i][k] = gk[i]
                    gk[k] = gkk
            else:
                break
            rkk = gk[k] / scale - sum(muk[j] * rk[j] for j in range(k))
            if delta * r[k - 1][k - 1] > rkk + muk[k - 1] ** 2 * r[k - 1][k - 1]:
                swaps += 1
                b[k - 1], b[k] = b[k], b[k - 1]
                u[k - 1], u[k] = u[k], u[k - 1]
                gram[k - 1], gram[k] = gram[k], gram[k - 1]
                for row in gram:
                    row[k - 1], row[k] = row[k], row[k - 1]
                if k == 1:
                    r[0][0] = gram[0][0] / scale
                k = max(k - 1, 1)
            else:
                rk[k] = rkk
                k += 1
    except (OverflowError, ValueError, ZeroDivisionError):
        pass  # the doubles overflowed or degenerated; leave the rest exact
    return swaps


def _reduce_pass(
    b: list[list[int]], u: list[list[int]], p: int, q: int
) -> int:
    """One integral LLL run at delta = p/q, in place; returns swap count.

    All-integer variant: lam[i][j] = d_{j+1} * mu_{i,j} and d[i+1] is the
    Gram determinant of the first i+1 rows, so every division below is
    exact and no rationals appear.
    """
    n = len(b)
    if n == 1:
        return 0
    d = [0] * (n + 1)
    d[0] = 1
    d[1] = _dot(b[0], b[0])
    lam = [[0] * n for _ in range(n)]
    swaps = 0

    def size_reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - r * y for x, y in zip(b[k], b[l])]
            u[k] = [x - r * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= r * d[l + 1]
            for i in range(l):
                lam[k][i] -= r * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                scalar = _dot(b[k], b[j])
                for i in range(j):
                    scalar = (d[i + 1] * scalar - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = scalar
                else:
                    d[k + 1] = scalar
                    if d[k + 1] == 0:
                        raise DomainError("basis rows are linearly dependent")
        while True:
            size_reduce(k, k - 1)
            if q * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < p * d[k] ** 2:
                swaps += 1
                b[k], b[k - 1] = b[k - 1], b[k]
                u[k], u[k - 1] = u[k - 1], u[k]
                for j in range(k - 1):
                    lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
                lv = lam[k][k - 1]
                new_d = (d[k - 1] * d[k + 1] + lv * lv) // d[k]
                for i in range(k + 1, kmax + 1):
                    t = lam[i][k]
                    lam[i][k] = (d[k + 1] * lam[i][k - 1] - lv * t) // d[k]
                    lam[i][k - 1] = (new_d * t + lv * lam[i][k]) // d[k + 1]
                d[k] = new_d
                k = max(k - 1, 1)
            else:
                for l in range(k - 2, -1, -1):
                    size_reduce(k, l)
                k += 1
                break
    return swaps


def _determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if a[col][col] == 0:
            for swap_row in range(col + 1, n):
                if a[swap_row][col] != 0:
                    a[col], a[swap_row] = a[swap_row], a[col]
                    sign = -sign
                    break
            else:
                return 0
        for row in range(col + 1, n):
            for j in range(col + 1, n):
                a[row][j] = (a[col][col] * a[row][j] - a[row][col] * a[col][j]) // prev
            a[row][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def lll_reduce(
    basis: LatticeBasis, delta: Fraction | float = DEFAULT_DELTA
) -> LatticeBasis:
    """Delta-LLL-reduce the basis.

    A floating-point pass does the bulk of the reduction; an exact integral
    pass at ``delta`` then finishes it, and that pass ends only once every
    pair of rows meets the size and Lovasz conditions, which makes the
    result delta-LLL-reduced whatever the floating point did. The row
    operations are mirrored into a transform matrix; before returning, the
    transform is checked to be unimodular and to map the input rows onto
    the output rows, so the reduced basis provably spans the same lattice.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ConfigError("delta must lie in (1/4, 1)")
    rows = [list(r) for r in basis.rows]
    dim = len(rows)
    transform = [[int(i == j) for j in range(dim)] for i in range(dim)]
    # A weak Lovasz condition first: most of the reduction happens there,
    # in fewer swaps than at the target delta.
    _float_pass(rows, transform, min(_WARMUP_DELTA, float(delta)))
    _float_pass(rows, transform, float(delta))
    _reduce_pass(rows, transform, delta.numerator, delta.denominator)
    if abs(_determinant(transform)) != 1:
        raise DomainError("row-operation audit lost unimodularity")
    for i, row in enumerate(rows):
        rebuilt = [
            sum(transform[i][j] * basis.rows[j][c] for j in range(dim))
            for c in range(len(row))
        ]
        if rebuilt != row:
            raise DomainError("row-operation audit does not reproduce the basis")
    return LatticeBasis(tuple(tuple(r) for r in rows))


def _candidate_keys(reduced: LatticeBasis, inst: HnpInstance) -> list[int]:
    """Key candidates read from rows whose embedding coordinate is +-K.

    Such a row is +-(beta_0 .., K); beta_0 gives b_0 and b_0 the key.
    """
    n = inst.modulus
    c = _centre(inst)
    kannan = max(1, c)
    t0, u0 = hnp_coefficients(inst)[0]
    t0_inv = inverse_mod(t0, n)
    out = []
    for row in reduced.rows:
        if abs(row[-1]) == kannan:
            beta0 = row[0] if row[-1] > 0 else -row[0]
            cand = (beta0 + c - u0) * t0_inv % n
            if cand and cand not in out:
                out.append(cand)
    return out


def recover_key(
    inst: HnpInstance,
    curve: CurveParams,
    public: ProjectivePoint,
    strategy: str = "direct",
    *,
    max_tries: int = 20,
    rng: random.Random | None = None,
) -> int:
    """Recover d with d*G == public from the instance, or fail loudly.

    ``direct`` runs one reduction over all samples.  ``subset_retry``
    tolerates occasional bad samples by re-solving on random signature
    subsets; it needs an instance with enough redundancy to drop rows.
    Every candidate is verified against the public point, so a returned
    key is always correct.
    """
    if strategy not in ("direct", "subset_retry"):
        raise ConfigError(f"unknown strategy {strategy!r}")

    def attempt(sub: HnpInstance) -> int | None:
        reduced = lll_reduce(build_lattice(sub))
        for cand in _candidate_keys(reduced, sub):
            if fast_multiply(cand, curve.generator, curve) == public:
                return cand
        return None

    found = attempt(inst)
    if found is not None:
        return found
    if strategy == "direct":
        raise RecoveryFailed("no reduced row verified against the public key")
    if rng is None:
        rng = random.Random(0)
    m = len(inst.samples)
    # Smallest subset that still pins the key, with a safety margin.
    min_size = max(2, -(-(curve.n.bit_length() + 40) // inst.leak_bits))
    min_size = min(min_size, m)
    tried = {tuple(range(m))}
    for _ in range(max_tries):
        size = rng.randint(min_size, m)
        chosen = tuple(sorted(rng.sample(range(m), size)))
        if chosen in tried:
            continue
        tried.add(chosen)
        sub = HnpInstance(
            modulus=inst.modulus,
            samples=tuple(inst.samples[i] for i in chosen),
        )
        found = attempt(sub)
        if found is not None:
            return found
    raise RecoveryFailed(
        f"no verifying key after {max_tries} subset retries"
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Measure the recovery success rate for one parameter combination.

    Per trial: fresh key, ``signature_count`` signatures with known
    nonces, the low ``leak_bits`` of each nonce flipped independently at
    ``error_rate``, then an attempted recovery.  Trials use independent
    derived seeds, so results do not depend on evaluation order.
    """
    seed_source = random.Random(cfg.seed)
    trial_seeds = [seed_source.getrandbits(64) for _ in range(cfg.trials)]
    n = cfg.curve.n
    successes = 0
    elapsed = 0.0
    for trial_seed in trial_seeds:
        rng = random.Random(trial_seed)
        key = keygen(cfg.curve, rng)
        records = []
        for _ in range(cfg.signature_count):
            digest = rng.randrange(1, n)
            sig, nonce = sign(digest, key, rng)
            known = nonce.k.value % (1 << cfg.leak_bits)
            for bit in range(cfg.leak_bits):
                if rng.random() < cfg.error_rate:
                    known ^= 1 << bit
            records.append((sig, known))
        inst = build_hnp(records, cfg.curve, cfg.leak_bits)
        start = time.perf_counter()
        try:
            recover_key(
                inst,
                cfg.curve,
                key.Q,
                cfg.strategy,
                max_tries=cfg.max_tries,
                rng=rng,
            )
            successes += 1
        except RecoveryFailed:
            pass
        elapsed += time.perf_counter() - start
    return ExperimentResult(
        config=cfg,
        successes=successes,
        mean_seconds=elapsed / cfg.trials,
    )


def write_results_csv(
    results: Sequence[ExperimentResult],
    path: Path | str,
) -> None:
    """Success-rate rows in the shape behind a success-vs-error plot.

    Only seed-determined values are written, so repeated runs produce
    identical bytes; wall-clock times belong in ``timing.txt``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("leak_bits", "signatures", "error_rate", "trials", "successes"))
        for res in results:
            cfg = res.config
            writer.writerow((
                cfg.leak_bits,
                cfg.signature_count,
                f"{cfg.error_rate:.6g}",
                cfg.trials,
                res.successes,
            ))
