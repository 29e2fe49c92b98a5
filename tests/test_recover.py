"""Lattice key recovery: instance algebra, reduction, end-to-end attacks."""

import random
from fractions import Fraction

import pytest

from nonce_lab.ecdsa import keygen, sign
from nonce_lab.errors import ConfigError, DomainError, RecoveryFailed
from nonce_lab.ff_curve import ProjectivePoint, reference_multiply
from nonce_lab.recover import (
    DEFAULT_DELTA,
    ExperimentConfig,
    ExperimentResult,
    HnpInstance,
    HnpSample,
    LatticeBasis,
    _candidate_keys,
    _float_pass,
    _reduce_pass,
    build_hnp,
    build_lattice,
    hnp_coefficients,
    lll_reduce,
    recover_key,
    run_experiment,
    write_results_csv,
)

from oracles import enumerate_hnp_keys, hermite_normal_form, shortest_vector_2d


def lab_instance(curve, rng, leak_bits, count, *, error_rate=0.0):
    """Sign ``count`` digests and leak each nonce's low bits, maybe noisily."""
    key = keygen(curve, rng)
    records = []
    nonces = []
    for _ in range(count):
        z = rng.randrange(1, curve.n)
        sig, nonce = sign(z, key, rng)
        known = nonce.k.value % (1 << leak_bits)
        for bit in range(leak_bits):
            if rng.random() < error_rate:
                known ^= 1 << bit
        records.append((sig, known))
        nonces.append(nonce.k.value)
    return build_hnp(records, curve, leak_bits), key, nonces


def recentred_parts(inst, nonces):
    """The hidden nonce parts b_i shifted by the middle of their range,
    n >> (l+1), from the true nonces."""
    leak = inst.leak_bits
    centre = inst.modulus >> (leak + 1)
    return [((k - s.known_lsb) >> leak) - centre for k, s in zip(nonces, inst.samples)]


def gram_potential(rows):
    """Product of the leading Gram determinants, exact.

    This is the quantity every LLL swap strictly decreases; reduction must
    never increase it.
    """
    dim = len(rows)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    potential = 1
    for k in range(1, dim + 1):
        sub = [[Fraction(gram[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if sub[r][col] != 0), None)
            assert pivot is not None, "test basis rows must be independent"
            if pivot != col:
                sub[col], sub[pivot] = sub[pivot], sub[col]
                det = -det
            det *= sub[col][col]
            for r in range(col + 1, k):
                scale = sub[r][col] / sub[col][col]
                sub[r] = [x - scale * y for x, y in zip(sub[r], sub[col])]
        potential *= det
    return potential


def assert_lll_reduced(rows, delta):
    """Rational Gram-Schmidt from scratch: every |mu| is at most 1/2 and
    every consecutive pair meets the Lovasz inequality at ``delta``."""
    dim = len(rows)
    b = [list(map(Fraction, r)) for r in rows]
    star = [row[:] for row in b]
    mu = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i):
            denom = sum(x * x for x in star[j])
            mu[i][j] = sum(x * y for x, y in zip(b[i], star[j])) / denom
            star[i] = [x - mu[i][j] * y for x, y in zip(star[i], star[j])]
    for i in range(dim):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for k in range(1, dim):
        lhs = sum(x * x for x in star[k]) + mu[k][k - 1] ** 2 * sum(
            x * x for x in star[k - 1]
        )
        assert lhs >= delta * sum(x * x for x in star[k - 1])


class TestInstanceAlgebra:
    def test_congruence_matches_signing_ground_truth(self, toy, rng):
        leak = 10
        inst, key, nonces = lab_instance(toy, rng, leak, 6)
        pairs = hnp_coefficients(inst)
        for (t, u), k, sample in zip(pairs, nonces, inst.samples):
            assert sample.known_lsb == k % (1 << leak)
            b = (k - sample.known_lsb) >> leak
            assert (t * key.d + u) % toy.n == b % toy.n

    def test_full_leak_collapses_to_linear_equation(self, toy, rng):
        leak = toy.n.bit_length()
        inst, key, _ = lab_instance(toy, rng, leak, 4)
        for t, u in hnp_coefficients(inst):
            assert (t * key.d + u) % toy.n == 0

    def test_single_bit_leak_is_the_minimum(self):
        with pytest.raises(DomainError):
            HnpSample(r=5, s=7, z=1, known_lsb=0, leak_bits=0)
        with pytest.raises(DomainError):
            HnpSample(r=5, s=7, z=1, known_lsb=2, leak_bits=1)
        HnpSample(r=5, s=7, z=1, known_lsb=1, leak_bits=1)

    def test_instance_validation(self):
        sample = HnpSample(r=5, s=7, z=1, known_lsb=3, leak_bits=4)
        other = HnpSample(r=5, s=7, z=1, known_lsb=3, leak_bits=5)
        with pytest.raises(DomainError):
            HnpInstance(modulus=97, samples=())
        with pytest.raises(DomainError):
            HnpInstance(modulus=1, samples=(sample,))
        with pytest.raises(DomainError):
            HnpInstance(modulus=97, samples=(sample, other))
        # A valid ECDSA signature has 1 <= r, s < n; anything else would
        # also leave the lattice's pivot without an inverse.
        for r, s in ((0, 7), (97, 7), (200, 7), (5, 0), (5, 97), (5, -1)):
            bad = HnpSample(r=r, s=s, z=1, known_lsb=3, leak_bits=4)
            for samples in ((bad,), (sample, bad)):
                with pytest.raises(DomainError):
                    HnpInstance(modulus=97, samples=samples)
        HnpInstance(modulus=97, samples=(sample, HnpSample(96, 96, 0, 0, 4)))
        assert HnpInstance(modulus=97, samples=(sample,)).leak_bits == 4

    def test_build_hnp_rejects_empty(self, toy):
        with pytest.raises(DomainError):
            build_hnp([], toy, 4)

    def test_enumeration_agrees_with_coefficients(self, toy, rng):
        # Independent route: scan every d, keep those whose implied nonce
        # carries the leaked bits.  Must pin exactly the lab key.
        inst, key, _ = lab_instance(toy, rng, 12, 3)
        assert enumerate_hnp_keys(inst, toy) == [key.d]


class TestLatticeConstruction:
    def test_planted_vector_is_in_the_lattice(self, toy, rng):
        leak = 12
        inst, _, nonces = lab_instance(toy, rng, leak, 3)
        basis = build_lattice(inst)
        n = toy.n
        kannan = max(1, n >> (leak + 1))
        betas = recentred_parts(inst, nonces)
        planted = (*betas, kannan)
        # The combination is forced: the t' row (second to last) gets
        # coefficient beta_0, the u' row coefficient 1, and row i-1 (the
        # n*e_i row) absorbs coordinate i's modular wraparound.
        m = len(betas)
        assert basis.dimension == m + 1
        tail = [0] * (m + 1)
        for j, x in enumerate(basis.rows[m - 1]):
            tail[j] += betas[0] * x
        for j, x in enumerate(basis.rows[m]):
            tail[j] += x
        coeffs = []
        for i in range(1, m):
            num = betas[i] - tail[i]
            assert num % n == 0
            coeffs.append(num // n)
        rebuilt = tail[:]
        for i, c in enumerate(coeffs):
            for j, x in enumerate(basis.rows[i]):
                rebuilt[j] += c * x
        assert tuple(rebuilt) == planted
        assert all(abs(beta) <= kannan + 1 for beta in betas)

    def test_determinant_is_nonzero(self, toy, rng):
        inst, _, _ = lab_instance(toy, rng, 12, 3)
        basis = build_lattice(inst)
        hnf = hermite_normal_form(basis.rows)
        volume = 1
        for i in range(basis.dimension):
            volume *= hnf[i][i]
        assert volume == toy.n ** 2 * (toy.n >> 13)

    def test_weight_doubling_still_recovers(self, toy, rng):
        # The Kannan constant weighs the embedding coordinate against the
        # hidden parts; doubling it must still leave the key readable.
        inst, key, _ = lab_instance(toy, rng, 12, 3)
        n = toy.n
        centre = n >> 13
        default = build_lattice(inst)
        assert default.rows[-1][-1] == centre
        doubled = LatticeBasis(tuple((*row[:-1], 2 * row[-1]) for row in default.rows))
        t0, u0 = hnp_coefficients(inst)[0]
        G = ProjectivePoint.from_affine(*toy.generator, toy.field)
        for basis, kannan in ((default, centre), (doubled, 2 * centre)):
            hits = []
            for row in lll_reduce(basis).rows:
                if abs(row[-1]) == kannan:
                    beta0 = row[0] if row[-1] > 0 else -row[0]
                    cand = (beta0 + centre - u0) * pow(t0, -1, n) % n
                    if cand and reference_multiply(cand, G, toy) == key.Q:
                        hits.append(cand)
            assert key.d in hits

    def test_shortest_vector_on_underdetermined_instance(self, toy, rng):
        # One signature, two bits short of the full nonce: enumeration of
        # the tiny search space is feasible and must match the instance.
        leak = toy.n.bit_length() - 2
        inst, key, nonces = lab_instance(toy, rng, leak, 1)
        t, u = hnp_coefficients(inst)[0]
        candidates = set()
        for b in range(toy.n >> leak, -1, -1):
            d = (b - u) * pow(t, -1, toy.n) % toy.n
            if d:
                candidates.add(d)
        assert key.d in candidates
        assert (nonces[0] - inst.samples[0].known_lsb) >> leak <= toy.n >> leak

    def test_basis_validation(self):
        with pytest.raises(DomainError):
            LatticeBasis(rows=())
        with pytest.raises(DomainError):
            LatticeBasis(rows=((1, 0), (0,)))
        with pytest.raises(DomainError):
            LatticeBasis(rows=((1,), (2,)))
        # A pivot without an inverse mod n never reaches build_lattice.
        with pytest.raises(DomainError):
            build_lattice(
                HnpInstance(
                    modulus=97,
                    samples=(HnpSample(r=0, s=7, z=1, known_lsb=0, leak_bits=2),),
                ),
            )

    def test_full_leak_keeps_the_kannan_constant_positive(self, toy, p521, rng):
        # l = bitlen(n): every b_i is 0, so the centre is 0; a Kannan
        # constant of 0 would make the last row dependent.
        for curve in (toy, p521):
            leak = curve.n.bit_length()
            inst, key, _ = lab_instance(curve, rng, leak, 3)
            basis = build_lattice(inst)
            assert basis.rows[-1][-1] == 1
            reduced = lll_reduce(basis)
            assert key.d in _candidate_keys(reduced, inst)
            assert recover_key(inst, curve, key.Q) == key.d

    def test_single_signature_lattice_is_two_dimensional(self, toy, p521, rng):
        # m = 1 leaves nothing to eliminate d against: the result is the
        # key or RecoveryFailed, never another error.
        outcomes = set()
        for curve in (toy, p521):
            width = curve.n.bit_length()
            for leak in (1, 2, width // 2, width - 2, width - 1, width):
                inst, key, _ = lab_instance(curve, rng, leak, 1)
                assert build_lattice(inst).dimension == 2
                try:
                    found = recover_key(inst, curve, key.Q)
                except RecoveryFailed:
                    outcomes.add("failed")
                else:
                    assert found == key.d
                    outcomes.add("found")
            assert recover_key(inst, curve, key.Q) == key.d  # leak == width
        assert outcomes == {"found", "failed"}

    def test_candidates_follow_the_embedding_sign(self, p521, rng):
        # LLL may return the planted vector with either sign; a row ending
        # in -K holds -beta_0.
        inst, key, nonces = lab_instance(p521, rng, 100, 2)
        planted = (*recentred_parts(inst, nonces), p521.n >> 101)
        for row in (planted, tuple(-v for v in planted)):
            assert _candidate_keys(LatticeBasis((row,)), inst) == [key.d]


class TestReduction:
    def test_sorted_orthogonal_basis_is_fixed(self):
        basis = LatticeBasis(rows=((2, 0, 0), (0, 3, 0), (0, 0, 5)))
        assert lll_reduce(basis).rows == basis.rows

    def test_classic_two_dimensional_case(self):
        basis = LatticeBasis(rows=((201, 37), (1648, 297)))
        reduced = lll_reduce(basis)
        assert reduced.rows == ((1, 32), (40, 1))
        # Exhaustive check: no lattice vector beats the first reduced row.
        vec, norm = shortest_vector_2d(basis.rows)
        assert norm == sum(x * x for x in reduced.rows[0])
        assert vec in ((1, 32), (-1, -32))

    def test_potential_never_increases(self, rng):
        for _ in range(5):
            rows = tuple(
                tuple(rng.randrange(-50, 51) for _ in range(4)) for _ in range(4)
            )
            before = gram_potential(rows)
            if before == 0:
                continue
            reduced = lll_reduce(LatticeBasis(rows=rows))
            assert gram_potential(reduced.rows) <= before

    def test_same_lattice_after_reduction(self, toy, rng):
        inst, _, _ = lab_instance(toy, rng, 12, 3)
        basis = build_lattice(inst)
        reduced = lll_reduce(basis)
        assert hermite_normal_form(reduced.rows) == hermite_normal_form(basis.rows)

    def test_lovasz_condition_holds(self):
        rows = ((47, -12, 3), (5, 81, -9), (-31, 6, 44))
        reduced = lll_reduce(LatticeBasis(rows=rows), Fraction(99, 100))
        assert_lll_reduced(reduced.rows, Fraction(99, 100))

    def test_p521_hnp_cell_is_reduced(self, p521, rng):
        # The l=100 m=7 acceptance cell: dimension 8, entries of at most n
        # (521 bits).
        inst, _, nonces = lab_instance(p521, rng, 100, 7)
        basis = build_lattice(inst)
        assert basis.dimension == 8
        assert all(0 <= v <= p521.n for row in basis.rows for v in row)
        reduced = lll_reduce(basis)
        assert_lll_reduced(reduced.rows, DEFAULT_DELTA)
        assert hermite_normal_form(reduced.rows) == hermite_normal_form(basis.rows)
        planted = (*recentred_parts(inst, nonces), p521.n >> 101)
        assert any(row in (planted, tuple(-v for v in planted)) for row in reduced.rows)

    def test_entries_beyond_double_range_are_reduced(self, p521, rng):
        # The hidden-part coordinates scaled by 2^600 give 1121-bit entries:
        # Gram entries near 2^2242 only fit a double after scaling.
        inst, _, _ = lab_instance(p521, rng, 300, 2)
        basis = LatticeBasis(tuple(
            (*(v << 600 for v in row[:-1]), row[-1]) for row in build_lattice(inst).rows
        ))
        assert max(abs(v) for row in basis.rows for v in row).bit_length() > 1100
        reduced = lll_reduce(basis)
        assert_lll_reduced(reduced.rows, DEFAULT_DELTA)
        assert hermite_normal_form(reduced.rows) == hermite_normal_form(basis.rows)
        # The floating-point pass does the whole job: the exact pass after
        # it finds nothing left to swap.
        rows = [list(r) for r in basis.rows]
        transform = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        assert _float_pass(rows, transform, float(DEFAULT_DELTA)) > 0
        assert _reduce_pass(rows, transform, 99, 100) == 0

    def test_dependent_rows_rejected(self):
        basis = LatticeBasis(rows=((1, 2), (2, 4)))
        with pytest.raises(DomainError):
            lll_reduce(basis)

    def test_delta_bounds(self):
        basis = LatticeBasis(rows=((1, 0), (0, 1)))
        for bad in (Fraction(1, 4), Fraction(1), 0.1, 1.5):
            with pytest.raises(ConfigError):
                lll_reduce(basis, bad)
        assert lll_reduce(basis, Fraction(1, 3)).rows == basis.rows


class TestRecovery:
    def test_toy_recovery_matches_enumeration(self, toy, rng):
        inst, key, _ = lab_instance(toy, rng, 12, 3)
        found = recover_key(inst, toy, key.Q)
        assert found == key.d
        assert enumerate_hnp_keys(inst, toy) == [found]

    def test_p521_two_signatures(self, p521, rng):
        inst, key, _ = lab_instance(p521, rng, 300, 2)
        assert recover_key(inst, p521, key.Q) == key.d

    def test_one_bit_is_hopeless(self, toy, rng):
        inst, key, _ = lab_instance(toy, rng, 1, 1)
        with pytest.raises(RecoveryFailed):
            recover_key(inst, toy, key.Q)

    def test_half_error_rate_defeats_recovery(self, p521, rng):
        inst, key, _ = lab_instance(p521, rng, 300, 2, error_rate=0.5)
        with pytest.raises(RecoveryFailed):
            recover_key(inst, p521, key.Q)

    def test_subset_retry_survives_one_bad_signature(self, p521, rng):
        leak = 150
        inst, key, _ = lab_instance(p521, rng, leak, 5)
        poisoned = list(inst.samples)
        bad = poisoned[2]
        poisoned[2] = HnpSample(
            bad.r, bad.s, bad.z, bad.known_lsb ^ 0b10110, leak
        )
        broken = HnpInstance(modulus=inst.modulus, samples=tuple(poisoned))
        with pytest.raises(RecoveryFailed):
            recover_key(broken, p521, key.Q, "direct")
        found = recover_key(
            broken, p521, key.Q, "subset_retry",
            max_tries=40, rng=random.Random(3),
        )
        assert found == key.d

    def test_unknown_strategy_rejected(self, toy, rng):
        inst, key, _ = lab_instance(toy, rng, 12, 3)
        with pytest.raises(ConfigError):
            recover_key(inst, toy, key.Q, "guess")

    def test_returned_key_is_always_verified(self, toy, rng):
        # Recovery against the WRONG public point must fail, never return
        # a plausible-but-unchecked candidate.
        inst, key, _ = lab_instance(toy, rng, 12, 3)
        other = keygen(toy, rng)
        assert other.d != key.d
        with pytest.raises(RecoveryFailed):
            recover_key(inst, toy, other.Q)


class TestExperiment:
    def test_config_validation(self, toy):
        good = dict(
            curve=toy, leak_bits=12, signature_count=3, error_rate=0.0,
            trials=2, seed=1,
        )
        ExperimentConfig(**good)
        for field, value in (
            ("leak_bits", 0),
            ("leak_bits", toy.n.bit_length() + 1),
            ("signature_count", 0),
            ("error_rate", -0.1),
            ("error_rate", 1.01),
            ("trials", 0),
            ("strategy", "luck"),
            ("max_tries", 0),
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**{**good, field: value})

    def test_clean_toy_cell_succeeds(self, toy):
        cfg = ExperimentConfig(
            curve=toy, leak_bits=12, signature_count=3, error_rate=0.0,
            trials=4, seed=7,
        )
        result = run_experiment(cfg)
        assert result.successes == 4
        assert result.successes / result.config.trials == 1.0
        assert result.mean_seconds > 0.0

    def test_total_corruption_fails(self, toy):
        cfg = ExperimentConfig(
            curve=toy, leak_bits=12, signature_count=3, error_rate=1.0,
            trials=4, seed=7,
        )
        assert run_experiment(cfg).successes == 0

    def test_same_seed_same_outcomes(self, toy):
        cfg = ExperimentConfig(
            curve=toy, leak_bits=12, signature_count=3, error_rate=0.3,
            trials=6, seed=123,
        )
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.successes == second.successes

    def test_csv_round_trip(self, toy, tmp_path):
        results = [
            ExperimentResult(
                config=ExperimentConfig(
                    curve=toy, leak_bits=12, signature_count=3,
                    error_rate=0.25, trials=8, seed=1,
                ),
                successes=6,
                mean_seconds=0.0123456,
            )
        ]
        path = tmp_path / "grid.csv"
        write_results_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "leak_bits,signatures,error_rate,trials,successes"
        assert lines[1] == "12,3,0.25,8,6"
        write_results_csv(results, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
