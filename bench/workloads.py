"""The benchmark's workloads: one op each, with the check of its output.

An op calls into nonce_lab the way a user does: the CLI in-process for
``attack`` and ``simulate``/``assess``, the library for the lattice trial
and the curve round trip.  Every call goes through a module attribute
(``cli.main``, ``ecdsa.sign``, ...) so that the traced run's wrappers see
it.  An op raises ``CheckFailed`` when the program's output is wrong and
``ProgramError`` when the program refuses with exit 1; the caller counts
either as a failed op.  A failed check makes the run incorrect; so do too
many failed ops, or too few recovered keys (see ``run.problems``).

``smoke=True`` selects the smallest inputs (secp128r1 in place of
secp521r1, 64-window campaigns) for the harness's own test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from nonce_lab import cli, ecdsa, ff_curve, recover


class CheckFailed(Exception):
    """The program ran but its output is wrong."""


class ProgramError(Exception):
    """The program stopped with an error (exit 1) instead of an output."""


@dataclass
class Outcome:
    # Whether the op recovered the private key; None where the workload
    # does not attempt recovery.
    success: bool | None = None
    # Deterministic values read from the program's outputs.
    counters: dict[str, float] = field(default_factory=dict)


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def attack(op_seed: int, workdir: Path, smoke: bool) -> Outcome:
    """``nonce-lab attack`` with defaults: ladder, plain swap, fresh model."""
    curve = "secp128r1" if smoke else "secp521r1"
    code, _ = _cli("attack", "--curve", curve, "--seed", str(op_seed), "--out", str(workdir))
    if code == 1:
        raise ProgramError("attack exited 1")
    if code not in (0, 2):
        raise CheckFailed(f"attack exited {code}")
    summary = json.loads((workdir / "summary.json").read_text())
    bits = ff_curve.get_curve(curve).n.bit_length()
    if summary["bits_total"] != bits:
        raise CheckFailed(f"summary reports {summary['bits_total']} bits, expected {bits}")
    if (code == 0) != summary["key_recovered"]:
        raise CheckFailed(f"exit {code} disagrees with key_recovered={summary['key_recovered']}")
    return Outcome(
        success=summary["key_recovered"],
        counters={"analysis.conds_correct": summary["conds_correct"]},
    )


_ASSESSMENT = re.compile(r"max_abs_t=(\S+) .* verdict=(\w+)")


def leakage(op_seed: int, workdir: Path, smoke: bool) -> Outcome:
    """One assessment round: simulate then assess each swap variant."""
    curve, count = ("secp128r1", 64) if smoke else ("secp521r1", 2000)
    counters = {}
    for variant in ("plain", "libgcrypt", "masked", "combined"):
        out = workdir / variant
        code, _ = _cli(
            "simulate", "--shape", "windows", "--count", str(count),
            "--variant", variant, "--curve", curve,
            "--seed", str(op_seed), "--out", str(out),
        )
        if code != 0:
            raise ProgramError(f"simulate {variant} exited {code}")
        code, text = _cli("assess", "--traces", str(out / "traces.trc"), "--out", str(out))
        if code != 0:
            raise ProgramError(f"assess {variant} exited {code}")
        match = _ASSESSMENT.search(text)
        if match is None:
            raise CheckFailed(f"assess {variant} printed no verdict: {text!r}")
        if variant == "combined":
            counters["analysis.combined_max_abs_t"] = float(match.group(1))
        elif match.group(2) != "LEAKING":
            raise CheckFailed(f"{variant} not flagged LEAKING: {text.strip()}")
    return Outcome(counters=counters)


def lattice(op_seed: int, workdir: Path, smoke: bool) -> Outcome:
    """One ``run_experiment`` trial of the l=100 m=7 e=0 direct cell."""
    curve, leak_bits, signatures = ("secp128r1", 64, 4) if smoke else ("secp521r1", 100, 7)
    cfg = recover.ExperimentConfig(
        curve=ff_curve.get_curve(curve),
        leak_bits=leak_bits,
        signature_count=signatures,
        error_rate=0.0,
        trials=1,
        seed=op_seed,
        strategy="direct",
    )
    result = recover.run_experiment(cfg)
    return Outcome(success=result.successes == 1)


ROUNDTRIP_CURVES = ("secp521r1", "secp128r1", "wei25519", "toy16")


def roundtrip(op_seed: int, workdir: Path, smoke: bool) -> Outcome:
    """Untraced multipliers agree; sign/verify/recover round-trip."""
    rng = random.Random(op_seed)
    for name in ROUNDTRIP_CURVES:
        curve = ff_curve.get_curve(name)
        G = ff_curve.ProjectivePoint.from_affine(*curve.generator, curve.field)
        k = rng.randrange(1, curve.n)
        scalar = ff_curve.Scalar.for_curve(k, curve)
        by_ladder = ff_curve.montgomery_ladder(scalar, curve.generator, curve)
        by_daa = ff_curve.double_and_always_add(scalar, G, curve)
        by_reference = ff_curve.reference_multiply(k, G, curve)
        if not by_ladder == by_daa == by_reference:
            raise CheckFailed(f"{name}: multipliers disagree for k={k:#x}")
        key = ecdsa.keygen(curve, rng)
        digest = rng.randrange(1, curve.n)
        for multiplier in ("ladder", "daa"):
            sig, nonce = ecdsa.sign(digest, key, rng, multiplier)
            if not ecdsa.verify(sig, key.Q, curve):
                raise CheckFailed(f"{name}: {multiplier} signature does not verify")
            if ecdsa.recover_private_key(sig, nonce.k.value, curve) != key.d:
                raise CheckFailed(f"{name}: {multiplier} nonce does not give the key")
    return Outcome()


WORKLOADS = {
    "attack_p521": attack,
    "leakage_assess": leakage,
    "lattice_hnp": lattice,
    "curve_roundtrip": roundtrip,
}
