"""Plaintext and ciphertext objects of the simulated BFV scheme.

A :class:`Plaintext` is a batched vector of slot values (integers mod ``t``).
A :class:`Ciphertext` additionally tracks its remaining *noise budget* (in
bits) and its *size* (number of polynomial components; multiplication grows
it until relinearization shrinks it back to 2), mirroring SEAL's behaviour.

The slot data itself is stored exactly, so decrypting and decoding a
ciphertext always yields the true computation result; noise exhaustion is
reported through the budget rather than by corrupting slots, which lets the
test-suite verify both correctness and noise accounting independently.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["Plaintext", "Ciphertext"]


class Plaintext:
    """A batched plaintext: ``slot_count`` integers modulo ``plain_modulus``."""

    __slots__ = ("slots", "plain_modulus")

    def __init__(self, slots: Sequence[int], plain_modulus: int) -> None:
        values = list(slots)
        try:
            array = np.asarray(values, dtype=np.int64)
        except OverflowError:
            # Python ints beyond int64: reduce mod t before the cast (the
            # residues are congruent, so the decoded slots are unchanged).
            array = np.asarray(
                [int(value) % plain_modulus for value in values], dtype=np.int64
            )
        self.slots = array % plain_modulus
        self.plain_modulus = int(plain_modulus)

    @property
    def slot_count(self) -> int:
        return int(self.slots.shape[0])

    def to_list(self) -> List[int]:
        """Slot values as plain Python ints."""
        return [int(value) for value in self.slots]

    def is_zero(self) -> bool:
        """True when every slot is zero."""
        return bool(np.all(self.slots == 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plaintext):
            return NotImplemented
        return (
            self.plain_modulus == other.plain_modulus
            and self.slots.shape == other.slots.shape
            and bool(np.all(self.slots == other.slots))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(str(int(v)) for v in self.slots[:8])
        return f"Plaintext([{head}...], t={self.plain_modulus})"


class Ciphertext:
    """A simulated BFV ciphertext.

    Attributes
    ----------
    slots:
        The (exact) batched values the ciphertext encrypts.
    noise_budget:
        Remaining invariant noise budget in bits.  Reaching zero means the
        ciphertext can no longer be decrypted correctly.
    size:
        Number of polynomial components.  Fresh ciphertexts have size 2;
        every ciphertext-ciphertext multiplication adds one until
        relinearization restores size 2.
    """

    __slots__ = ("slots", "plain_modulus", "noise_budget", "size", "mult_count")

    def __init__(
        self,
        slots: Sequence[int] | np.ndarray,
        plain_modulus: int,
        noise_budget: float,
        size: int = 2,
        mult_count: int = 0,
    ) -> None:
        self.slots = np.asarray(slots, dtype=np.int64) % plain_modulus
        self.plain_modulus = int(plain_modulus)
        self.noise_budget = float(noise_budget)
        self.size = int(size)
        self.mult_count = int(mult_count)

    @property
    def slot_count(self) -> int:
        return int(self.slots.shape[0])

    def copy(self) -> "Ciphertext":
        """Deep copy (slot data and noise state)."""
        return Ciphertext(
            self.slots.copy(),
            self.plain_modulus,
            self.noise_budget,
            self.size,
            self.mult_count,
        )

    def is_transparent(self) -> bool:
        """True when the ciphertext trivially encrypts zero in every slot."""
        return bool(np.all(self.slots == 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(str(int(v)) for v in self.slots[:8])
        return (
            f"Ciphertext([{head}...], noise_budget={self.noise_budget:.1f} bits, "
            f"size={self.size})"
        )
