"""The air-gapped device model.

Holds the secret seed, answers OTP queries by operation id, and produces
the displays and exports the bootstrap and rotation protocols need. The
generation counter only ever increases; the seed leaves the device only
through the explicit display_seed operation.

The device keeps the leaves of the last generation it derived, so the
displays and exports of one generation derive its leaves once: an insecure
bootstrap's export and root display, or an insecure rotation's preview and
export of the next generation. They are kept with the generation and the
base hash they were derived with, in a tuple that is replaced and never
changed, so a shallow copy of the device goes on independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import mnemonic
from .hashing import DEFAULT_BASE_HASH, Digest, DomainError, HashFn, Seed, chain_extend, prf, truncated_hash
from .merkle import TreeParams, all_leaves, alpha, beta, dump_leaf_file, reduce_mt


@dataclass
class Authenticator:
    k: Seed
    params: TreeParams
    eta: int = 0
    base: HashFn = field(default=DEFAULT_BASE_HASH, repr=False)
    # (generation, base hash, its leaves) of the last generation derived.
    _derived: tuple[int, HashFn, tuple[Digest, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def get_otp(self, i: int) -> Digest:
        """OTP for operation i of the current generation (0 <= i < N)."""
        if not 0 <= i < self.params.N:
            raise DomainError(f"operation id out of range: {i}")
        start = prf(self.k, self.eta * self.params.leaves + beta(i, self.params),
                    self.params.digest_bytes, self.base)
        return chain_extend(start, 0, alpha(i, self.params), self.base)

    def _leaves(self, eta: int) -> tuple[Digest, ...]:
        """Generation `eta`'s leaves, derived unless they are the last
        generation derived, through the same base hash."""
        derived = self._derived
        if derived is None or derived[0] != eta or derived[1] is not self.base:
            derived = self._derived = (eta, self.base, tuple(
                all_leaves(self.k, self.params, eta, self.base)))
        return derived[2]

    def export_leaves(self) -> str:
        """Leaf-export file for the current generation (microSD transport)."""
        return dump_leaf_file(self._leaves(self.eta), self.params, self.eta)

    def display_root(self) -> Digest:
        return reduce_mt(self._leaves(self.eta), self.base)

    def display_seed(self) -> list[str]:
        """The seed as mnemonic words (the only operation that emits it)."""
        return mnemonic.encode(self.k, self.base)

    def new_parent_preview(self, op_id: int) -> tuple[Digest, Digest]:
        """(R_new, h(R_new || OTP_opID)) for the root-replacement protocol.

        Refuses unless op_id is the last operation of the current tree.
        Does not advance the generation; that happens only on confirmed
        success via advance_generation().
        """
        if op_id % self.params.N != self.params.N - 1:
            raise DomainError(f"operation {op_id} is not the last of a tree")
        new_root = reduce_mt(self._leaves(self.eta + 1), self.base)
        otp = self.get_otp(op_id % self.params.N)
        return new_root, truncated_hash(new_root + otp, self.params.digest_bytes,
                                        self.base)

    def export_next_leaves(self) -> str:
        """Next generation's leaf file, for the insecure rotation path."""
        return dump_leaf_file(self._leaves(self.eta + 1), self.params,
                              self.eta + 1)

    def advance_generation(self) -> None:
        self.eta += 1
