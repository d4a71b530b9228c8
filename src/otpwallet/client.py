"""The client party: stores leaves, builds proofs and transaction payloads.

The client keeps only public data: the Merkle tree over the N/P leaves of
the current generation and the tree of the staged next generation during a
rotation, plus the metadata needed to talk to one wallet contract. Every
root, sublayer and proof is a read of those levels, so no payload costs a
hash. Every tree the client holds comes from `merkle.generation_levels`,
given the seed (secure mode) or the authenticator's leaf file (insecure
mode): both bootstraps ask it for generation 0, `stage_rotation` for
eta + 1, and it refuses a leaf file of any other generation. The secure
bootstrap then forgets the seed and every OTP. The CLI's restore hands the
store a tree source instead (the seed's tree at the restored generation,
through the same function), which the store calls for its levels on their
first read and then drops, so a command that reads no proof builds no tree.
An init is `CONFIRMATION_DEPTH` blocks deep before the client reveals the
OTP that confirms it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

# Trees come from merkle.generation_levels, which builds them through the
# module global merkle.build_levels, the binding bench/tracing.py wraps.
from . import merkle
from .hashing import DEFAULT_BASE_HASH, Digest, DomainError, HashFn, Seed, truncated_hash
from .merkle import MerkleProof, SubtreeLayer, TreeParams, beta, path, sublayer_in
# Not called here; kept bound because bench/tracing.py wraps them on this module.
from .merkle import all_leaves, gen_proof, proof_to_sublayer, reduce_mt, sublayer_of, subtree_root_proof  # noqa: F401

CONFIRMATION_DEPTH = 12


@dataclass
class ConfirmPayload:
    otp: Digest
    proof: MerkleProof
    op_id: int


@dataclass
class SubtreePayload:
    next_sublayer: SubtreeLayer
    otp: Digest
    proof_otp: MerkleProof      # full height, against the parent root
    proof_sr: MerkleProof       # next subtree's root against the parent root
    op_id: int


@dataclass
class NewRootStages:
    h_root_and_otp: Digest               # stage 1
    new_root: Digest                     # stage 2
    otp: Digest                          # stage 3 ...
    proof_otp: MerkleProof
    new_sublayer: SubtreeLayer
    proof_sr: MerkleProof
    op_id: int


@dataclass
class ClientStore:
    # The current generation's tree, leaves first; None until the first read
    # of a store given a tree source.
    levels: list[list[Digest]] | None
    params: TreeParams
    eta: int = 0
    current_subtree: int = 0             # relative to the current generation
    base: HashFn = field(default=DEFAULT_BASE_HASH, repr=False)
    _staged_levels: list[list[Digest]] | None = field(default=None, repr=False)
    tree_source: Callable[[], list[list[Digest]]] | None = field(
        default=None, repr=False)

    # -- bootstrap ---------------------------------------------------------

    @classmethod
    def bootstrap_secure(cls, k: Seed, params: TreeParams,
                         base: HashFn = DEFAULT_BASE_HASH) -> "ClientStore":
        """Derive the tree from the seed; keep no OTP and no seed."""
        return cls(levels=merkle.generation_levels(k, params, 0, base),
                   params=params, base=base)

    @classmethod
    def bootstrap_insecure(cls, leaf_file: str, params: TreeParams,
                           base: HashFn = DEFAULT_BASE_HASH) -> "ClientStore":
        """Ingest generation 0's leaf-export file from the authenticator."""
        return cls(levels=merkle.generation_levels(leaf_file, params, 0, base),
                   params=params, base=base)

    # -- views -------------------------------------------------------------

    def _tree(self) -> list[list[Digest]]:
        """The current generation's levels, from the tree source, which is
        then dropped, on the first read."""
        if self.levels is None:
            self.levels = self.tree_source()
            self.tree_source = None
        return self.levels

    @property
    def leaves(self) -> list[Digest]:
        return self._tree()[0]

    @property
    def root(self) -> Digest:
        return self._tree()[-1][0]

    def sublayer(self, subtree: int) -> SubtreeLayer:
        return sublayer_in(self._tree(), subtree, self.params)

    def sublayer_proof(self, subtree: int) -> MerkleProof:
        return path(self._tree(), subtree, self.params.H_S, self.params.H)

    def constructor_args(self) -> tuple[Digest, SubtreeLayer, MerkleProof]:
        return self.root, self.sublayer(0), self.sublayer_proof(0)

    # -- opID bookkeeping ----------------------------------------------------

    def _relative(self, op_id: int) -> int:
        lo = self.eta * self.params.N
        if not lo <= op_id < lo + self.params.N:
            raise DomainError(
                f"operation {op_id} is outside generation {self.eta}")
        return op_id - lo

    # -- payload builders ----------------------------------------------------

    def build_confirm(self, op_id: int, otp: Digest) -> ConfirmPayload:
        """Proof to the cached sublayer for a regular confirmation."""
        rel = self._relative(op_id)
        subtree = rel // self.params.N_S
        if subtree != self.current_subtree:
            raise DomainError(
                f"operation {op_id} is not in the current subtree "
                f"({subtree} != {self.current_subtree})")
        proof = path(self._tree(), beta(rel, self.params), 0,
                     self.params.H_S - self.params.L_S)
        return ConfirmPayload(otp=otp, proof=proof, op_id=op_id)

    def build_next_subtree(self, op_id: int, otp: Digest) -> SubtreePayload:
        rel = self._relative(op_id)
        if rel % self.params.N_S != self.params.N_S - 1:
            raise DomainError(f"operation {op_id} does not end a subtree")
        if rel % self.params.N == self.params.N - 1:
            raise DomainError(
                f"operation {op_id} ends the parent tree; rotate the root instead")
        nxt = rel // self.params.N_S + 1
        return SubtreePayload(
            next_sublayer=self.sublayer(nxt),
            otp=otp,
            proof_otp=path(self._tree(), beta(rel, self.params), 0,
                           self.params.H),
            proof_sr=self.sublayer_proof(nxt),
            op_id=op_id,
        )

    def stage_rotation(self, source: Seed | str) -> Digest:
        """Prepare the next generation's tree and return its root.

        Secure path: pass the seed (re-entered by the user); insecure
        path: pass the authenticator's exported leaf file for eta + 1.
        """
        self._staged_levels = merkle.generation_levels(
            source, self.params, self.eta + 1, self.base)
        return self._staged_levels[-1][0]

    def build_new_root_stages(self, op_id: int, new_root: Digest,
                              otp: Digest) -> NewRootStages:
        rel = self._relative(op_id)
        if rel % self.params.N != self.params.N - 1:
            raise DomainError(f"operation {op_id} does not end the parent tree")
        staged = self._staged_levels
        if staged is None:
            raise DomainError("no staged next-generation leaves; call stage_rotation")
        if staged[-1][0] != new_root:
            raise DomainError("staged leaves do not match the announced new root")
        # The contract checks stage-3 OTPs against the cached sublayer of
        # the (last) current subtree, so the proof stops at that depth.
        return NewRootStages(
            h_root_and_otp=truncated_hash(new_root + otp,
                                          self.params.digest_bytes, self.base),
            new_root=new_root,
            otp=otp,
            proof_otp=path(self._tree(), beta(rel, self.params), 0,
                           self.params.H_S - self.params.L_S),
            new_sublayer=sublayer_in(staged, 0, self.params),
            proof_sr=path(staged, 0, self.params.H_S, self.params.H),
            op_id=op_id,
        )

    # -- state transitions committed by the protocol runner ------------------

    def advance_subtree(self) -> None:
        if self.current_subtree + 1 >= self.params.subtree_count:
            raise DomainError("no next subtree in this generation")
        self.current_subtree += 1

    def commit_rotation(self) -> None:
        if self._staged_levels is None:
            raise DomainError("no staged rotation to commit")
        self.levels = self._staged_levels
        self._staged_levels = None
        self.eta += 1
        self.current_subtree = 0
