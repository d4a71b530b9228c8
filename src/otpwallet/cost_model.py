"""Parametric cost model: metering, per-transfer averages, parameter sweeps.

Unit costs are configuration with EVM-flavored magnitudes; the model
reproduces the structure of the trade-offs (cache depth vs deployment
prepayment, chain length vs confirm work), not platform-exact numbers.
The closed forms below restate the wallet contract's primitive-counting
conventions; tests hold them against actual metered runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contract import BASE_STATE_WORDS, OP_RECORD_WORDS, CallTrace
from .merkle import TreeParams
from .security_calc import required_bits


@dataclass(frozen=True)
class CostTable:
    hash_eval: float = 42.0          # keccak-style: base + one word
    word_new: float = 20000.0        # first write to a storage word
    word_update: float = 5000.0      # overwrite of a storage word
    word_read: float = 200.0
    sig_verify: float = 3000.0
    tx_base: float = 21000.0
    payload_byte: float = 16.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"negative unit cost: {name}")


DEFAULT_TABLE = CostTable()


@dataclass
class Counts:
    hashes: int = 0
    sload: int = 0
    sstore_new: int = 0
    sstore_update: int = 0
    sig_verifies: int = 0
    payload_bytes: int = 0

    def cost(self, table: CostTable) -> float:
        return (self.hashes * table.hash_eval
                + self.sload * table.word_read
                + self.sstore_new * table.word_new
                + self.sstore_update * table.word_update
                + self.sig_verifies * table.sig_verify
                + self.payload_bytes * table.payload_byte
                + table.tx_base)

    @classmethod
    def from_trace(cls, t: CallTrace) -> "Counts":
        return cls(t.hashes, t.sload, t.sstore_new, t.sstore_update,
                   t.sig_verifies, t.payload_bytes)


@dataclass
class CostReport:
    per_call: list[tuple[str, Counts, float]]
    deployment: float = 0.0
    init_mean: float = 0.0
    confirm_mean: float = 0.0
    ot_cost: float = 0.0


def meter(traces: list[CallTrace], table: CostTable = DEFAULT_TABLE,
          n_ops: int | None = None) -> CostReport:
    """Map a run's call traces onto the cost table."""
    per_call = [(t.call, Counts.from_trace(t), Counts.from_trace(t).cost(table))
                for t in traces]
    deploy = sum(c for name, _, c in per_call
                 if name in ("constructor", "deploy_wallet"))
    inits = [c for name, _, c in per_call if name == "init_op"]
    confirms = [c for name, _, c in per_call if name == "confirm_op"]
    report = CostReport(per_call, deployment=deploy)
    if inits:
        report.init_mean = sum(inits) / len(inits)
    if confirms:
        report.confirm_mean = sum(confirms) / len(confirms)
    n = n_ops or max(len(inits), 1)
    report.ot_cost = (report.init_mean + report.confirm_mean
                      + (deploy / n if n else 0.0))
    return report


# ---------------------------------------------------------------------------
# Closed forms mirroring the contract's counting conventions

def _sizes(params: TreeParams) -> tuple[int, int]:
    return params.digest_bytes, 2 ** params.L_S


def deploy_counts(params: TreeParams) -> Counts:
    db, cache_nodes = _sizes(params)
    fold = params.H - params.H_S
    return Counts(
        hashes=1 + (cache_nodes - 1) + fold,
        sstore_new=BASE_STATE_WORDS + cache_nodes,
        payload_bytes=4 + db + 32 + (cache_nodes * db + 4) + fold * db,
    )


def init_counts(params: TreeParams) -> Counts:
    del params
    return Counts(sload=2, sstore_new=OP_RECORD_WORDS, sstore_update=1,
                  sig_verifies=1, payload_bytes=4 + 20 + 20 + 4 + 1)


def confirm_counts(i: int, params: TreeParams) -> Counts:
    """A transfer confirmation at operation id i (no daily limit set)."""
    db = params.digest_bytes
    a = ((i % params.N_S) * params.P) // params.N_S
    proof_len = params.H_S - params.L_S
    return Counts(
        hashes=(a + 1) + proof_len,
        sload=7, sstore_update=5,
        payload_bytes=4 + 20 + db + proof_len * db + 4,
    )


def confirm_mean_counts(params: TreeParams) -> tuple[Counts, float]:
    """(fixed counts, exact mean hash count) for one confirmation.

    The layer offset a(i) averages (P-1)/2 over a subtree; costs are
    linear in counts, so the mean cost is the cost of the mean counts.
    """
    base = confirm_counts(0, params)
    mean = Counts(**vars(base))
    mean.hashes = 0
    return mean, (params.P + 1) / 2 + (params.H_S - params.L_S)


def _single_tree_costs(L: int, N: int, P: int, table: CostTable,
                       S: int) -> tuple[float, float, float]:
    """(deployment, init, mean confirm) cost of a single-tree wallet."""
    params = TreeParams(S=S, N=N, P=P, N_S=N, L_S=L)
    mean, mean_hashes = confirm_mean_counts(params)
    return (deploy_counts(params).cost(table), init_counts(params).cost(table),
            mean.cost(table) + mean_hashes * table.hash_eval)


def transfer_cost(L: int, N: int, P: int, table: CostTable = DEFAULT_TABLE,
                  S: int = 128) -> float:
    """Mean per-transfer cost plus amortized deployment, single tree."""
    deploy, init, confirm = _single_tree_costs(L, N, P, table, S)
    return init + confirm + deploy / N


def optimum_cache_depth(H: int, P: int = 1, table: CostTable = DEFAULT_TABLE,
                        S: int = 128) -> tuple[int, list[float]]:
    """(argmin L, costs for L = 0..H) of the per-transfer total."""
    N = (2 ** H) * P
    costs = [transfer_cost(L, N, P, table, S) for L in range(H + 1)]
    best = min(range(len(costs)), key=costs.__getitem__)
    return best, costs


def crossover(L_star: int, N: int, P: int = 1,
              table: CostTable = DEFAULT_TABLE, S: int = 128,
              L_base: int = 0) -> int | None:
    """First transfer count where the rolling-average cost with caching
    drops below the no-caching configuration; None if it never does."""
    p_star = TreeParams(S=S, N=N, P=P, N_S=N, L_S=L_star)
    p_base = TreeParams(S=S, N=N, P=P, N_S=N, L_S=L_base)
    total_star = deploy_counts(p_star).cost(table)
    total_base = deploy_counts(p_base).cost(table)
    init = init_counts(p_star).cost(table)
    for t in range(1, N + 1):
        i = t - 1
        total_star += init + confirm_counts(i, p_star).cost(table)
        total_base += init + confirm_counts(i, p_base).cost(table)
        if total_star < total_base:
            return t
    return None


def sweep(hs: list[int], ps: list[int], ls: list[int] | None = None,
          table: CostTable = DEFAULT_TABLE, S: int = 128) -> list[str]:
    """CSV rows `H,HS,P,L,N,deploy,init_mean,confirm_mean,ot_cost`."""
    rows = ["H,HS,P,L,N,deploy,init_mean,confirm_mean,ot_cost"]
    for H in hs:
        for P in ps:
            N = (2 ** H) * P
            depths = ls if ls is not None else list(range(H + 1))
            for L in depths:
                if L > H:
                    continue
                deploy, init, confirm = _single_tree_costs(L, N, P, table, S)
                ot = init + confirm + deploy / N
                rows.append(f"{H},{H},{P},{L},{N},{deploy:.2f},{init:.2f},"
                            f"{confirm:.2f},{ot:.2f}")
    return rows


# ---------------------------------------------------------------------------
# Informational security report (no new computation)

POST_QUANTUM_NOTES = (
    "a realistic Grover-style attack lowers a 256-bit SHA-3 hash to about "
    "166 bits of strength",
    "the 128-bit classical settings above therefore retain 98-bit "
    "post-quantum security",
    "for 128-bit post-quantum security at 64 leaves, the OTP length "
    "estimate rises to 205 bits",
)


def security_note(lambda_bits: int, leaves: int) -> list[str]:
    """Classical sizing next to the fixed post-quantum figures."""
    S, words = required_bits(lambda_bits, leaves)
    lines = [
        f"classical: lambda={lambda_bits} leaves={leaves} -> S={S} "
        f"({words} mnemonic words)",
    ]
    lines += [f"post-quantum note: {note}" for note in POST_QUANTUM_NOTES]
    return lines
