"""Golden pin: scenario state hashes and event logs for fixed seeds.

The scenario suite is the determinism contract: for seeds 0-3, every
scenario's final `state_hash` and the SHA-256 of its event log must stay
byte-identical unless a change alters protocol behaviour on purpose. A
change that alters both runs of an in-process comparison alike still
fails here.
"""

import hashlib

import pytest

from otpwallet import scenarios

# seed -> scenario -> (state_hash, sha256 of "\n".join(event_log))
GOLDEN = {
    0: {
        "depletion": ("77b57579f28aa1d2a91ff0c43c6217c8",
                      "2e8485eddfd0d312b18f08e45e312325c11d09e2e4b35d588389c254611916fa"),
        "dos-pending": ("00f34b10c6c956168ef15699508b21c7",
                        "f16f2aa96fe63396234f7642c2fac075bb5c9be47556904bd03f579361bbaaa3"),
        "fork-replay": ("727cd1f8e890bd1e1043d99c4162634d",
                        "f8ff65b35e01fa655bddeff64cfb68c3507b26fe790f761b0bd136541f1e7cda"),
        "theorem1": ("d56b0964243740e240fee4b3de5d9a18",
                     "68b128af649f73d290b37544259f0d0a4f5f9cb99dcfef4b36daa6ce52ed4e49"),
        "theorem2": ("6e5ebc241b165e5f943109748d7c1311",
                     "168415f7caddf818831177667b1d416949ec7695a8ccc6bc300fc1ee09a8dc33"),
        "theorem3": ("2f889ccbe662566c35192bab90ac9386",
                     "828707bc4a2e97783ba8bae516226fe9a24e02fc96b4e4e681aa9f2707d7d3c3"),
        "theorem4": ("18b4c32c80a7f8e6a3a9ee4f46e2d33a",
                     "723cc172402288d3f279e63d8fa8f7e2b6a6a1615caca03b8b11ed2174a5fe4d"),
        "theorem5": ("7d4bc54aa12be190f2966841105032d7",
                     "50e6b807ca5b34a7781a7dd7a4cac6adc598f799f433d68083bbba1b3205c3c4"),
        "theorem6": ("b72798eae69180bf62d6aa1b486737ba",
                     "e7a4e89bf6edde9c3297bcf962b862dcb4d95584eddd7da593ee6a52c75db94e"),
    },
    1: {
        "depletion": ("d43b8ddb43324f60470865cec8231128",
                      "c602d81bb88ad5c0c7ab090f7be96395ad8f9ab55e2a68841cefa122102b601d"),
        "dos-pending": ("33fb92cbd445d67b861f5041de101e83",
                        "dcd891e0fddf62b056beef26885e3b60d93f111c3feb48acc5506fc95a3ab296"),
        "fork-replay": ("58fca1c3c055ba5e6a429d8834f54b5a",
                        "f784af598b0a6f2161c169416f366d4911c61d3cbb09850b51dc42dbe0b18679"),
        "theorem1": ("70a9cd408834526112a8bc4ff6845d9f",
                     "768ae5bf79387fff0bdd7de67c0494d7ef0599a9bcff8cd209251d6cdc7f3d14"),
        "theorem2": ("52445e1bcf2e223f9507cc3f05599e84",
                     "625695364ea89ea3f2bf95d11dae62d6cdff3e74afba1c7f98f50fba543e69df"),
        "theorem3": ("2c2d734d479f215ece3b46b6fca8ca35",
                     "21dc11ccd8e700db02541751f0c6acd47582365984f93fb977cf4d19f9621a09"),
        "theorem4": ("e56b37d5d9b0d4829cace8ed0f0bd054",
                     "e141e70394f71930087eacc260fab8aaeb1498bec0073edebc4d80fcf62d6830"),
        "theorem5": ("a9c11462840ccada79b5a8fde7586254",
                     "5f4b1ec370f6c92c4b0e6119b2068ed53eb525addc9cab9f03123ff6ec4d0bd2"),
        "theorem6": ("af4f41b904ebcc969f2d45295d3a322e",
                     "ca4eb658c3a92c22c046b6fe91c63d8c90a6f0546f33876c97689a01b28f0890"),
    },
    2: {
        "depletion": ("a88d197699b6c6a2d70d7546b3d1849e",
                      "3ae99a8250a093f0de2fab5f5af158cafdd9f9e58d3ec1ea62ef171689f60a7c"),
        "dos-pending": ("c62a539ceba962160c2c025193c18fc6",
                        "9f42692d352d3150f0ec20e2f6b4b2c8ed9bb92de6a42b762779c104437fe8e3"),
        "fork-replay": ("216bb78043d8c8efd95324abbb28f486",
                        "8f0d1c5916ad6b45c52a9ac9b4d63d8fcd15d18c3e1a35981c2819b14a3a3706"),
        "theorem1": ("7e488f53316283cc4c471c5441255bb3",
                     "dd6bb69710185db5cf8fc0c49fd67613028f85d39e55494d5993dd6d6aa4b99e"),
        "theorem2": ("412c08c54b463051a2ac51289934b128",
                     "ef9fdd6d63e25befc525ad01a6fb5b76cbdefc15f824d0644bd82f5648312391"),
        "theorem3": ("0e692c5472f07ecf93ef606d62af6b5a",
                     "e0f0943b8003b4c9d83b7ac93f44245c52ccbfe85d235c8617dbed82a89a552b"),
        "theorem4": ("30123f305b4af77790844dec35609511",
                     "ffbcf596f0cf371ef3a4649e6c2d6140c050cba392abdc18c54a5afb4272a381"),
        "theorem5": ("4c8c510b8890ef643d8dbfc812be520d",
                     "a0748fab334061d54d9035fbcdeddb452d94475d216b5018b3d1dfa6c4b37ef3"),
        "theorem6": ("bf1132a36eaf4618a3e9ed5e990137ec",
                     "914c717cfed51681b22584f1e1b031782fdd4306c38bbe1cf35cd8b2f9d43584"),
    },
    3: {
        "depletion": ("2be76e086126c4426f2c891a8cbbb270",
                      "829f4aec566dddc8fba910a6ef4f6d2b121a36de4dbe11e860d485538872b0ec"),
        "dos-pending": ("a560d2d01be45373bbd92ba0c1892ce0",
                        "0cbcd36a1bca5493e3183dad7b1843d9ba923e0b3f4244ae5f3f563e20a7d430"),
        "fork-replay": ("00cff7ad2258ad1f021eda4fb0faaf9b",
                        "c81169d7ef4ca817ed1abf9c8d12a68e8aaa15830cf7315dc59965c92c766bac"),
        "theorem1": ("6ecda10bd00e8e40d3f38d5a7c901057",
                     "ebda232b1bb5ee278cd12fc0d55ed4312050d11987267c8886a71eb024475065"),
        "theorem2": ("857c239a02edaeeb3849e349e88f8405",
                     "31944f1bcfb59797ce02eb165db8bb964e6e15aaed28cf43069431b2ea7e076a"),
        "theorem3": ("f4dbc96e50e5744301c5a197094c7e20",
                     "c1e8aeeccda059234deea4fec9b9a85bcbc6d0c918d4a8be5d733c1d43ba9d52"),
        "theorem4": ("6fe0bdba6880bcdb6d6ffc6eb2bfde51",
                     "4aaa68560bf3094d1289ea5e7184bf1da72846cdf52d8996fa50e419d0378c2e"),
        "theorem5": ("b50b45a127cf6af6fb8131854ac1ff6e",
                     "7b85264a2ec9dd8dc56c896bb621cdd4a35233dbf030ccfa42d5860fc2153085"),
        "theorem6": ("2b9f05b76468683ca4bb1a96684b6dc6",
                     "c70201c12ae2a1802305d78b41a05e6e412efe1f6e243b0abcfce561c91aafae"),
    },
}


def event_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_outputs_match_the_pin(seed):
    got = {r.name: (r.state_hash, event_digest(r.event_log))
           for r in scenarios.run_all(seed)}
    assert got == GOLDEN[seed]
