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
        "depletion": ("0ff011c31c597a1d9cf400edb3fa93db",
                      "2d9a0b708dd67cfa358e25628df624c2005c91cba72ac7be625db1e8342cde23"),
        "dos-pending": ("1c9473b228d763e74349b0846fe223ff",
                        "36cfdb6126ea6b8b0bc861cf750e25ffd708514daf2837daf73070767662e25d"),
        "fork-replay": ("492974b070812eaf68c7cdcf2b263025",
                        "4f277223c396ca367d25c12d5b1ae92ecfd24c5dab8ac9b5376a0f27faf83a4f"),
        "theorem1": ("e5bec95f8a4da6853b2c382af75cf418",
                     "9d8c0842cd793ed0a51cf8ea6ee6cd1510a229efd7a261712cc931830f6bcab1"),
        "theorem2": ("86270ec829c455ed9340b314d48619d3",
                     "c100841704d7aa7d756b4dcbe4207d79736f9648d4d12b312129b65d0019928f"),
        "theorem3": ("98e55d0ef3f11d2ef348e54a32b5c936",
                     "2405aeb96c3cb49c7858a71edc008630dace26e8a8125190392f485546c15f41"),
        "theorem4": ("6054345a5a6931cbbd572774d0572384",
                     "5b23dd479ad72fc8fd8faf038061992c0671a9926701a9878fd4ba760e650a35"),
        "theorem5": ("8ab897f4787abe82324fa7eaf17bb77a",
                     "598b4bc2814c7d0cd945d15c89976f0f6c77930a6963a040c6d90e659cecf759"),
        "theorem6": ("d9b0b377702aef1797a0731d693797ee",
                     "2f213dfe787c44fa8651c2c5a6ac0a4b3c042d058ff8fad94f16a2e3e15f4171"),
    },
    1: {
        "depletion": ("ec3d4418ae7027dbe47f0b2f0f1061ed",
                      "88c08fd4178e6b188d0578a012c80690e11a0a8d238117aee3c03bf9d5644b16"),
        "dos-pending": ("fc34d1f140a0584fd04f74c848c240df",
                        "64be79ac3ad4e30be169422422b1374921cb3ce87c017647b46facec42a38141"),
        "fork-replay": ("0a89d82f9b1c020f5f290b41f45744da",
                        "472ee9186b1aa2c81c0f32ed814d8134b7328fa6982515e00016a33915280bf5"),
        "theorem1": ("3beab6e5145a7b5f954e951e9dc2b761",
                     "9d5132506658fe9ef73d86f0e273ec4046bd29632eb53b25c958bede6e1c9479"),
        "theorem2": ("c6ad4af225cc1725c8d09a7ae9c20748",
                     "1f919d1005484723cb9b37e64b73e8b2780263430c3185d48cd1bc3235f7946f"),
        "theorem3": ("2bd22f638869c6eff1845d839e1da6cd",
                     "481636aecc264c7eb0550675444f44d7a9d4e17ece5da6f9e103e4bad0d3ffc0"),
        "theorem4": ("8caa73e18c3d627cd0479242e990ff06",
                     "6c8d2acc3ee892c72a9ac10d3476258454066f376b3f01fd93ec368d2a7e386f"),
        "theorem5": ("49ccbe7dbb6020ffe697227462738b99",
                     "90e9f45fa5b2d1c033423f0edf6a6801dadc54d699519f805feda7c87b686141"),
        "theorem6": ("da6c207a08fef01074b9dbfa3c91ff89",
                     "d898bd9d1fe2e2c31802dc77f09f676a615a0fbe94be1ea1032c62b30fc14943"),
    },
    2: {
        "depletion": ("d98ac82e64e34147bcf0e9c1e995ac29",
                      "aff3050f91d39833b1f5be519772ea2827bae5c0979eaacec2ab97b058cfd89e"),
        "dos-pending": ("43c4448ea9f02d71f61e0c274f6414b4",
                        "7c60de93ca208415767abfb1d8f91889edfb392753b8eb5961aab3de10041b3e"),
        "fork-replay": ("38e2c104814ba570c3b9fa71f0440546",
                        "8b4c32aba59efc1a6c9471b9a58d7763fdcf2e694570f04a25ba94ad410abbd4"),
        "theorem1": ("9e657ae0a14ad794b8aaeb3f2c7c45e9",
                     "2c1bb267f1bc42240d77fea7f2d800f87b30066e4968d47d85bb8351a0738a40"),
        "theorem2": ("157a3978e2ccd8abe8c74cab24266f47",
                     "0759485e9e19e58c65c563d8643c6acab7983f3b51534f6d6a6940dbb4d05e33"),
        "theorem3": ("5668f75c1339e40387199851d69b3251",
                     "044bed529aeb81d6eec84edf65734578919e3f962f2ef44eb3b5550f5731c0bd"),
        "theorem4": ("57f03c1fa67f22c8174ca8b14131a432",
                     "3fe09787f36c84c6caf6763791a0ce01b006f832d59925a392fd26606e8e0bdc"),
        "theorem5": ("f35ab007df82a81364ae826b34e528c6",
                     "20d4abca9fe99b3b859ed44ef58f43c4204f90420a2825ea5abbbc33eb23ce26"),
        "theorem6": ("a816655fe22ecaa07be712698aaf375c",
                     "85cd2a0eb99f7c5f6cd59bb07caa95c025442edad31bcceb2f9c23862a28f800"),
    },
    3: {
        "depletion": ("8bcd03fcdc0c65674dce9458ba9693f6",
                      "3c62398a2b0abf008c6eb8d90bd68fa7634475fde106e2984d8bbbdc5181a9b4"),
        "dos-pending": ("6bb76675ed4bfbabd660e85d3ab1c8fa",
                        "f0831acfee5910418b31550a9c243a9db1d1ef5e8a5e46e5e22d11acecce6071"),
        "fork-replay": ("47c0e0bd30cb2d51c72c2d9d4ee29a13",
                        "b780265e447293edb6b88b10864a7ba55e66905850f4947f5e98faa8861fd3a2"),
        "theorem1": ("312ae71ce9f5ad11e32a913237dd0b65",
                     "fb0bdf38f380ebd9916a57ea3ccd47b87c02765184234faec144d690b01fe655"),
        "theorem2": ("6334a065fe6ab554ee8a79a8e1699c03",
                     "7e81098f7d9528a5000660e6d51317030bbdd47064f9fff18789e3191269ec1b"),
        "theorem3": ("e792cb920deab73c715690b9d1e42337",
                     "99386f8d88924275de3154ddac1a057f60e9a26867be4f171a556e53c17049fe"),
        "theorem4": ("9e12e897edb7adba2c5327655a1ff170",
                     "7714667288094737d88fb7d23555800c1b9947f4c9950351ed2546a10924a245"),
        "theorem5": ("81113a2ec858a54c21c8a54688120c11",
                     "8f2483537bb57fd8dbdad51a2b7711f4ef939879e27dd1e3ef4a2f07db0a1b05"),
        "theorem6": ("938d4d952e85a8767c8d3bf18ec95729",
                     "34db41e742c6090fc992ee406baeafb645f1c2d262fa154ee75b1408a244dc29"),
    },
}


def event_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_outputs_match_the_pin(seed):
    got = {r.name: (r.state_hash, event_digest(r.event_log))
           for r in scenarios.run_all(seed)}
    assert got == GOLDEN[seed]
