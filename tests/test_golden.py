"""Golden SHA-256 digests of the CLI's output files, one short config per
plant branch plus both capability maps at the default 2 cm grid and at the
5 mm grid the benchmark times.

A change that means to keep the output bytes must leave every digest here
as it is.  A change that means to alter them (a new channel, a physics fix)
re-pins them in this one table and says why.
"""

import hashlib

import pytest

from stsbot.cli import EXIT_OK, main

CONFIGS = {
    "weight_unloading": "mode = weight_unloading\nfz_pct = 0.10\nrepetitions = 2\n"
                        "pause = 0.5\nseed = 42\n",
    "com_balance": "mode = com_balance\nfz_pct = 0.1\nky = 200\nrepetitions = 1\nseed = 42\n",
    "transfer_98kg": "mode = transfer\npayload = 98\ntransfer.v_z = 0.04\nrepetitions = 1\n",
    "transfer_unloaded": "mode = transfer\npayload = 0\nrepetitions = 2\n",
    "detached": "robot_attached = false\nrepetitions = 1\nseed = 42\n",
    "arm_only": "human.enabled = false\nrepetitions = 1\nseed = 42\n",
    "map_rehab": "map.configuration = rehab\n",
    "map_transfer": "map.configuration = transfer\n",
    "map_rehab_5mm": "map.configuration = rehab\nmap.step = 0.005\n",
    "map_transfer_5mm": "map.configuration = transfer\nmap.step = 0.005\n",
}

GOLDEN = {
    ("weight_unloading", "log.csv"):
        "8dd72bf51e4540ae64e2e9ce78d85a30eb5bcbb337cac8c76433d1a954064673",
    ("weight_unloading", "metrics.json"):
        "521a29f57bb2cceaf71172a7b2736fc257f93df20a6b51b165e6613f103a761f",
    ("com_balance", "log.csv"):
        "f98406ae5221f13c4c458d9f349d0654ffa3539416335428d2ed9f639d5ea9db",
    ("com_balance", "metrics.json"):
        "5cd5433eaa5d9c1ada75ce8d270acc0d4e0a9b01613e0ae4a63fb81aff1b987e",
    ("transfer_98kg", "log.csv"):
        "e5ddd96e47b550343232c6954fac2777e018709d80d722611ba5f33a1b991a6b",
    ("transfer_98kg", "metrics.json"):
        "5f4ad0e795ebdeb79ff845f6b3a70b7d878838ddfb4da81b4c52ba9fff1b882b",
    ("transfer_unloaded", "log.csv"):
        "7763d0f408e79e417159f3b702aa5e8e9ee0c8f4f733f7fcdf3b50cd8dec8105",
    ("transfer_unloaded", "metrics.json"):
        "b61caa67e502d5f033933108dbe23ed78588736297684fc63e11f1cb15982924",
    ("detached", "log.csv"):
        "c4b773b3372c3ba65caa2fa8caf6fb39a2a0ccb55709a2634b615c312785a26d",
    ("detached", "metrics.json"):
        "056e25706e3096f79d18d8f4edec2a1b68d980f31af533f40264d9f3d9992a3f",
    ("arm_only", "log.csv"):
        "3b4b0821d5d390a8368ab890e1a11ffb17b52d2e0579b60aaada52588c1b07ce",
    ("arm_only", "metrics.json"):
        "33b7657a9068bd11461973ab90b6429c199b7c771f6f82d4279672b56074f71f",
    ("map_rehab", "map.csv"):
        "d78b8e700cb4d39e0d53bd5478693a2eb7288efa8bcf3ea4a1b8d27f9b6323b9",
    ("map_transfer", "map.csv"):
        "c32208f17fb665992a6f9bcb40ee5905f7a4c99d96a2a2d6853579002f96353b",
    ("map_rehab", "map.json"):
        "e61210e41d208f11dce1276369165307af7f7f17fc5779c1c6d43d3ce92338f1",
    ("map_transfer", "map.json"):
        "023241f9e7b74257d94b51be922f234a8e8cc25ce92f3dff416e2370dbc0844e",
    ("map_rehab_5mm", "map.csv"):
        "c851fe2f3aead3b1cb4a5b26b940bb7daca146932114dd93584fdaf08ff0b972",
    ("map_transfer_5mm", "map.csv"):
        "c12ac0abe6f065bac4d8b115f3b4f4dae6baa2e59aa831abb1ede583c63f55e8",
}


def _outputs(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CONFIGS[name])
    out = tmp_path / name
    if name.startswith("map_"):
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    else:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["analyze", "--log", str(out / "log.csv"), "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("name", list(CONFIGS))
def test_output_bytes_match_golden_digests(tmp_path, name):
    out = _outputs(tmp_path, name)
    got = {(n, f): hashlib.sha256((out / f).read_bytes()).hexdigest()
           for (n, f) in GOLDEN if n == name}
    want = {key: GOLDEN[key] for key in got}
    assert got == want
