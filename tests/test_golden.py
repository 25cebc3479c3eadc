"""Byte-identity of command-line outputs against pinned sha256 digests.

The digests were recorded from the outputs of the three-grid finite-volume
solver (x86-64 Linux, Python 3.11, numpy 2.4, scipy 1.17 with its bundled
OpenBLAS).  A change to the numerics that moves any printed digit fails here;
such a change has to be made on purpose and the digests re-recorded.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from affineosc import cli

KIND_ARGS = {
    "eqintro": [],
    "eqo1": ["--g", "0.6"],
    "eqo2": ["--g", "0.6"],
    "hext1": ["--b", "2"],
    "truncated": ["--b", "5", "--order", "4"],
}

GOLDEN = {
    "spectrum-eqintro-4": "a12b0c2fd1ff7bab28a988d91f5ea18e1a339ac63b744038bfe8c28dff3328ae",
    "spectrum-eqo1-4": "a10bd686cdcafd3bf10e2c8de0d7bec1fc99d69605e2a8d9ec33aee78eb359dc",
    "spectrum-eqo2-4": "2008da008bee3e301be34b024fa7954ee9d60fae03be682e1dc2f32ab7fcf26c",
    "spectrum-hext1-4": "e73286f98194a0e80f42493f0582b66d2b4acb2cf8c1e76380ab53fc66d64f22",
    "spectrum-truncated-4": "ff78bbc3f3a87f5099c8fff05b8479b8e45e27b2d8c9757323c1bda7dd7e9cfb",
    "spectrum-eqintro-20": "7bc34620b02b431b14083097306580bd220be31ec99dc57fda58beb1a44bc994",
    "spectrum-eqo1-20": "943d64e64b931fdb926de7944ea9bbce8588a7966e48d83a115fd5c913b5b8e8",
    "spectrum-eqo2-20": "5b79dc04c7bf04429c5f759e5356b058adf468462689e3cf770748d79b5d058a",
    "spectrum-hext1-20": "b0789b61c4bf9f6e80e9f200f3247b967dfd1af521adc078e189816f00135793",
    "spectrum-truncated-20": "be4e86d35f42bc3efd351765fd60ba2fcb5dd2a1b7026b67516577e035f288f8",
    "samples-eqintro": "a0b0fd42099a68187754adb4afcc31d80190d6f3556fad782ab226f5307ee0e7",
    "samples-eqo1": "2b520a88f3e940223d412eba38e9669bc0c908488338d9fec43cc314ddbee7ac",
    "samples-eqo2": "6a46b657c67db0a30618240ae2399b489cf840e27d420a216c12d86c9e496faa",
    "samples-hext1": "30c950077fa5ad27b04d0c0f66555703ed0833547a558c938722a2e27c484f14",
    "samples-truncated": "5f01dc58c155b01bb1f29df0f63572863029133e8d0a0eacfcd921914919a3c1",
    "samples-all-nodes": "faf2b9c528a9ba39f99ad4761b7b98b9719af9f8c8c7ffcf134128b020c4ecd8",
    "samples-eqo2-20": "b8178fc6a86eab32375e72c8295cf1461c751b047a2f61280f73946d57b1a5f1",
    "samples-hext1-20": "6e020c5f338513758e44a876aea3f40577a2c2ea9ee8f02df323d821738072f0",
    "sweep-default": "dee4fdce53138e60521c2d814ce8fac63658cb5b5136868a37bb6f833bd7baa7",
    "sweep-seeded": "ccbc153f85abf223b09f92666a52b8985456014456f6b4d8e232775c53d114d0",
    "check": "fbd3e0020e745c125aae12e3e1c84c7c73636a6f186c9f03ef391aa3aa664d1b",
    "coupled-csv": "647b2013b6d5ee4249cc77aba66571352bde224fd3950fac631205bf1da2e6d2",
    "coupled-json": "58f7c6e394cc1eeb6b9ac16f0bf53c23687e01e7b23a7d978d8eaf34b9342d16",
    "specfun-1f1": "b7bb90e948b9795ea3abd70d487e474bb0b674cfa1cd04b62dddb17949667c9a",
    "specfun-hermite": "d82a97bedeadf55c520560ee7aa392324f28f1527468442be27f7a151f5215d8",
    "specfun-laguerre": "d9a8cdaa9aa30f34f27b8388a1cc2cee44c7a323a6d413648ac2dcd8eb9145ee",
    "dump-config-spectrum": "cb0945d758c45499a9744d8ab9f275a9b1557c13e239bfeb85bfe8b25d50c76d",
    "dump-config-coupled": "8ebfb0a95eff247c601c268e77d666b6778bcfe6d1dd15831985845b6818d3e2",
    "dump-config-sweep": "9fdf63350982845b6096d312701d055e12d83be19370df555716a08dcf6b1e77",
    "dump-config-specfun": "ab20f89928b73fadb89be60f63c286bbbe7a63d2355bddce615b1ff6fe1c35fa",
    "dump-config-check": "39fd25fd51081c879fc65f2bdfe6e87518f1522119ce9d9e3343087c5e2e8c57",
    "dump-config-file": "eee13de38b62101dc85c425a578828dac2323ab705bdac61cdc7eac1928ce971",
}

# a config file mixing integers and floats, in float and integer fields alike
CONFIG_FILE = {"m": 2, "omega": 1.5, "hbar": 1, "g": 0, "levels": 3, "b": 1, "order": 2,
               "b_values": [0, 1.5, 3], "grid_n": 100, "fn_param": 3, "points": [1, 2.5, -4]}


def golden_argv(case, tmp):
    """The command line of one pinned case; tmp is a directory for its files."""
    if case.startswith("coupled-"):  # CSV to a file writes the _branches companion as well
        fmt = case.partition("-")[2]
        out = ["--out", os.path.join(tmp, "coupled.csv")] if fmt == "csv" else ["--format", fmt]
        return ["coupled", "--g", "0.6", "--count", "1000", *out]
    if case.startswith("specfun-"):
        return ["specfun", "--fn", case.partition("-")[2], "--n", "7", "--param", "1.5",
                "--points=-3,-0.5,0,0.25,1,2.75,12", "--format", "json"]
    if case == "dump-config-file":
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(CONFIG_FILE, handle)
        return ["sweep", "--config", path, "--levels", "5", "--g", "0.25", "--dump-config"]
    if case.startswith("dump-config-"):
        return [case.rpartition("-")[2], "--dump-config"]
    if case == "samples-all-nodes":  # as many samples as the 64 finest-grid cells
        return ["spectrum", "--levels", "2", "--grid-n", "16", "--samples", "64",
                "--format", "json"]
    if case == "sweep-seeded":
        return ["sweep", "--b-values", "0,0.75,3.2,8.9", "--levels", "4", "--format", "json"]
    command, _, rest = case.partition("-")
    if command == "spectrum":
        kind, levels = rest.split("-")
        fmt = "csv" if levels == "4" else "json"
        return ["spectrum", "--kind", kind, *KIND_ARGS[kind], "--levels", levels,
                "--format", fmt]
    if command == "samples":  # samples-<kind> or samples-<kind>-<levels>
        kind, _, levels = rest.partition("-")
        samples = ["--levels", levels, "--samples", "128"] if levels else [
            "--levels", "3", "--samples", "16"]
        return ["spectrum", "--kind", kind, *KIND_ARGS[kind], *samples, "--format", "json"]
    return [command]


def digest(case):
    """sha256 of what cli.main writes to stdout and then to CSV files, by name, with its exit code."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        code = cli.main(golden_argv(case, tmp))
        for name in sorted(os.listdir(tmp)):
            if name.endswith(".csv"):
                with open(os.path.join(tmp, name)) as handle:
                    out.write(handle.read())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN)
def test_output_bytes_pinned(case):
    assert digest(case) == (0, GOLDEN[case])


if __name__ == "__main__":  # print the digests of the code as it stands
    for case in GOLDEN:
        print(f'    "{case}": "{digest(case)[1]}",')
