"""Byte-identity of command-line outputs against pinned sha256 digests.

The digests were recorded from the unchanged outputs of the finite-difference
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
    "spectrum-eqintro-4": "25f084e52d0964c72044c337e87a1403289a78d03134ea31b8eb066cadc12913",
    "spectrum-eqo1-4": "5fdfdc458b019852492a1f5dafcd741ed9477d8502248fa37e0b3d79c67f464b",
    "spectrum-eqo2-4": "efde13f5b2968f453b26dbc3725c5320ecd878b2ab609a375053a54d8ea9f03b",
    "spectrum-hext1-4": "371d75835d07b2c47261fcec7a34f87d00afaa9d5f75ff8509d4c4b6ac6715c0",
    "spectrum-truncated-4": "baa26e3d412552ce794c4ca2a9a1b3f82602b788720ad7ad8b5e3659ff00163f",
    "spectrum-eqintro-20": "4c2a4070c1769391115e8553152ec64deb7cc2d0f191bddf0a56ee249c099545",
    "spectrum-eqo1-20": "450a0f0c3eba68dfaa6f365c003555630294e5d5dbe29db94e07c9d2f65c7e1b",
    "spectrum-eqo2-20": "c6cbfef96a721e86d9b86cab26ef817466077fa3fd7c08eae322a95ef8e53c93",
    "spectrum-hext1-20": "619354cbf1f5be68bebdca672452b943652915f905a8e6c787e8617a43a4b406",
    "spectrum-truncated-20": "2742db81cc387e26e9d635231a35b136a696a0235ea78efaaf1acfceae260922",
    "samples-eqintro": "f4fb50e1dc1e53bffbb4ab755d9ffc8772efa05bf80d60adddab5b2030471674",
    "samples-eqo1": "3deba8c08630897ed49706a7b644b833392bbcd082da35c4b53707bd1170e3ad",
    "samples-eqo2": "bf3b34f32713bd6d5397072da51c1aa8ecb891ca48dbf6e899f27929b5570072",
    "samples-hext1": "80cf5397ddd273e81cda9d80260081817c9679c55630611471531265d0397dc1",
    "samples-truncated": "462a4bfba21ef0120bd745478c9893503b9f368b096715486f65a8699c99195e",
    "samples-all-nodes": "54e63539645de266dd2a00f40c063abf32efc41adf369ba1397c94add6675877",
    "samples-eqo2-20": "391b0ae8bd929758bbac2e7194194f3e8ea46025ef136b26ff3db0b1aa2aa3db",
    "samples-hext1-20": "964bee7ef19308a9822e94a0fd858d3573eb5ddc31d1cdaf30226f6873cb64ae",
    "sweep-default": "be75644cd2c9ef8fe0e0237e161b41aecac4c599138a60ef77cf7f9b3b8ad067",
    "sweep-seeded": "3796f982225c6140d340e0551113a736b330aa4fb70b1212ca23567d7f3da12e",
    "check": "ff9d13ea1dbf05499d39742e8da6737aeae85eff321ed204568f2db95f5d1059",
    "coupled-csv": "647b2013b6d5ee4249cc77aba66571352bde224fd3950fac631205bf1da2e6d2",
    "coupled-json": "58f7c6e394cc1eeb6b9ac16f0bf53c23687e01e7b23a7d978d8eaf34b9342d16",
    "specfun-1f1": "b7bb90e948b9795ea3abd70d487e474bb0b674cfa1cd04b62dddb17949667c9a",
    "specfun-hermite": "d82a97bedeadf55c520560ee7aa392324f28f1527468442be27f7a151f5215d8",
    "specfun-laguerre": "d9a8cdaa9aa30f34f27b8388a1cc2cee44c7a323a6d413648ac2dcd8eb9145ee",
    "dump-config-spectrum": "8dcd479754ee96f50f53389d187efd26da84e3c15980a0c5787d68234d0e89ce",
    "dump-config-coupled": "452d906b730fd89379e971ad0ec7ceb3676b388d23021c3e291a6e96088b6ac1",
    "dump-config-sweep": "0952a3400c0f4ad43ac3d19358592d17f79309925093d815de421b6ec1c8f531",
    "dump-config-specfun": "4b624d91086116043c215f6bac96085a8134c0cc2a6c94a87ad18954d1c97005",
    "dump-config-check": "3a9e88b896a8cc0184fbc25c38e4b8069ed1267cd36445267bb73c6d485a3d4e",
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
    if case == "samples-all-nodes":  # as many samples as the 33 fine-grid nodes
        return ["spectrum", "--levels", "2", "--grid-n", "16", "--samples", "33",
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
