"""Every file each subcommand writes, pinned by its sha256.

Each case runs `cli.main` at small fixed arguments into a fresh directory
and hashes every file written there.  A change to any draw, its order, a
float expression or an output key shows here as a changed digest.  A change
that moves a value on purpose re-records the entries it moves; on a mismatch
the test prints the observed entry in this file's own syntax.  The digests
pin the platform's float formatting and libm, as the other goldens do.

Sweeps run at `--jobs` 1 and 2 against one entry, since a sweep's files do
not depend on the worker count.  A single run must reach at least half of
its n vertices, so that no case pins a run that stops at its source, and
`percolate-dense` must take the skip BFS's dense branch.
"""

import hashlib
import json

import pytest

from sirkn import percolation
from sirkn.cli import main

_RANDOM = " --xi two_point:1:0.5:2 --rho uniform:0:1"
_CLASSIC = " --xi constant:1 --rho constant:1"

# case -> its arguments, without --outdir (and --jobs for a sweep)
_CLI_CASES = {
    "simulate-classic": "simulate --n 60 --lambda 2 --seed 6 --trajectory",
    "simulate-random": "simulate --n 60 --lambda 6 --seed 5 --trajectory" + _RANDOM,
    "percolate-classic": "percolate --n 500 --lambda 2 --seed 3",
    "percolate-random": "percolate --n 500 --lambda 6 --seed 6" + _RANDOM,
    "percolate-dense": "percolate --n 8 --lambda 40 --seed 8" + _RANDOM,
    "no-spread-dynamic": "no-spread --n 40 --lambda 1 --reps 200 --engine dynamic "
                         "--jobs 1 --seed 8" + _RANDOM,
    "no-spread-percolation": "no-spread --n 40 --lambda 1 --reps 2000 "
                             "--engine percolation --jobs 1 --seed 9" + _RANDOM,
    "er": "er --n 2000 --mu 1.5 --seed 10",
    "meanfield": "meanfield --lambda 2 --step 0.01 --horizon 10",
    # tier-1-sized versions of the three benchmark workload configs
    "sweep-perc-subcritical": "sweep --n-grid 1000,100000 --lambda-grid 0.5,0.9 "
                              "--lambda-units lambda_c --reps 300 --engine percolation "
                              "--seed 11" + _CLASSIC,
    "sweep-perc-random-env": "sweep --n-grid 100,1000 --lambda-grid 0.5,1,2 "
                             "--lambda-units lambda_c --reps 100 --engine percolation "
                             "--seed 12" + _RANDOM,
    "sweep-dyn-uniform": "sweep --n-grid 100,300 --lambda-grid 0.5,2 --lambda-units lambda_c "
                         "--reps 20 --engine dynamic --seed 13" + _RANDOM,
    # constant laws draw alike on both environments: the same samples as on seeded ones
    "sweep-dyn-classic": "sweep --n-grid 100,300 --lambda-grid 0.5,2 --lambda-units lambda_c "
                         "--reps 20 --engine dynamic --seed 16" + _CLASSIC,
    "sweep-quenched-percolation": "sweep --n-grid 200,1000 --lambda-grid 0.5,2 "
                                  "--lambda-units lambda_c --reps 40 --engine percolation "
                                  "--measure quenched --seed 14" + _RANDOM,
    "sweep-quenched-dynamic": "sweep --n-grid 100,300 --lambda-grid 0.5,2 "
                              "--lambda-units lambda_c --reps 20 --engine dynamic "
                              "--measure quenched --seed 15" + _RANDOM,
}

# case -> {file name: sha256} of every file it writes
_GOLDEN_CLI = {
    "er": {
        "er.json": "9196200123c2c3fd30c68831f684079f38cf19e6bbc39a10be9e48bbeb43ffe4",
    },
    "meanfield": {
        "meanfield.csv": "d84ecf92173dd09238f544f08e153b6f9b80a9c466d4f18d30a64ea395172df3",
        "meanfield.json": "8fae78a3651858c65de665a9b5046397af1d416387729d8410049e69743eff64",
    },
    "no-spread-dynamic": {
        "no_spread.json": "ff8f211fec341de89c70d27ff4a2928b8be5ca85753ed363050ab4d4e5a2ba25",
    },
    "no-spread-percolation": {
        "no_spread.json": "15485461cd8eccc3776d0efa64fe8a22607d58f096ebda0ab9fcbda133227ac1",
    },
    "percolate-classic": {
        "run.json": "2b1bc106331fbf9ac24949df103fe5cc414ad3510504ababf5d94f66ff395a60",
    },
    "percolate-dense": {
        "run.json": "ea7085f921289afa8b279b4ffe83d4a8d94c0ae755a79193c747b9ffe4a397ae",
    },
    "percolate-random": {
        "run.json": "dd29f549a599440445b365fd15de76f56faabca8bbcb92ccba954bc855d4ab5a",
    },
    "simulate-classic": {
        "run.json": "0d3c7e9094d8d6e1f99ebd5b355459d0ccb25a774fd86fc104d5ffd753d40885",
        "trajectory.csv": "8167a8709f1b38857920234939cd8a5294c48e1833ffafd119d44653b88d9ee2",
    },
    "simulate-random": {
        "run.json": "efee228936f1c587b9146892b0f78cb17239a8090ece2e754a42bc02bf46b0ab",
        "trajectory.csv": "74b1f6c9a045b488f8982eb6b4d76cf624aaf9678f6ce0b1432a1f86605097c1",
    },
    "sweep-dyn-classic": {
        "sweep.csv": "bdd6ac918d22c16b8678103b9f2a1516b082f0d3df0166c3311aee826b7e653a",
        "sweep.json": "2a9a717d89759be7c58c4c30f7ffc3c8e9e050a4b56b0189dd30ba7bd2a53e30",
    },
    "sweep-dyn-uniform": {
        "sweep.csv": "b19f80c98db05044967776c694ba7c557fb38dafb81c2baafe0cb70e92c9d203",
        "sweep.json": "623aadd2ee6f7e0520be11a411294f3c3839ce57915355190b9598316fc590b8",
    },
    "sweep-perc-random-env": {
        "sweep.csv": "e75b85129dcc3bc0fb9e8839f78122268945c1035c087af8c83ebca612bc07e9",
        "sweep.json": "e516ef77abc329615bc26d6b704bfeecb43f8ca965775286c70a29a91d1df0dc",
    },
    "sweep-perc-subcritical": {
        "sweep.csv": "ce5177dbe85a22c474dbf174e000268ad8ce3ea568ed7eacf92ac029b280cf55",
        "sweep.json": "2964049952ad3750bed39803449f8f337e6cbfd9a8cc4fcaee23ca7f144d4ff9",
    },
    "sweep-quenched-dynamic": {
        "sweep.csv": "caf47a3080f1f3bfd9067181b02035904f936129b8d7a197c571669fa7a5cb6a",
        "sweep.json": "d5eba40682f52849143182b8138f285065e8e675a4a90bf4467bd66c1156d144",
    },
    "sweep-quenched-percolation": {
        "sweep.csv": "e7645bd1fe31bc6ae4705c243b442ce700a5181f94c540a53c221b63f7f0c1c5",
        "sweep.json": "d7752eefb9766b33d7e16c086a8a7a1256ba30f919ef40e712d70e67484394ca",
    },
}

_CASES = [(case, "") for case in sorted(_CLI_CASES) if not case.startswith("sweep")]
_CASES += [(case, jobs) for case in sorted(_CLI_CASES) if case.startswith("sweep")
           for jobs in ("1", "2")]


@pytest.mark.parametrize("case,jobs", _CASES,
                         ids=[case + (f"-jobs{jobs}" if jobs else "") for case, jobs in _CASES])
def test_cli_outputs_are_byte_identical(tmp_path, monkeypatch, case, jobs):
    open_targets, dense = percolation._open_targets, []

    def spy(env, rng, visited, m, lam_n, src, t_clock, mu):
        dense.append(bool((mu > m).any()))  # the dense branch runs iff this holds
        return open_targets(env, rng, visited, m, lam_n, src, t_clock, mu)

    monkeypatch.setattr(percolation, "_open_targets", spy)
    argv = _CLI_CASES[case].split() + (["--jobs", jobs] if jobs else [])
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    observed = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(tmp_path.iterdir())}
    entry = "".join(f"\n        {name!r}: {digest!r}," for name, digest in observed.items())
    assert observed == _GOLDEN_CLI.get(case), f"observed entry:\n    {case!r}: {{{entry}\n    }},"
    if "run.json" in observed:
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["result"]["r_infinity"] >= run["config"]["n"] / 2
    assert case != "percolate-dense" or any(dense)
