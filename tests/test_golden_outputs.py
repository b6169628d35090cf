"""Every file each subcommand writes, pinned by its sha256.

Each case runs `cli.main` at small fixed arguments into a fresh directory
and hashes every file written there.  A change to any draw, its order, a
float expression or an output key shows here as a changed digest.  A change
that moves a value on purpose re-records the entries it moves; on a mismatch
the test prints the observed entry in this file's own syntax.  The digests
pin the platform's float formatting and libm, as the other goldens do.

Sweeps run at `--jobs` 1 and 2 against one entry, since a sweep's files do
not depend on the worker count.
"""

import hashlib

import pytest

from sirkn.cli import main

_RANDOM = " --xi two_point:1:0.5:2 --rho uniform:0:1"
_CLASSIC = " --xi constant:1 --rho constant:1"

# case -> its arguments, without --outdir (and --jobs for a sweep)
_CLI_CASES = {
    "simulate-classic": "simulate --n 60 --lambda 2 --seed 3 --trajectory",
    "simulate-random": "simulate --n 60 --lambda 3 --seed 4 --trajectory" + _RANDOM,
    "percolate-classic": "percolate --n 500 --lambda 2 --seed 5",
    "percolate-random": "percolate --n 500 --lambda 3 --seed 6" + _RANDOM,
    "percolate-dense": "percolate --n 8 --lambda 40 --seed 7" + _RANDOM,
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
    # classic laws reveal nothing: the same samples as on seeded environments
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
        "no_spread.json": "454b1ef3bcf7dd03e32575e9a82418d8d3e6157d75953395de0b2e0c70fd605b",
    },
    "no-spread-percolation": {
        "no_spread.json": "15485461cd8eccc3776d0efa64fe8a22607d58f096ebda0ab9fcbda133227ac1",
    },
    "percolate-classic": {
        "run.json": "e06685832696ff4e0acf837dcb03ff9680ebc9d1647a3ee9377025b36ddcd444",
    },
    "percolate-dense": {
        "run.json": "a8ef64a2ed56bad6300d0f24ad6294f704ca5161c8624bc7b112591b87b3f193",
    },
    "percolate-random": {
        "run.json": "64fa01aa5281f8ea91b5ace21e9f3810bf98ac676d5272a02523be2452358ee6",
    },
    "simulate-classic": {
        "run.json": "12f5532c8e261694489a21f4bdf8cfdee7805df8c3e4cddeb0112e0c65e77a7d",
        "trajectory.csv": "48d94d21102417ec0755b10e5c67ddb19af9f7241abf94909363cafedba1716d",
    },
    "simulate-random": {
        "run.json": "35ac3c8006cdf129c997f0be1ba07d6f055bec445c7856e2f0471f7f0bc95f4e",
        "trajectory.csv": "69d34a1ad6c233074d290a08aafd2151d02b929d3e9509d21a48fae89d89c2f2",
    },
    "sweep-dyn-classic": {
        "sweep.csv": "bdd6ac918d22c16b8678103b9f2a1516b082f0d3df0166c3311aee826b7e653a",
        "sweep.json": "2a9a717d89759be7c58c4c30f7ffc3c8e9e050a4b56b0189dd30ba7bd2a53e30",
    },
    "sweep-dyn-uniform": {
        "sweep.csv": "ae9dde998ab2d203c4b15c3897355c26dc3c64b8c4db1eb7cb81bd6f097ae442",
        "sweep.json": "3d690fdb8d27fe422737d39e68a86efe4238955b940e3d356e2a36493cb4d788",
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
        "sweep.csv": "1d99cc702191daab56baedf887c32768caf2bbca6b3f5a994a5ecd37c2e25075",
        "sweep.json": "409259b84ad74a628371e728850bd59eaee9749062a4d247b17b8917a50a3ed3",
    },
    "sweep-quenched-percolation": {
        "sweep.csv": "ff371a4e91765828677e3147afafc97cd46a9eaa3a64aaff03b7932647d5aead",
        "sweep.json": "ad3bd8ccd9d2db0d21475e1ddb96829a9196daaafc2c4bb6a9db3a4172657948",
    },
}

_CASES = [(case, "") for case in sorted(_CLI_CASES) if not case.startswith("sweep")]
_CASES += [(case, jobs) for case in sorted(_CLI_CASES) if case.startswith("sweep")
           for jobs in ("1", "2")]


@pytest.mark.parametrize("case,jobs", _CASES,
                         ids=[case + (f"-jobs{jobs}" if jobs else "") for case, jobs in _CASES])
def test_cli_outputs_are_byte_identical(tmp_path, case, jobs):
    argv = _CLI_CASES[case].split() + (["--jobs", jobs] if jobs else [])
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    observed = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(tmp_path.iterdir())}
    entry = "".join(f"\n        {name!r}: {digest!r}," for name, digest in observed.items())
    assert observed == _GOLDEN_CLI.get(case), f"observed entry:\n    {case!r}: {{{entry}\n    }},"
