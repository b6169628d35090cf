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
        "er.json": "3b8917b379947cff55b7101d2f36f3072282f58777842875979d7b2f6be1f644",
    },
    "meanfield": {
        "meanfield.csv": "d84ecf92173dd09238f544f08e153b6f9b80a9c466d4f18d30a64ea395172df3",
        "meanfield.json": "8fae78a3651858c65de665a9b5046397af1d416387729d8410049e69743eff64",
    },
    "no-spread-dynamic": {
        "no_spread.json": "db4f94056935fa88d48f57b9b050f9e7fbc56cea6d4451fa8f3f95161a1b20ae",
    },
    "no-spread-percolation": {
        "no_spread.json": "15485461cd8eccc3776d0efa64fe8a22607d58f096ebda0ab9fcbda133227ac1",
    },
    "percolate-classic": {
        "run.json": "614991dbe3fc0edfbf9703eb2d337d435676f892b04e8af0a0d969b2e6230963",
    },
    "percolate-dense": {
        "run.json": "84a6e4f86d5745e7686f7e19c3ce7efaa9d5c2115bae42430f4c7a4c50891545",
    },
    "percolate-random": {
        "run.json": "03ba2655305ba73137705ed7fafdfedb3adaa2b1d047c5878af89e370e8fbc73",
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
        "sweep.csv": "535d0e072ced8bf02850ecfdad87f3c3851a57fd508c90da1b0a47ea54094724",
        "sweep.json": "218f9fd78c18d5f9812aed1f388fcd3e3922e583ac585f116cd5fe6ab1452b33",
    },
    "sweep-dyn-uniform": {
        "sweep.csv": "b361784315b7c9f08036138099fe34d1d823edc722066bf8073161537f732df8",
        "sweep.json": "65fa26fb1abbdda2de4b0567ed318f3c6bc81e987c542f37d68360543c25f8e2",
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
        "sweep.csv": "d63ef3db83d5f206b3f72bc94d922e55644c820ed9f91a56ffc6b211c699ba4f",
        "sweep.json": "f1d4412763380365853aca813a5569121ae854f28faa1834ef17bfc6cabd5a81",
    },
    "sweep-quenched-percolation": {
        "sweep.csv": "2130c32ce7de50e178d14193243c5af95682b7a95628d2fd2f862e70b01e7a06",
        "sweep.json": "f042f4037d28df3b0f27f4336a85567e5435952def4d8e81de08240e31a7acf8",
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
