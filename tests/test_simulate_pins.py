"""Byte-identity pins of ``latcoset simulate``.

Each case runs the CLI in process and compares the sha256 of its stdout
with a digest recorded from an earlier build, so a change to the draw,
channel, decoding or labelling kernels that moves any decision, or a CSV
byte, fails here.  The cases cover alamouti 2/4/8-PAM and golden
2/4/6-PAM, every ``--decoder`` and ``auto``'s sphere route past the
codebook cap, both metrics, 1, 2 and 3 receive antennas, 1, 2 and 3
workers, and lattice files whose label operator needs Python integers
(object dtype) listed with catalog lattices.
"""

import hashlib

import numpy as np
import pytest

from latcoset import IntegerLattice
from latcoset.cli import main


def wide_lattice(k: int) -> IntegerLattice:
    """A sublattice of 2Z^k with Smith form diag(2, ..., 2, 2^32).

    k * d_k^2 >= 2^63, so its label operator is object dtype.
    """
    b = np.eye(k, dtype=np.int64)
    for i in range(1, k):
        b[i, i - 1] = 1
    b[k - 1, 0] += 1
    b[k - 1, k - 1] = 2 ** 31
    return IntegerLattice(2 * b)


#: (CLI arguments, sha256 of stdout); "{wide4}"/"{wide8}" name the lattice files
CASES = [
    ("--code alamouti --pam 4 --lattices L1,L2,{wide4},L3 --snr=-5,5,15 "
     "--trials 1100 --seed 3 --workers 1",
     "33bbb93aee98a4a59856c49df014d09886d3511ed235a70ac5e4286571e68f44"),
    ("--code alamouti --pam 4 --lattices L1,L2,{wide4},L3 --snr=-5,5,15 "
     "--trials 1100 --seed 3 --workers 2",
     "33bbb93aee98a4a59856c49df014d09886d3511ed235a70ac5e4286571e68f44"),
    ("--code alamouti --pam 2 --lattices L1,L2 --snr 0,10 --trials 500 --seed 4 "
     "--decoder exhaustive --n-r 1",
     "e603b61017e05c134e703ef534a2fe42cdd9a9f59968ee75428cb8a34caf1d08"),
    ("--code alamouti --pam 8 --lattices L2,L3,{wide4} --snr 0,10 --trials 300 --seed 5",
     "e14faed8eca15351fc0ea7c8ecaac616370e8aa4e0419d7bef26dc79fec59144"),
    ("--code alamouti --pam 4 --metric cer --snr 0,10 --trials 300 --seed 6 "
     "--decoder sphere --n-r 1",
     "dacfca4cf8f4aa4abd7d78486f7fc9e1c654fa6ed6de17fe0ee7da2c3a84e3f1"),
    ("--code alamouti --pam 4 --lattices {wide4},L2 --snr 0 --trials 300 --seed 7 "
     "--decoder sphere",
     "43340c1cc6404d5b8d6d65f7add6c885ab2f343d99534411f2628d466567f595"),
    ("--code alamouti --pam 4 --lattices L1,L3 --metric cer --snr=-10,20 --trials 700 "
     "--seed 8 --decoder exhaustive --workers 2",
     "25bb660feb2c8a7e0582506f2cf6bf17a72830c6dc519cc35ca2651a569aee2e"),
    ("--code golden --pam 2 --lattices L'1,L'2,L'3,{wide8} --snr 0,10 --trials 500 --seed 9",
     "af77ae0aee8127b95bd978a3459e006ff28ceeb5bf00729fcbf15c6e0ca14b24"),
    ("--code golden --pam 2 --metric cer --snr 5 --trials 300 --seed 10 "
     "--decoder exhaustive --n-r 1",
     "bf941b32ccd557c376f7b80051c193299469250b00dab7a24dd40cb598b76917"),
    ("--code golden --pam 2 --lattices {wide8},M1 --snr 5 --trials 200 --seed 11 "
     "--decoder sphere --n-r 1",
     "979dd4442e05690799059081d6e84569247768bf2b6c6607320eda3631e1b84e"),
    ("--code golden --pam 4 --lattices L'2,{wide8} --snr 0,20 --trials 200 --seed 12 "
     "--workers 2",
     "056fd432336388de63bed0d025e1c23663ced6818f5e8e1535f832203c8f14b2"),
    ("--code golden --pam 4 --lattices L'3 --snr 20 --trials 60 --seed 13 --decoder sphere",
     "21f939514bae3b57e82919cbd0e15f6406b951ae3939aa8d7e9a07662acac49f"),
    ("--code alamouti --pam 4 --lattices L1,L2,L3,L4,L5 --snr=-60,-20,0,30 --trials 2100 "
     "--seed 14",
     "0c9ca498657e420f45512773c0fe8008782272898cce4c8c657eea5f14551c7b"),
    ("--code alamouti --pam 8 --lattices L5,{wide4} --snr 10 --trials 200 --seed 15 "
     "--decoder exhaustive --n-r 1",
     "f0f9c6c74ca4a4b8fc8acd292e7500fc9b2fba1e4ef23a7b1653d85db7aa00bc"),
    ("--code golden --pam 4 --lattices L'1,{wide8} --snr 0 --trials 100 --seed 16 "
     "--decoder sphere --workers 2",
     "e0e48cf218bcf2a27176288f3dfecaf58c1820b66d85b2b42fff5131327f55dd"),
    ("--code golden --pam 4 --lattices M2 --snr 10 --trials 150 --seed 17 "
     "--decoder exhaustive --n-r 1",
     "a2c0325db722eb206472be03e946347d85081ef904579b373f879827a5319abe"),
    # two tasks and 3 workers, 300 trials in all, so it runs in process; the
    # digest of --workers 1
    ("--code golden --pam 4 --lattices L'1,L'3 --snr 0,20 --trials 150 --seed 18 "
     "--workers 3",
     "86da526fc97c277ca36d5472f99eb1c112343eed8b3771eed8bde7c4cc0a07a1"),
    # 1200 trials in all: two-level chunks on a 2-worker pool (smaller golden
    # jobs run in process); the digest of the residual-form two-level kernel
    ("--code golden --pam 4 --lattices L'2,L'3 --snr 0,20 --trials 600 --seed 19 "
     "--workers 2",
     "d20b97621724aa84ca55fe3726adb57b1d628039986f818d8b3b4be83beb3cc5"),
    # three receive antennas (Heff 12 x 4), 6000 trials in all on a 2-worker
    # pool; the digest of the product kernels, before alamouti was sliced
    ("--code alamouti --pam 4 --lattices L1,L2,L5 --snr=-10,0,10,20 --trials 1500 "
     "--seed 20 --n-r 3 --workers 2",
     "2c77539125caf161588fd5f2d4a7a91ed639d157cb2a86b93519cdd9e0bbad53"),
    # golden 6-PAM has 1.7e6 words, past the exhaustive cap: auto's sphere route
    ("--code golden --pam 6 --lattices L'2,L'3 --snr 0,20 --trials 40 --seed 21",
     "c45f760e1ab0f44df6eed729c8d10abe70e828fc291c6068ce383268ca4b66fb"),
]


@pytest.fixture(scope="module")
def lattice_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    paths = {}
    for k in (4, 8):
        lat = wide_lattice(k)
        assert lat.labels[0].dtype == object
        path = root / f"wide{k}.json"
        path.write_text(lat.to_json())
        paths[f"wide{k}"] = str(path)
    return paths


@pytest.mark.parametrize("args,digest", CASES)
def test_simulate_stdout_is_pinned(args, digest, lattice_files, capsys):
    argv = ["simulate", *(arg.format(**lattice_files) for arg in args.split())]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
