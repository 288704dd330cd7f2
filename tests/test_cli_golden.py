"""Byte-identity of the default CLI output.

Each case runs one subcommand in-process on a named corpus graph and
compares its exit code and the sha256 of its stdout with recorded values,
so that a change to any byte of any report shows up here.
"""

import hashlib

import pytest

from nscycles.cli import _COMMANDS, run_command

# Graph name -> (--circuit for decompose, --thread for theta).
ARGS = {
    "k4": ("1,2,3,4", "2"),
    "prism": ("0,1,2,3,4,5", "2"),
    "wheel-5": ("1,2,3,4,5,6", "2"),
    "petersen": ("0,1,2,3,4,5,6,7,8,9", "2"),
    "random3c-10": ("0,1,3,6,8,10", "2"),
}

# (graph, subcommand) -> (exit code, sha256 of stdout).
GOLDEN = {
    ("k4", "info"): (0, "5eb95f86c969a32b1cee3174442f6128e28ef3a9351cfc95d91fc8dcb689f844"),
    ("k4", "blocks"): (0, "7d89bbe78c59456175446f1eb430ef7a37a8e10e92f1b3c729c1e9c81801ac31"),
    ("k4", "threads"): (0, "ffcd14f1bb3aadd9517f6d64c3fb851ef566b806f7a8a1ed153719688928df5d"),
    ("k4", "circuits"): (0, "eaf110f455f3480a4f78a986bf62b8973e6c16c1bfb91fef21130cb6bc45e02f"),
    ("k4", "nc"): (0, "89a39de8641c18e219a90d304051ddd37591e2d9f12408592beb49752d986c0b"),
    ("k4", "basis"): (0, "27da27efc7cd71ded1aefec24b0c9711cb284bf68939ee3ba29dc902818d8b1e"),
    ("k4", "decompose"): (0, "e54bfb630fc9fc2452f48507f370701cfe2aa561087630facf8d23c6aa04487a"),
    ("k4", "theta"): (0, "6fc31c7d8df589b7c1e160e99911d139fcfc9ed368e936fa9557952656541f9b"),
    ("k4", "ears"): (0, "e73ea5be6b31f2e320184df457aa57d987d664acca53f4cdce081e533c1b5c52"),
    ("k4", "bonds"): (0, "0b4e37fbabc5a64bd3c27f174274e338db41a40accbf51571401d315a77aa23b"),
    ("k4", "whitney"): (0, "fcbb55c072cfeea8ed019797b1150ce56018951621e9dd1013ada98b25179f60"),
    ("k4", "verify-all"): (0, "f16e40968d633bd7018b01dbb94420542b9cf6688842557bdd5b3e9b5c5de1d3"),
    ("k4", "gen"): (0, "314a7a6e509cfbd2d4baad69e2fbed713345d77f2056c4809006ce3955b61fa0"),
    ("prism", "info"): (0, "d9941a81739931261cb9275e7cac2e3f7fd895e141a74beaadd0124c72ed0207"),
    ("prism", "blocks"): (0, "55664604ef8fed1c250fd9be4170fc4707a84432a494cc698fdadaafe94f3534"),
    ("prism", "threads"): (0, "4c8419d753c5729d59b0249ad66ea45aeea089fbcfe697c5d2f7b00cd8546c1e"),
    ("prism", "circuits"): (0, "c8bf47a5aedf7a27fd93a5bdabb821bf705d20b5dc4a8e5ff252c06911c35a84"),
    ("prism", "nc"): (0, "be880e4c230d8b052c0812aeeb8746ea5d2e6af01ef6c5363169502ebdb83eb7"),
    ("prism", "basis"): (0, "31a18f6bd307e0cbff4585324a38869f68628682b237561fd32ac00f70a6d1b9"),
    ("prism", "decompose"): (0, "0ffd151a05683b8d7efee8c503c8369761438b564c9116c9bcad0a5371a0c6a5"),
    ("prism", "theta"): (0, "7c3f8ce56d5498f75aad18a25daed531cd305afd7d9df91f956ff315bdfba1ae"),
    ("prism", "ears"): (0, "65c9c5ad4388ca5ae629c2d1eaf03a10e8086812b077d9dbd1de93932b47573b"),
    ("prism", "bonds"): (0, "d28b44ea262549ebd7c97f4be70966625171aca3ed30edff2d15180aa16708a8"),
    ("prism", "whitney"): (0, "59cabcec7e2112b848ca987660a8ba6633447f5b59b1c7848a2ec815ab9da367"),
    ("prism", "verify-all"): (0, "5d20da318d58276fc2223f647204746538d2e95377133bd56953490414d764ce"),
    ("prism", "gen"): (0, "35866a06060c3744ba41830412113b0081e50fa8423b743a3ed799cd64af6b12"),
    ("wheel-5", "info"): (0, "dc28e2fc9401df49ec2be4c8ce7bf8e730a9dbc6ea29a906b2b939cfb7486510"),
    ("wheel-5", "blocks"): (0, "0c19fccd2f304e767011e0400100a30e5b07366c4fd41d76449c0b0d19be768e"),
    ("wheel-5", "threads"): (0, "1d94e0825df2edf25be1c9fec283308374bcda0be4fae15b7e8755b0aa5d675d"),
    ("wheel-5", "circuits"): (0, "37f92541cb81468febd5b02c78dc50a263b02472e2681011ef1793be92dee764"),
    ("wheel-5", "nc"): (0, "ccd809c1a18c1f6b5e74d2895c9034bb26e4e385d1eb338450cfc55478625572"),
    ("wheel-5", "basis"): (0, "5bb1dde5a4fa72d585ebe1ba010a861c69e9534ce78e6a9dcd0ed79666d42ae3"),
    ("wheel-5", "decompose"): (0, "4e56d0147c63ff4bac7092159984cc2d3c6c87184a58b71414a03537618d07a4"),
    ("wheel-5", "theta"): (0, "5fc47852b31ae19cdddee1b6e366b04324a4563c653699399b4709142a8bdbd2"),
    ("wheel-5", "ears"): (0, "07f37e6fdd2f4677ec4a580f91b069eaa703930152b6933dd7b19bb3a3c21ff2"),
    ("wheel-5", "bonds"): (0, "06e33ed34fb2373c7dfc50e07129e25f3936a9b71f4425de3f583364853611c1"),
    ("wheel-5", "whitney"): (0, "13fefce3ac27d2712b54a48668818ce0ddb031ece49fab791ec642178358b381"),
    ("wheel-5", "verify-all"): (0, "f29d3810ae92b15fddac99529ee20ae53c961f0647256d5fa5b7fa9cde45568f"),
    ("wheel-5", "gen"): (0, "61eb205b411568153a03842df3fc25d3cb0a1ed16bd7753de3828b792b13c522"),
    ("petersen", "info"): (0, "66c50581a03a5837e14214631b53d3fd5f71ebaf170f0b97561e999ba09827c7"),
    ("petersen", "blocks"): (0, "8b1d1a8dc80c66aba5fc0a55d5d16bcf105de7e2a3aa48695854c0530ff2b470"),
    ("petersen", "threads"): (0, "079fb504686db569bfc3da5556d24de445d2406081a209c08d87ede0c60328ca"),
    ("petersen", "circuits"): (0, "698a0392c3904003ca3f6a794d78168670fef426e49ca778d378fd224c0013f7"),
    ("petersen", "nc"): (0, "0ac6b5ae9ebd42eb1cd8a6e1b482de4537b9dcab0fb371163edaf461144b7097"),
    ("petersen", "basis"): (0, "d512d14055106aa6ffdd65114a4559482739ae9d252fc08ec54c0657cb65244e"),
    ("petersen", "decompose"): (0, "e92c6c29e33d0f29b7cbdcaff04550f84ee75ab84e5b64ca372bc14ec9a8ea2f"),
    ("petersen", "theta"): (0, "8488bc732fe1523573ec55f2818705bdd4990dc811f814ea6777d18cdd23dcbb"),
    ("petersen", "ears"): (0, "7b9235e9410da104491d5056b1a8baa96900ca5171c8d75cce7407f7df8eff63"),
    ("petersen", "bonds"): (0, "3e7efbc0d22efda4ff42b65baf6ae1ed3d4705f3f0f4b1665d7b2d137d5ae7b1"),
    ("petersen", "whitney"): (0, "6debc2740704abb01db32df0afac9fcb3ddb8cc6e5fac2cf6c27f339a9e85691"),
    ("petersen", "verify-all"): (0, "d4d8c8ab8d69ae2f0200755ad4b731983a665a8d35b1340f420bc28b8a626b4b"),
    ("petersen", "gen"): (0, "8706067ce57de7fa5a08eb6af35a33e12f3a1e23d62246aa00e0a4e0b253897c"),
    ("random3c-10", "info"): (0, "c789bea27368e99d926288cf832345cd97ced61b568e3891fd40dc9df244e0e3"),
    ("random3c-10", "blocks"): (0, "1a195f1ce9e7b0b8b77141cbb89b6fcecefbe4f7fbcd12c2c5eaa0048a29d086"),
    ("random3c-10", "threads"): (0, "ff84324899091fad71b1249b50a851cfb10339a65acdcdd3d466c8664d461c5d"),
    ("random3c-10", "circuits"): (0, "12020c6a1bf8619409fabd68ca968468e9a3851102299db6c838349346b4608d"),
    ("random3c-10", "nc"): (0, "89699268cace498e1301b65fe99e361f8fa32982af3a3bea919155548d25e28d"),
    ("random3c-10", "basis"): (0, "9c8e3d7f80440976cd7b45a2498bb96a4c6e0322827a1860b7cf49583773796f"),
    ("random3c-10", "decompose"): (0, "5d383ce88f239e737902975351207e02ca5ed6312154eed5e45bba7c45f8a7d2"),
    ("random3c-10", "theta"): (0, "62e50743684319a80949bcd5829875fb6e658089f2d682885155e57871d8b3d9"),
    ("random3c-10", "ears"): (0, "3122a69653a97fc3ae7ba13ab3c84fff5ad8648c7edffe8d06458da07632e944"),
    ("random3c-10", "bonds"): (0, "161bc76cc3bf1387c7725fe85850aa683ff683ab109e5dbf0c57e235eb3ba260"),
    ("random3c-10", "whitney"): (0, "a5a4f9ad578e66c2ae764b349588dd01bc0b5af3bb3e065e67bafd6efa57ef49"),
    ("random3c-10", "verify-all"): (0, "b9c604517a503c3814e4e8bd51b505d22b4e00f89717d436d020d6a0c65ec446"),
    ("random3c-10", "gen"): (0, "b254810bbbda9151a2eccb855bd14c42b2f718357f4526c546b3a6558cdc2720"),
}


def test_golden_covers_every_subcommand():
    assert {cmd for _, cmd in GOLDEN} == set(_COMMANDS)
    assert {name for name, _ in GOLDEN} == set(ARGS)


@pytest.mark.parametrize("name,cmd", sorted(GOLDEN))
def test_cli_output_digest(name, cmd, capsys):
    circuit, thread = ARGS[name]
    argv = [cmd, "--gen", name]
    if cmd == "decompose":
        argv += ["--circuit", circuit]
    if cmd == "theta":
        argv += ["--thread", thread]
    code = run_command(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name, cmd]
