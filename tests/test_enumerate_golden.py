"""Byte-exact pins of the counting commands.

Each case runs ``main(argv)`` and checks the exit code and the sha256 of
stdout: ``bijection n`` for n = 2..16, at n = 20, 30, 40, 50 and 60, and
just outside its range (n = 1 and 61 exit 1 with nothing on stdout), the
count-only ``paths n`` for n = 2..14 and ``paths 30 --force`` (its warning
goes to stderr), and ``partitions n -u u`` at a few values, one of them
D^14 and one past D^n.  The large-n cases pin the counts whose digits are
widest.  A change to any byte of a table changes its digest.
"""

import hashlib

import pytest

from flagcomb.cli import main
from flagcomb.config import ENV_VAR

# argv -> (exit code, sha256 of stdout)
DIGESTS = {
    ("bijection", "1"):
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bijection", "2"):
        (0, "1be9218583aa7272ebc99d3f3b71edbdefb89647b59a2a56f4b6320479e1fed8"),
    ("bijection", "3"):
        (0, "de3ca0226139a8e99fc57793f8c817a41baa82aea6217d42b4d351832e7da680"),
    ("bijection", "4"):
        (0, "f2326ce63566049228b3b8f353e9ae3a66a28d658cff533c812c092955d95f3f"),
    ("bijection", "5"):
        (0, "bb3cda903ba8ad270427ca55598fa9f6781cfbd7ea5d7f2f315ae60f88e93a8d"),
    ("bijection", "6"):
        (0, "62192009b51aaa26d6a95b632792b7116f0a83c7fb46153bb7ebdc5c0b2d18b9"),
    ("bijection", "7"):
        (0, "c7169a2b417f8b5ec0c1d25a66d39eb2fccd6d6eef96067b1ff9985951e4a214"),
    ("bijection", "8"):
        (0, "a7d692e32bbcf279924a088aab8d500ca9ae3f2cf80910d4513f30c95a229b2e"),
    ("bijection", "9"):
        (0, "8f84581e0127cc88540c7c7ccbcb3a6a98a1916b026a093c5f79643cc3ec287c"),
    ("bijection", "10"):
        (0, "4d014760fef4e06e807e991c4dd75c7e648749a4e8f4dda5c395d4b7afe71e76"),
    ("bijection", "11"):
        (0, "7a66c90e3ebefa89a2b32bafa3614ddd6b5e53b771af10471e1f3ddb46fc1abd"),
    ("bijection", "12"):
        (0, "a65c235376d15a815263a7a75ce5f56875fbac7be2340cbb3d814c569d482507"),
    ("bijection", "13"):
        (0, "9329fd8f7002d7a81bb8495694604b66c9d6fc0d32f538cb403077da4427f26c"),
    ("bijection", "14"):
        (0, "32f20733ea19da194b62f01adf7073e71725137e4f551c0add0e6f9dada88a1d"),
    ("bijection", "15"):
        (0, "99753abede3233552cf08aa03fbc29114c6db01cf0a263a1d9e4edf9cd8e07ae"),
    ("bijection", "16"):
        (0, "7e01d300c604add330f830593eb4ae72bb3f93aedd2775d51a891be79c69c640"),
    ("bijection", "20"):
        (0, "20569504185758aec76a60df0e3b511bc7a63540b2c5d7ee55fabdd10643161f"),
    ("bijection", "30"):
        (0, "6dd6cbfb8e24bbccf7c276fc3c5f7fcb8f352f8542964b47d367f10add355153"),
    ("bijection", "40"):
        (0, "92368a9f6d17152240eeadadd4b2b39a81f053c2a59f153fecb2a92c9698e0dc"),
    ("bijection", "50"):
        (0, "e73d235e914ee4176dba07c5722121033e83d92d7f60e9a986666fd1d2f2f0cd"),
    ("bijection", "60"):
        (0, "e2bb28b36f921e3f9a744363f6c04d10ee6a9a7878aa9996cfcf83e6af097573"),
    ("bijection", "61"):
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("paths", "2"):
        (0, "d29079d8af24a04758836d129f77333b4643dba7227c39668efff0378151f80e"),
    ("paths", "3"):
        (0, "4bc81b2c717c2c1dd60ff8a66a8113ebba7843c6687e161a078280b217bfd951"),
    ("paths", "4"):
        (0, "fabdac5e5627a2204a02933e4e0ebd70746c382063bedd199241b7f996f0e9f1"),
    ("paths", "5"):
        (0, "c8d2fbd4113da343431df2d8c277ca937cb1fe4f5d5fe9ed12d18db27158892e"),
    ("paths", "6"):
        (0, "7ce2324a1888dd63e86ad6445fee31a181e7030b692e6f4fcad1446458954919"),
    ("paths", "7"):
        (0, "4a6bc2d0c70a1b2a17301d3605c37c50eaa0e0896ab74a41525999008ab4c963"),
    ("paths", "8"):
        (0, "79161c0b776d65bab11f521a06e1706fae3c1143350c587c6bd44d7b82216afd"),
    ("paths", "9"):
        (0, "35784faa76e15a43ea34d40bdc8bd4bdd0ef6e99284f0199b9d182b5a7d7db8e"),
    ("paths", "10"):
        (0, "2e677d14de50cb1b2bc0777c09c4198bd7bdba577c0544f3a24ba046b4736c7b"),
    ("paths", "11"):
        (0, "5699af27f4a8a1fa2c99d5ef77f0690f29653b44d16e262c93d5d7c10a1d7d41"),
    ("paths", "12"):
        (0, "560ebdbed0bcf9049bada4412cc4088e2d9d519cd934e5afb5f9d21bdc233c59"),
    ("paths", "13"):
        (0, "3218162a090e6f3c35a19279e71134e0975114dd4b89b7f8b3a9804495706d7d"),
    ("paths", "14"):
        (0, "5556a1461ae9ad2cf29921a2a4f48af244a475ad429a08de587b1a79f8bf6080"),
    ("paths", "30", "--force"):
        (0, "09cc1b71f2848e7960fe09d6c69d10948e7f7deeab1256eca15e97fe0df0993f"),
    ("partitions", "6", "-u", "0"):
        (0, "dfe9c62ce3f4496527abde20a43798e4d9c5de9306d2c1603610d76f908f400b"),
    ("partitions", "9", "-u", "5"):
        (0, "30412c8f83ef3312a247f6650b58088f4c7bc7d4a141b0f938208c1b26b914de"),
    ("partitions", "11", "-u", "12"):
        (0, "ff96c5d88269dae509be946290dfb35959233c581062a5f90204d2034438af67"),
    ("partitions", "13", "-u", "20"):
        (0, "4e5352ea5b4f24bffd8f0c5bb74cd388371445cc6e364415652e7e8e039e1776"),
    ("partitions", "12", "-u", "99"):
        (0, "7b9b0b25ca74795e521140c04bd04e128481dda6701f55a1cfc6726d8091818a"),
    ("partitions", "14", "-u", "0"):
        (0, "7c5d1d8d60da12b5b5fae3b37755c6770700c0adebc44ab2b0d64227e9c84cdc"),
    ("partitions", "14", "-u", "24"):
        (0, "95dfaaa9130885cba6d0284ac1f7af880d195dc7447f5ede49ecb98314550eae"),
    ("partitions", "14", "-u", "49"):
        (0, "2f4e058d20b3c78dcfd8cad15762c7a6f9db2b466af857c5a4bd3a1f86b49884"),
}


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_count_output_is_pinned(argv, monkeypatch, capsys):
    monkeypatch.delenv(ENV_VAR, raising=False)
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[argv]
