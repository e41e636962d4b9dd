"""SHA-256 digests of the stdout of the standard command lines, in every
output format.  A change that moves one byte of a table, a note or the
footer fails here, so a speed-up or a refactor proves that it leaves the
outputs byte-identical.

The footer names the version, so a version bump changes every digest.
Regenerate the table with

    PYTHONPATH=src python tests/test_golden.py

and paste what it prints over GOLDEN, once the new outputs are known to
be right."""

import contextlib
import hashlib
import io
import json

import pytest

from pcx import cli

FORMATS = ("csv", "json", "table")

# command line -> digests of its stdout in FORMATS order
GOLDEN = {
    "bounds --beta 0.05:10:0.005": (
        "dd330f00f5e279617d15a55fabb2281364ff05c7b9f24ac27aeccf8175b0b9de",
        "0f5c2b9beb2dcb56a6bfbb473a1c836cf218578783d0afdeaae0f18089a0910d",
        "352be002d8da23bc3b44c6e705f5db98b4e5f7fdbc51f2a196b6ff3c0306b798",
    ),
    "bounds": (
        "0afae8a7b9452874302317ec8dccbb800a9e3e09f188b4e81c1d16479d5adba6",
        "e7bcabe8517bd477f8cc1b2d2c928da6c17d3dc46ce347cde7890b0aaf28adf5",
        "db420ecaecc12bad6495f7012b38f19ef5507e64d547519d7144709e25967062",
    ),
    "bounds --beta 1.37": (
        "b06adc3eb6a054904b12e95302975227670eae507e3e7e17bb66c79779b25451",
        "30ffe8c6c188bef73dfbe9e22a791e490509362eb3b6c81961533dfa7e172d40",
        "0de191762d68dd8778bd348164c4125b70ef7c9a7a14cf7695e8aa6008581ab6",
    ),
    "bounds --beta 0.05:10:0.005 --nstar 1.2": (
        "b37ac5d9ec07ccb410fc7a6064948242780abb76b8d1d9e4a091f0eb0309720b",
        "ae223a16f2040f545a9c95f5028291cc608072469b034797c9499ae0131ed635",
        "4ad7bc14aa07554e3b10d100c337c9a88ffb083242643345a51bf7f1da47a0c9",
    ),
    "bounds --delta 2 --epsilon 0.001": (
        "5f102ad3c868125f7bfe4d1a866493f07dfd8622b83faeca3468a880aada435a",
        "a394c38bbfff15b6e6b1855b34fae7d86855df658cb1ff158dd3e0d694ee4ee1",
        "0787bc9189cb587dffd9258bc9eeab01a117d498d98bd0aefed7568020f1f60d",
    ),
    "twodelta --beta 0.5:40:0.5": (
        "e5f67887ddad11b16ba1f1255c9b8d573a66e24764a6c5ce5c3354e8af253733",
        "c7aee7193e08113a7ba528c54d8986a181ec7b9fd901742f4937d2b82d7c7951",
        "d6e045b2d974f1703199cb2e2af8104630fac1f15750f0ca32ac85201b81ecd1",
    ),
    "twodelta --one-delta": (
        "a7bfbee189dbf96f790e742516785a39edc537fb6b3bae99e0773e5605b6151b",
        "679e239b7dcce83395f557440efe54ad4bcd7adc98980a94c39eead43dba5001",
        "6c1f50bd62e6f99fbc909e3e76827dbdd5765efb2da266e8fcc45036928f8cf5",
    ),
    "gaps": (
        "b8f6d1123b4a6900430277c9d9b43c66e9c5a790acaa9b1b3464f6464aa4c665",
        "0fd1ba033076e918213b7e5bbb83da29ca9d6ff490fedba57ae2fa7c2577e1cb",
        "c329dabc42ebca92734c921295eee3112578a3d1895dad9581155ac84507b4a2",
    ),
    "gaps --tol 1e-8": (
        "4af4b976329b445acf6951397f224d2bda1ef546054374b05663dc6813fc9949",
        "5d8d3d0e5a65595aeaaeaa25654d452ad2403b8fdefb9ac417b61363c8dcf44d",
        "54bf4f0cf0673fbbc9a4da0bf18eaa3bbeefbed220409f734ee55bf15fbee1ba",
    ),
    "gaps --profile": (
        "57de188be91716d03de64b6985d86df5cc02300f4696e4832043bcf0e418bf35",
        "7a203980ca1e4fa09d649b85c62f2d18d1f836445464581999c932a44d9aa2e9",
        "a5bf7d6b2ed6748e9e324bbc14651fede4d70ac7369145290d338e4c0084f4c8",
    ),
    "debranges": (
        "b3b91836a5ca304b8e8714a0f901a7873a2163bac144dc7fc10ed75b973b9ed0",
        "c6210778ef8bcc666384f9c1427fa52d55bc1658ac1b1d95e2bca6e35935514b",
        "3e1f96840e0fb4c4e1a8c2fdffaa606c7ecceaeb19a0bcc6002afe3b3bd1664e",
    ),
}


def _digest(line, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split() + ["--format", fmt])
    assert code == cli.EXIT_OK, (line, fmt)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_stdout_digest(line, fmt):
    assert _digest(line, fmt) == GOLDEN[line][FORMATS.index(fmt)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for line in GOLDEN:
        print(f"    {json.dumps(line)}: (")
        for fmt in FORMATS:
            print(f"        {json.dumps(_digest(line, fmt))},")
        print("    ),")
    print("}")
