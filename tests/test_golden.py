"""Byte-level golden digests of the rendered reports.

The digests pin text, JSON and CSV output for every builtin, for the
float document of ``test_report`` and for an exact document whose radicals
are irrational on both axes, two of them also with ``--max-roots`` 0 and 2,
for ``sphere_link(6, count=512)`` and for a 39-entry exact document whose
discriminants are all squares, plus one ``plot-data`` sweep and three
``verify`` runs.  A refactor must
leave them unchanged; a deliberate output change updates them in the same
commit and says why.
"""

import contextlib
import hashlib
import io
import re
from fractions import Fraction
from itertools import cycle

import pytest

from conifold_spectra import builtin_link, cli, load_spectrum, sphere_link
from conifold_spectra.report import ReportOptions, build_report, render_csv, render_json, render_text

from test_report import _float_document

# case -> sha256 of (render_text, render_json, render_csv)
GOLDEN = {
    "sphere-4-trivial": (
        "4a0e3fb1248292ede0b7a2a6e4c52eaf0ea190ad1c6f4fa54ffcacf37cd51ad2",
        "919d115f7708798c3e0b3524d39c06c8335056a3823129c9f965f53b560abaa5",
        "0a61a8a7a1d2c95c8588495ce17ee00f1c09745ff1d8ed47ec5d18cbd1eab22f",
    ),
    "sphere-4-nontrivial": (
        "86b2721d48147cd9583a9a84c72ee12f273d52a8326eaf8948cd0f75cb52b919",
        "1fffab36ca3271b9a802f1048f695c31e441c517ddd07a28ff1e9c1e59a2f653",
        "6d76d70033c79b9fb87af6da1dd0aa1514b3bc312c49b45cf09b73a886d4a427",
    ),
    "sphere-5-trivial": (
        "1b8b67a0bbb4ebdf2bd6d4346c66f2f47c5ad83c8bce3944f6b2a7284fe5dd82",
        "45f5f5d38eea0bf3ed3a7a5801cecc035c5e9bb45bc8934e9a55d42e521d1761",
        "070a6f34a0f254fadfbfbe491fa607389a68763e97c725a1213af89c3efc7af6",
    ),
    "sphere-5-nontrivial": (
        "b941425ce17633d0f4c64fd1c13316874e7f0364badf022c4375614a4b21d9e9",
        "531b299b06c454520bf3f338f4f3b0163f731de343136f46ae2894f43f737184",
        "a0924850c2a774341c1a0a8a879f1f9ac610d66a1676ed967091d36f56f71d15",
    ),
    "sphere-6-trivial": (
        "2e67db932a7b01780dfa0b8e40f7468d6241af6ba912e8c69a9e6893644dad9b",
        "9f1820aee4a2ca34fbd8269dfbed203e4fd0908c6cd80bf8b72a827baaf1e9c7",
        "bbe7245720c2e399719950393ec4a7ede8b6cc6263006997e48ede96fc5468d6",
    ),
    "sphere-6-nontrivial": (
        "b3a4a8c815a1cb4536f912b43d509ec586aaf95a66f4aa64837855621731a561",
        "344c4487ecc96dc33fe724ca2689dac44531ef72bf788d33cdec7f63822d9eaf",
        "6ec8f1899e91e6e96f874a4061e5b49d6112e273b0c1b875eba4737e188c9e83",
    ),
    "sphere-7-trivial": (
        "6f3d81075a551760188c52f65295edb9a6c278ed5ee019f698d81082f05b17c5",
        "ee1c6b3f6ababf8590fbb7cffc46adc8f02efa09198e141a7b8349ed7fef57b3",
        "6aa8e1f5e6c7a4d8108d5f291487a93b533a7b98b53998fa1133ecce1d2bc160",
    ),
    "sphere-7-nontrivial": (
        "2ab7959666a31a233b073e00ef4f0e30f5f5de1e968e4483a29f60e320cb1aaa",
        "a31dc9ea6f97dea07531199718a282200899e690462c5de056a759498fa9a8a4",
        "1887ba82dae62b5ebff8f12404f96ae449b28f11f42993f568d2731d8e77cded",
    ),
    "sphere-8-trivial": (
        "4c71300cfde8c864d543c84382170c6c8998611e159f538603a239f6df0d3e2e",
        "73d5eb0ebdb2e3d075c52d790b004884d7f2cb78dbd398a514234cffaaf7bc83",
        "85e3abe9cffc5cc3dbec2948265a64ea58aaae8d49cb79c20c6b51f83ee30750",
    ),
    "sphere-8-nontrivial": (
        "03bea1eb18c52f7c1d0ff6e9268e92be2dab5b46268c9bf1e218dbf036cdf9a1",
        "fb1ab2be6bd91b1428935c18255dd2caaa0a47fcfb4ee32e10bd693420155daf",
        "fad0add2cd3af9d424bcf5ebfec850ab6f08e46bd177a2402fbe44032eacd992",
    ),
    "sphere-9-trivial": (
        "504c19c560a037a90b4a2ec1a35fb48d297f0f0c8f2f133e311696b8ffaf3930",
        "82ffcd15ff6e8502c0fb041316686ae344f5ae233847d60e733eb0c8d73d21c6",
        "d9013c57ac2be28c1206e49d9253edd1b1e8519a1ba072a99512f622ab1749a7",
    ),
    "sphere-9-nontrivial": (
        "a0d0f8c0581ca69b128f6a1b92cf6142125c7dc6732c89c425cbb3b9e4aed846",
        "7aacf02e03be2c20f1c67a8fa3b6bc00a1701a01d6f9c071074d24446a645714",
        "ec03edba745ca35183cbd4151b471683d1f5a5a76999a9b2aa9c4d437e486d2a",
    ),
    "sphere-10-trivial": (
        "a5dd2163a7019a359057ae8de85f620d5316b75de1a5e74ad1b2d5cbeae28881",
        "4981705a395c5ace6c7bab15b5f8215cf9c0d15ace69da5b8ecaec9cbaeb8392",
        "d7606cec4eee346037cbb836637c954228d71a6f51db4b9e220ad053cc140ce5",
    ),
    "sphere-10-nontrivial": (
        "a1f05a6f40d87c8278452f607d540920afcd4c2c20a494eb62ea23790391f23b",
        "fccdcaf3f7ae5301d08276aa2bcb8521364d631512bdbbf88de34da103cb9fe9",
        "ab5cf6c0717f42a00c58361e46a5fdf5ead615bb146232a2c30e32d1bbe25f5b",
    ),
    "sphere-quotient": (
        "86b2721d48147cd9583a9a84c72ee12f273d52a8326eaf8948cd0f75cb52b919",
        "1fffab36ca3271b9a802f1048f695c31e441c517ddd07a28ff1e9c1e59a2f653",
        "6d76d70033c79b9fb87af6da1dd0aa1514b3bc312c49b45cf09b73a886d4a427",
    ),
    "product-einstein-10": (
        "7a073d0e7eed330da4ad0795b49d7eb5e1024cb2e5b8bd1d807307aa152e115c",
        "f87d29454b9356f1082542a74306b6cbade01499b3d0805c08c0c5657ebd4f84",
        "38fb30f08724327671068c0f2ba19bb0028d02320120af908f3b7e7c27e83892",
    ),
    "irrational-document": (
        "9921d780a7b0d62c7b37a5f9f71b191a997e67cd5e95eace1b8b51132c654127",
        "8e8a0fb2642cbdd172c9dd44a7e2b387ea7ee15c1d4b9af96bae40199d80cc63",
        "dad833aa38073f81a0e23501459a2ef9f2f4245ae50158fe8ec86170b3918599",
    ),
    "float-document": (
        "404a32aa47f5dfb330e6a009be702430aab4d993e968a1f35937d10e359c5640",
        "24356d09953135cc7ec3a713f58f463771f124ce8e11d9df7de2c1256659d6ec",
        "c64a91b5017f7ef4efb59706b674a1b079f7dbbf5778183d12585fcd33e32665",
    ),
    "sphere-6-nontrivial max-roots=0": (
        "15a23febc97682ce1342001739b1d0ed8f9d6579084ca45cd37c3f72cdf3ae4e",
        "c538b86deba19cd3758735eb4a0f38a867e1f0360af0b48d731c501fe0abda97",
        "c73978ffd8f80fd647d901dcc14b17e8b9216e99920398eff9ede5548bf4560d",
    ),
    "sphere-6-nontrivial max-roots=2": (
        "24b3dc7637a6698e1ea45797afcb6c4fc1d5a77afe38d0344257d2d34ed267eb",
        "9fd82e624fbdd270c12a2a8f79562f7de5b0a60bc1b6906a35fd5296ab392cea",
        "b702ff1681f22b37b71a1dd2e59fae8133d399ba989c6eed06f1d8c6f52cf906",
    ),
    "irrational-document max-roots=0": (
        "f289f6c6ba17ad33cfd188906b0f8ddc7000e1522961ff4ae2f7713d3520de9b",
        "25e18c9763eefe681b9737839e6f276fc4807fb364e17d4fc1db71b2f445c773",
        "566bf943ecc2ff51b908acdd2b13dcec804f926d7663c67b1c1d41ca11e95e36",
    ),
    "sphere_link(6, count=512)": (
        "dd4c6bbef0837aad5312c14b3fcf3508f209994f7cb9708ff1edc706b3d0f09f",
        "619ae8d765ca27c5f27e4db9a45ed562ef7135ac9b087c3d791e1297681eadd3",
        "2b04c2053153bc484e57b313b0c76546b33d1945bb945ecd7f5dd6359885e7de",
    ),
    "square-document": (
        "6e4737b5665d76d6767946b27872a316d34436e4dff5f25df9f74af06df45737",
        "be555f8aa2b5e4dcb50ea7d911a0c586886c4bd3c7506414e885817857ce260f",
        "7cf538b9e8afaafd718b7b8e847ada595a5d1505f52c617d5dc98a0aa2a456b9",
    ),
    "irrational-document max-roots=2": (
        "cc5f8e1ec72550f264c2b9c436cd3c05c8846b8cf65bb7f36a8c392cca42493d",
        "c07bf38f7c1c3d3317b9d370b504e1f6f081ad41457cdedef4a25ab88861498b",
        "0c4dad13f4510d47d5541f32f674730a55358c158504ec0b594601d625433037",
    ),
}


def _irrational_document():
    """Exact n = 6 link whose discriminants are not squares.

    kappa = -6 and -13/3 lie below the window [-4, 0) (imaginary radicals
    sqrt(2), sqrt(1/3)), kappa = -1 inside it and kappa = 3 above it (real
    radicals sqrt(3), sqrt(7)); mu = 5, 13/2 and lambda = 6, 8, 23/2 give
    irrational real radicals too.
    """

    def block(values, complete):
        entries = [{"value": v, "multiplicity": None} for v in values]
        return {"entries": entries, "complete_below": complete, "mode": "exact"}

    scalar = block(["0", "6", "8", "23/2"], "23/2")
    scalar["entries"][0]["multiplicity"] = 1
    return {
        "dim_cone": 6,
        "name": "irrational radicals on both axes",
        "scalar": scalar,
        "coclosed_one_form": block(["4", "5", "13/2"], "13/2"),
        "tt_einstein": block(["-6", "-13/3", "-1", "3"], "4"),
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


def _square_document():
    """Exact n = 6 link, 39 entries per list, every discriminant a square.

    Each eigenvalue is eta(x) = x(x + 4) for x on a walk of steps 1/2, 1
    and 3/2, as in the large exact-square documents of the benchmark, so
    every weight is an integer or a half-integer; kappa = -25/4 lies below
    the window [-4, 0) and kappa = eta(-1/2) = -7/4 inside it.
    """

    def walk(start, count):
        steps, out = cycle((Fraction(1, 2), Fraction(1), Fraction(3, 2))), [Fraction(start)]
        while len(out) < count:
            out.append(out[-1] + next(steps))
        return [x * (x + 4) for x in out]

    def block(values):
        entries = [{"value": str(v), "multiplicity": None} for v in values]
        return {"entries": entries, "complete_below": str(values[-1]), "mode": "exact"}

    scalar = block([0] + walk(Fraction(3, 2), 38))
    scalar["entries"][0]["multiplicity"] = 1
    return {
        "dim_cone": 6,
        "name": "exact squares, 39 per list",
        "scalar": scalar,
        "coclosed_one_form": block([v - 1 for v in walk(1, 39)]),
        "tt_einstein": block([Fraction(-25, 4), Fraction(-7, 4)] + walk(Fraction(1, 2), 37)),
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


def _case(name):
    """The link and options of a golden case; a " max-roots=N" suffix truncates."""
    name, _, limit = name.partition(" max-roots=")
    link, options = _untruncated_case(name)
    if limit:
        options = options._replace(max_roots=int(limit))
    return link, options


def _untruncated_case(name):
    if name.startswith("sphere-") and name[7:].split("-")[0].isdigit():
        _, n, quotient = name.split("-")
        link = builtin_link("sphere", int(n), gamma_nontrivial=quotient == "nontrivial")
        return link, ReportOptions()
    if name == "float-document":
        return load_spectrum(_float_document(), eps=1e-9), ReportOptions(epsilon=1e-9)
    if name == "irrational-document":
        return load_spectrum(_irrational_document()), ReportOptions()
    if name == "square-document":
        return load_spectrum(_square_document()), ReportOptions()
    if name == "sphere_link(6, count=512)":
        return sphere_link(6, count=512), ReportOptions()
    return builtin_link(name), ReportOptions()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_renders_are_byte_identical(name):
    link, options = _case(name)
    report = build_report(link, options)
    digests = tuple(
        hashlib.sha256(render(report).encode("utf-8")).hexdigest()
        for render in (render_text, render_json, render_csv)
    )
    assert digests == GOLDEN[name]


def test_plot_data_sweep_is_byte_identical():
    # n = 6 from -6 to -2 in steps of 1/64: imaginary radicals, the
    # resonance nu = -4 and real radicals, mostly irrational
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["plot-data", "--n", "6", "--nu-min=-6", "--nu-max", "-2", "--step", "1/64"])
    assert code == 0
    assert len(out.getvalue().splitlines()) == 258
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == "a91577c044654971130254d56b3a3865dc664e1c7650f689d2d2aca1b372a42c"


# argv -> sha256 of the stdout of a ``verify`` run
VERIFY_GOLDEN = {
    "verify all": "32a2bffd4ad80f238cdad7688b2dc5394953c564143a00253ce90953a263f082",
    "verify flat --n 6": "943ea767d6717ad7de71dd2e8ec1545431417ae5e07cb64b5ae3a6befad57384",
    "verify identities --n 5": "0ab3ccb98fd5445b0be11079f734371b2d7da093e3a99cd8f5ec0e15980f6121",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
def test_verify_output_is_byte_identical(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv.split())
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == VERIFY_GOLDEN[argv]


def test_verify_all_prints_no_float():
    # every verify verdict is exact, so no digits of a float reach the output
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all"]) == 0
    assert "radial ODE checks:" in out.getvalue()
    assert not re.search(r"\d\.\d+e[-+]\d+", out.getvalue())
