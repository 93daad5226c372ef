"""Golden payloads: the sha256 of stdout and the exit code of fixed CLI
requests, pinned so that a refactoring which changes any canonical byte is
caught, not only one that makes reruns differ."""

import hashlib
import json

import pytest

from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G
from fslat.cli import run
from tables import greatest_transversal

Z4 = G.make_group([4])


def _tower():
    """Cosets of {0} above cosets of {0, 2} in C4, above a zero: the atoms
    l0, l1 hold the even and odd upper elements u0..u3; not free-minimal."""
    carrier = ("u0", "u1", "u2", "u3", "l0", "l1", "o")
    lower = {i: 4 + i % 2 for i in range(4)}
    meet = [[6] * 7 for _ in range(7)]
    for x in range(7):
        meet[x][x] = x
    for i in range(4):
        for j in range(4):
            if i != j and lower[i] == lower[j]:
                meet[i][j] = lower[i]
        meet[i][lower[i]] = meet[lower[i]][i] = lower[i]
    return A.FSemilattice(Z4, carrier, meet, ((1, 2, 3, 0, 5, 4, 6),))


def _twisted():
    """The twisted multiple of the one-element factor over C2xC4 > {0, (0,2)},
    built on the lexicographically greatest coset members."""
    c2x4 = G.make_group([2, 4])
    h = G.subgroup_from_elements(c2x4, [(0, 0), (0, 2)])
    return C.twisted_multiple(c2x4, h, reps=greatest_transversal(c2x4, h))


def _fan():
    c2x4 = G.make_group([2, 4])
    return C.maroti(c2x4, G.subgroup_from_elements(c2x4, [(0, 0), (0, 2)]))


def _escaped():
    """A three-element table over C2 that is not commutative at its first
    two labels; the labels hold characters JSON escapes."""
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    meet = [list(row) for row in fan.meet]
    meet[0][1] = 0
    return A.FSemilattice(fan.group, ("caf\u00e9", 'say "hi" \\ bye', "o"), meet, fan.action)


ALGEBRAS = {"tower": _tower, "twisted": _twisted, "fan": _fan, "escaped": _escaped}

# name: (argv, with {tower}, {twisted}, {fan} and {escaped} standing for algebra files)
REQUESTS = {
    "build-twisted-chain2": [
        "build", "twisted", "--orders", "6", "--subgroup", "0;3", "--u", "chain2",
        "--transversal", "3;1;5",
    ],
    "decompose-twisted": ["decompose", "--algebra", "{twisted}"],
    "decompose-fan": ["decompose", "--algebra", "{fan}"],
    "simplicity-twisted": ["simplicity", "--algebra", "{twisted}"],
    "simplicity-fan": ["simplicity", "--algebra", "{fan}"],
    "check-minimal-tower": ["check-minimal", "--algebra", "{tower}"],
    "quasi-tower": ["quasi", "--algebra", "{tower}", "--qi", "x^y=x & g0^2(y)=y -> x = g0^2(x)"],
    "hasse-actions-tower": ["hasse", "--algebra", "{tower}", "--actions"],
    "verify-bijection": ["verify-bijection", "--orders", "2,4"],
    "group-subgroups": ["group", "subgroups", "--orders", "2,6"],
    "balpha": ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "7"],
    "balpha-negative-alpha": [
        "balpha", "--alpha", "(1+-1*sqrt:5)/2", "--beta", "sqrt:2", "--samples", "289",
    ],
    "validate-escaped-labels": ["validate", "--algebra", "{escaped}"],
}

# Recorded with the tuple-coded twisted multiple and the pairwise separating
# search, and balpha-negative-alpha and validate-escaped-labels with
# ``json.dumps(payload, indent=2)``; the coded versions and ``cli.dumps``
# must reproduce every byte.
GOLDEN = {
    "balpha": ("9bb173704871ab7eaca6e17e6a69ed66e562849fa8e5c21c1fee7783d1d3f56c", 0),
    "balpha-negative-alpha": ("c2aad3fb9d5617e5528324ad8a5a83f9f0576ceb92cecaab01d97c2edd0d213e", 0),
    "build-twisted-chain2": ("9c6e0b20969aea8a6dd8a5941f92eb3048b7b04392062a04cd4c456ef3cd695c", 0),
    "check-minimal-tower": ("0a72ca46c354bdba27671aa7747dc3f429732ee3490efaf27db6368fd275ea8f", 1),
    "decompose-fan": ("a197ff4da634a5a40dc84e8d25f4f5b3c9bb5db91532a9b098adf3c3aebc90e8", 0),
    "decompose-twisted": ("1384072ecb2e93ae0d11d20756f34c0996754cc3eae0da3c4e003d87fdccca13", 0),
    "group-subgroups": ("ae34c30e186bb87c06e5304b240ae2c8477cee208cdfaa0fd5e6dd861ae23a9b", 0),
    "hasse-actions-tower": ("754f1eaff5c3fc3c88e6c237522b5cddad11e9b6826fa9ddb9a24b65e3205a01", 0),
    "quasi-tower": ("bca20456c99b8e4a6a791069f95675ea41f0e3b999596cd568c4e8dadce72f1f", 0),
    "simplicity-fan": ("aa1c7ced6c55f9ee6143387cfb55659ed7118ed77e4565669f47c155b358eb3d", 0),
    "simplicity-twisted": ("f873c1d3fd5ae3e9fac8e72ff5172f66c7ae24b9ce96888258f953982e587f68", 0),
    "validate-escaped-labels": ("8ccbb27fd3f56e98a09a7769e9deb97feed18a05433f7977f642b42880dcf919", 1),
    "verify-bijection": ("3083732fe32e55a7afae2c011e9df6caa3aad46e7e8ef94cf1717557da5fff4d", 0),
}


def outcome(capsys, tmp_path, name):
    """(sha256 of stdout, exit code) of one request, the algebra files it
    names written under ``tmp_path``."""
    paths = {}
    for key, build in ALGEBRAS.items():
        if "{" + key + "}" in REQUESTS[name]:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(A.algebra_to_dict(build())))
            paths[key] = str(path)
    argv = [arg.format(**paths) for arg in REQUESTS[name]]
    code = run(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_payload(capsys, tmp_path, name):
    assert outcome(capsys, tmp_path, name) == GOLDEN[name]


# sha256 of the ``verify-bijection --orders`` payload of every group of order
# <= 32, by its orders: each fan's minimality verdict, stabilizer round trip
# and size, pinned group by group.
BIJECTION_GOLDEN = {
    "1": "f5576c3f985f995cd51da2044e4906d7fb6dcd266a2bf8d53ada36d33aed1a1d",
    "2": "fa84e88f846a6126fce494e0b154ee711065f7038afd6ac6eeb24549ee7c9d26",
    "3": "d2d60128092e586e8818899904c0f1b26583e4e31532d2e193c0d4c842506769",
    "2,2": "f27a738ca50d76e77b69ba31af51e7d811030eef15c831cf70632fce3592b7fe",
    "4": "c64314b21e792d5b63ea54a497a3a150e2cb2811e7192df79644a0b7b684c6ac",
    "5": "185ba9cc75048e3c54873201854cc1f41450e42f445881c177e11f0b56daed5a",
    "2,3": "081b7a0ae9f2f4abc5c854b76188333bb16bee51419681a42e9fbb6b4ae35c02",
    "6": "cf64b7732815c8d802d923c5a90752b7ae0d7ce8e3648dfd4a609f20c7c756ed",
    "7": "128a93c1b4b8240bc656a50937ecfd80e7aa75a6b408ceadf048ab571a168f3d",
    "2,2,2": "6755854b9d9b81dc77f0aaf9d5e12b56900eaefbd8c8b78adb78a8a68d1bfd8e",
    "2,4": "3083732fe32e55a7afae2c011e9df6caa3aad46e7e8ef94cf1717557da5fff4d",
    "8": "177e0395af82021f74da7c5e73604d6b1a0fda752ef5a2b830a1e821cdb59643",
    "3,3": "1eca31a6d6f9f6686b1722dd027b2d5834ad5cbaa9c86d6d312973983271f3b7",
    "9": "2ef057d960d058d260a10548e9b349650d2c69bffe996f1ddeb7d09423176c34",
    "2,5": "8acd2dcd2c53aeb2d935da6f28ca08d0c16d41c5c456fc4ff20fb2519af86db7",
    "10": "c5c19da1515604f032a909d1100529cbe6c70e3924433eea556b01758a68d636",
    "11": "bd3471454995c0d11573f65440af8e26e25c5c46b204bf6860f7a18697beb836",
    "2,2,3": "41db29e69a54b20007f3c029276426adc07fdf4c8f11766ec3f4e2a7651d4fa1",
    "2,6": "52150cd1f90e7311abe9aaf87c496897598cb7cdd6c4d75fda9447141961f384",
    "3,4": "8831370a026e80777757676cad8e88a5637714b3a85cd629279b600c3b36726f",
    "12": "e01b1f7cf7d0a8ff17b7e4bb4af0ca604563775cd02595588cfd565bfe552cdc",
    "13": "24f9532692feca9c65d39b3ac2abd912228a5b81edf10cff2eba3ccc6fd6b973",
    "2,7": "ff29ff24bfb82da5c7c267318f86fa72b5c324881bd9d7a4417725b4eee14742",
    "14": "4e645194278eb183d4d0ab88f80d60e0b2d329cd5e6e72d0161519e6ed1f1d4f",
    "3,5": "bcc4e7087cb0e4b363c46078b7fe7cdaa7c20bdc18d70d28f3c293e5b8cce77b",
    "15": "ec253b20ff094776e0fd57bd385914632dd4da324d36c7c692f4c157eea68e3c",
    "2,2,2,2": "cd32f3c0cbac54b8b267dd37e9b18b122fe31ba8fdb16085988b37faa6a310db",
    "2,2,4": "6dcdf048f422a389b72aa3d099e94923b638c922a498fc078d777f1b643da7d0",
    "2,8": "e0496a9aa5246ea6934f5907392a44132c865d62f0ff8dd72894ddc44916930d",
    "4,4": "4c71b8a6debe52e3cc8517a22910c3e362f19f3e29f73f3caaf0f976cad822b4",
    "16": "eeb5a2364deee2604fddd387ba6f6c76484639ba39ad6b705c65b8c7360f9f6f",
    "17": "1b9a9a64d320a12ec1ddd547234c22c7e272a3ca61382e903c54e6273abb3205",
    "2,3,3": "77592d5138feca122266df94b3360c45731c69715fdacd4499f0a67c36b7ee65",
    "2,9": "9006d6601267f9ae8cec110d5f5065acb03bbccc21feb50f68d151bbaec649de",
    "3,6": "6c99774c9941a2ef1672b5d2f1ce5460811b98d2738800e7f2dfbafdedb213aa",
    "18": "92ee16d44d6f7a2b65ef7847d8df3c21002e8985e4fa7ebe5ebb45fd9c859dcd",
    "19": "b39bea029b98966ef17019673b36a543ab9c98d1cf814133bafe729acfdcc7d2",
    "2,2,5": "ddec947ecd6d08fedda0d0d421e82fab02e6e84b56735a478d48be44ec2a7dc7",
    "2,10": "502dce171ed76a66a9087d30ee9e4ab20b52e0f55bce37a90821c3b02c3aa6f6",
    "4,5": "109663cb508a53976a885df8dd713ccb898639e965251921daa0d814dbbf8b12",
    "20": "c064dedc4adcb4f74324aa859b664705efdd28824d7611110ad0787108bc4d63",
    "3,7": "92d00ea4a896d8c89fd456fd00099c9eeb553bfe87c3cdf68e1622da6958710c",
    "21": "c22d66ec28bc7bee8d3ba9bec947e4b69d819aac60249a554886c72d21f47d4a",
    "2,11": "3ab3af54d4856d53e1e7c6c5fc42c24dd10b6ed358383aea8583c12934c2d6b3",
    "22": "686b2c8cbb96fd3a8a10a6cb75457be5fc1a77d7aa224f8443e017bba2ebde96",
    "23": "2644daa80a8827f459c517142550a909ddbc1aef46c61a28656ca2d025da1390",
    "2,2,2,3": "746edaef239756e5d4b5823be635f96bf21642bbe7edeb5f83e7afafad941717",
    "2,2,6": "29e1f89a191aad35b6fef9d77f93a25b38747a0c365b8f98c2f2ec2d78efc6a3",
    "2,3,4": "9d47f5c7a2689fe79f4a381965d139a42a03a1f6597adf08952e83d2d4b005fc",
    "2,12": "2370f5e67be6f4d685e81c908642fe0bfab00414e232c039b7996919d7f99226",
    "3,8": "7630b046f2653b76ea14264a089a61af8ec98df2e0afcd704f469861a9b1ab21",
    "4,6": "abe98642ba87917321ab23cede9730183478ad573bfbc21afbcaa5646257d946",
    "24": "d158e5df77fb2637a89c9ffe0620b326204557caf9781d647ceb88b76bb37d0c",
    "5,5": "f69638b08d06981b22406e3c3b8aaae9d032f5b7b7ea1d75f225b98b24ab422f",
    "25": "151442e8b26b839615f64edacb6eb7e73c20c305492d6998e5fb9bec42f61464",
    "2,13": "d7622a5e2b3fe73605b4a3ba5c0298ea8b2aa0fbbf0a9ae1b5f5c0f007077221",
    "26": "bbfaffbb24cd4ca190d4ed4fd5e5a96aa796c148d2a4b87ba9070955cacbe7cc",
    "3,3,3": "5f67c65caa8e68e48b5c4b2e16bee7ccb9e2b24f7c6cc2d2fa324ac33cf9f8cb",
    "3,9": "463cb2199a69f90145c0b8729da81a7585d2e3ad8e04d967df85fbdbea3cac0a",
    "27": "54afc1892c03a6d4a5464b68d7d90a0f775bbc488243a6b20936142870f6ecd7",
    "2,2,7": "999c1604bae7755b39047e2aa1c7801c0fcd96b5f0172e6bf9928b580b89c879",
    "2,14": "7bc167ec733ad940c35ab6be000fd156e6e16f5e5a6bee3f7800d9c42dd18233",
    "4,7": "cea8badbb3e8a36c169f6bace3b695d1d81170163e40a3fb9ebc55d999f464db",
    "28": "d1a45976105d89099870f2b565698790b17811679a0116ea429e5295dd602925",
    "29": "25be9bf36b0c0e1e88d941b159acdd2b19aaf45e9a40cfd799109ffa44f8beee",
    "2,3,5": "4372c27685dabb9fda30f431bba7df1dfae9f5848b08f9d45f1fab0ce3286665",
    "2,15": "6f7ebe8777b24f19f3ca6c9240a1744d9deff499675dd8febdaa818b6bc9e9ff",
    "3,10": "087c8a2f5ad0272bbf71bd7e08128b7392124e357b8213f88f286c6d3a660152",
    "5,6": "42aa42b88a683d27924b9ae5bc58086abd56f061f8e575c3147f234d7e15cc44",
    "30": "83d116c06bca658d8cde2aece3905be2fd038f004370f30dd58fa414d50bafa8",
    "31": "db98e8f132e46cad8a09374e6cfaafdaadc6b543628091d29174e15c9af75b2c",
    "2,2,2,2,2": "54b57fa0846bf425468b8497bd5c920203c26bd74de09a826e2f71777e154218",
    "2,2,2,4": "58432c2aa6d19fea8f34e8499a4e04e8da1491e1d38b97e8222d669787edd352",
    "2,2,8": "4f4175e68a3c0df4ffc2358049c98fe025850292bc6a629a601b58a8f1244c01",
    "2,4,4": "7236e5c366929085ab0f39aea459ac7eb3d960379d86b637887989b732c14198",
    "2,16": "4cdb3a9c2ea06341d794ca290dafb8642472d5843fdc5b7f5b837714c9eef2cb",
    "4,8": "d68bbcac46433c043056f6a7c1bced7b0256670afd64605aed8f2fefc08b3444",
    "32": "908ad37d2fd936f12f2caa89fd73b607718c1713bda12d140e852fe37224581e",
}


def test_verify_bijection_payloads_to_order_32(capsys):
    got = {}
    for spec in G.all_group_specs(32):
        shown = ",".join(map(str, spec.orders))
        assert run(["verify-bijection", "--orders", shown]) == 0, shown
        got[shown] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == BIJECTION_GOLDEN
