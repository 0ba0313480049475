"""Golden bytes: canonical ``bench``, ``gen``, ``solve`` and ``exact`` output
pinned by sha256.

The ``bench`` and ``gen`` digests were recorded with the ``json.dumps``
instance encoder, the ``Fraction`` version of ``derive_costs`` and the
full-rescan average-price greedy, before the direct writer and the integer
versions replaced them.  The ``solve`` and ``exact`` digests were recorded
before the activation predicate, the completion step and the report builder
were each merged into one function; unlike ``bench`` they cover the
assignment, theta, delta, trace, extras and ``nodes_expanded``.  The
``solve --exact-check`` digests were recorded before the report builder took
over the value, slope and degree bound from the solvers; they add the
``exact_value``, ``exact_optimal`` and ``empirical_ratio`` fields.  Any change
to these bytes is a change to the canonical format or to a solver's output
and must be deliberate.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from aecover.cli import main, run_algorithm
from aecover.fileio import dumps_instance, loads_instance, save_instance
from aecover.general import solve_general
from aecover.generators import FAMILIES, from_facility_location, generate, random_general, random_unit
from aecover.oracle import exact_solve
from aecover.unit import solve_unit_a1

# family -> (sha256 of `aecover bench --family F --seeds 0..19`,
#            sha256 of `aecover gen --family F --seed 0`)
GOLDEN = {
    "minpower": (
        "6902c0c55a828af12fe558e5e4fee8b8d1f9ea89ff66faa3bab7909b4c5dad7c",
        "dce81d4298aa63fadb837dc5416a34f4cced65eac9df0498bd8913761c00e7e9",
    ),
    "setcover-t2": (
        "c299d06e1fda2a16704698579fdb529953678ad29648838a2e4889628e3e9dfd",
        "749d7ea02c013f8dfc34aff81bdbf48e018ec678f5f893f388ca1a66f3542ce0",
    ),
    "setcover-t5": (
        "28547eab4923e78ee1f3df2b37cee708a0a4c8ec4f9b32d291c526dba5bd2a3f",
        "28aa8d8a927ac2b2b7a56a1d4e89081468b0180fb11c60e96b5f2e1e58fb7554",
    ),
    "setcover-t10": (
        "f634cf3ceb854c97d7db2197a7d1f4a720541f76c5fe9c57291141633fd9a4ce",
        "d58e0b6a6c16792b862473f57e55024568b039717203a007416c70db346bcfb8",
    ),
    "installation": (
        "5c4702f46a2d628a5665e702a65c393bc1dd95ce7ff723228adbe21d2295ae17",
        "10084e74e4461b77312c282eadbeca05764bde4a6c7302cfb656b6d22b22dffd",
    ),
    "general": (
        "0992ad6b74e37bba10cd272291c5825c335f1f7ec575ca9de9d304d117c4fd61",
        "e870412eeaa685d85e6fd40fba9f4bb42b75139bd0f02b70f2c60358495637cd",
    ),
    "uniform": (
        "a2c10877676edfe984504f6aa1bc92124b05177197bc677e60704acea6e3ff0a",
        "15e1aaf1767db8c538de1ac07695b0a86672f8896ab8b43c3e91a1c0d43d2fa4",
    ),
    "uniform-unit": (
        "a67fca7967753f57bbc6e58279f04c6e2caf2d55706558ebb19922fef8959454",
        "3e033ee081d14c54b55123c84e2e4f70329a01c8f7acf573b1c4bd97aa7e9c83",
    ),
    "unit": (
        "f16d1ae53d643b459587535974bed031496d0b5186bbd7af35dd6421c1731f60",
        "4281f6f91a77b4e93ac0e7dbdde184519b6f37db466a700670c366bd68ef652f",
    ),
    "tight73": (
        "add75b1433617aebf67457fad633eba34961db7a965295c434fc3c7413369a5f",
        "2b5ed5627bff7c14c6c62826e7d833813cc80261f24f4d2abdb1ee89d3b64f4b",
    ),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_family_is_pinned():
    assert set(GOLDEN) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_canonical_output_matches_golden_bytes(family, tmp_path):
    bench_path, gen_path = tmp_path / "bench.json", tmp_path / "gen.json"
    assert main(["bench", "--family", family, "--seeds", "0..19", "--out", str(bench_path)]) == 0
    assert main(["gen", "--family", family, "--seed", "0", "--out", str(gen_path)]) == 0
    assert (sha256_of(bench_path), sha256_of(gen_path)) == GOLDEN[family]


# family -> sha256 of `dumps_instance(generate(family, s))` for s in
# 0..199, concatenated in seed order, recorded before the generators moved
# onto shared threshold constants and an integer installation rule.  It pins
# the generation layer alone: the RNG order and every drawn value.
GOLDEN_GENERATED = {
    "general": "470ab7b6a463acb398747513bf9bb46bde36e6666f58ddd9147f88b7884d794a",
    "installation": "9e714462288807f53aef2c242c88136e0c351c50892c33961ef661f6f38ba182",
    "minpower": "1879e37879f581e7fb4ab0910906b90c48515a64337c1889d684bc31be89c4c8",
    "setcover-t10": "4eb0ec0bd760f674e316611c8cefe34335f7fdedeb6bb138d673871d749ec3d2",
    "setcover-t2": "0a216b3048f1b262905b797052c094b8779b5238279aaed74a3972586c75df1f",
    "setcover-t5": "16723acb9effece7542f7916be423f0f572700531cf6aac8c74ea7b04a491d8d",
    "tight73": "f84d063a3cb72d611d2e5b52430a30ce69c450f5d4bd66098d3be9ebaaa14385",
    "uniform": "f944fd02105f9d0da13f69e8a146d28e01662dd6d26aa179572e12e5869d1980",
    "uniform-unit": "9a2abcbf5a43604d6172dbfcc6810841d8773e24a643aab17c187005b780b635",
    "unit": "b95ce6f8bc0864c430d827b07cc6b1c51d525b18017a14bea3df01f06e61babe",
}


def test_every_family_has_a_generation_pin():
    assert set(GOLDEN_GENERATED) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(GOLDEN_GENERATED))
def test_generated_instances_match_golden_bytes(family):
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(dumps_instance(generate(family, seed)).encode())
    assert digest.hexdigest() == GOLDEN_GENERATED[family]


SEEDS = range(20)

# family -> the `solve` argument lists run on each seed: `auto`, then each
# algorithm `bench` runs on the family, then the non-default runs.
SOLVE_RUNS = {
    "minpower": (["auto"], ["general"]),
    "setcover-t2": (["auto"], ["general"]),
    "setcover-t5": (["auto"], ["general"]),
    "setcover-t10": (["auto"], ["general"]),
    "installation": (["auto"], ["general"]),
    "general": (["auto"], ["general"]),
    "uniform": (["auto"], ["locally-uniform"]),
    "uniform-unit": (["auto"], ["locally-uniform"]),
    "unit": (["auto"], ["unit-a1"], ["unit-a2"]),
    "tight73": (
        ["auto"],
        ["locally-uniform"],
        ["locally-uniform", "--priority-file", "{priority}"],
    ),
}

EXACT_ARGS = {"tight73": ["--force"]}

# family -> (sha256 of the `solve` outputs of SOLVE_RUNS over SEEDS, in order,
#            sha256 of the `aecover exact` outputs over SEEDS, in order)
GOLDEN_SOLVE_EXACT = {
    "general": (
        "e2a104098a3b5c2064648f1dcf89f90eb038d957eee9a8b83c0f9b819e16390a",
        "ff414223667cf3fe53836f04f194ab51ed2baf75b56bf3127bb8203f0ea467d2",
    ),
    "installation": (
        "5140a7828772a470361bf43992cfc5113802ce62f1cf15d163b4105c6ab5d7aa",
        "8d763c058b3cf259e351ba9d9c605f24c99447952ae03acff846b7e747f70715",
    ),
    "minpower": (
        "6df7af06e781ec5316817b168bbce005427e1fb31128fcee662340c45f5770dc",
        "6b7e76913cf05ca8767cd07481a5359740209562daf03ba8c3ef1fdac1e9d5f4",
    ),
    "setcover-t10": (
        "ac8fe2325d2fb7578cba7df23ee7db5593ee5aa539f38fff15343deae4b7f601",
        "83ec4640d6abccf5fb56c764be0728ea8c690c35222c0bbfd5c9501239b2819a",
    ),
    "setcover-t2": (
        "eb4a564f106e34348be91b84ec2d9a23e2a51ddcd2177a9ad5adb53f6b74ecde",
        "caf5b5f22f243b38836b85a15f3aebc057e69205fe21e72b537c92153cb351a1",
    ),
    "setcover-t5": (
        "b01d7c7cc2cf7e49d6b3ea5b2da556375ab4dc7e20c04f9c3fd967575bc784b9",
        "268c8e9b43225c98202f2bdfd3be767e8c17ec8c1dd9749a51952c9109c7d963",
    ),
    "tight73": (
        "b9706037789a71ba1de5b0a9ce3f16d4a5be1fa62d6809e93e8988ced12bb072",
        "7a6cec1283dd9717974b88b691cf765e5bb599d907e247ed4afc7836281c7f1a",
    ),
    "uniform": (
        "3147e809d680db33607437c7f83df52d3d6ca4c67b16407436960a2d5c11020c",
        "2d7fe58eb19a035d6579efc3c524193a798083ba91ff2f47514ee1de2f7e408d",
    ),
    "uniform-unit": (
        "60fbc781590399a6e9a94d800ddf04b1b4dd554a769a7c4387489ec35ae63914",
        "bdba2325d043a18596f3acf754363e419f1b2b6c94973ccb5f00a3dd5c59d96f",
    ),
    "unit": (
        "cbac0348534c9c068f84b6942937f9194d74d4f6a891db4ef0bb3fbbbdd56dab",
        "05836fb4568204c3017e9d42a961a926618ab2928edbad1e692309420ab30619",
    ),
}


def test_every_family_has_solve_and_exact_pins():
    assert set(SOLVE_RUNS) == set(GOLDEN_SOLVE_EXACT) == set(FAMILIES)


def stdout_of(capsys, argv):
    """What ``main(argv)`` writes to stdout, as bytes; it must exit 0."""
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("family", sorted(GOLDEN_SOLVE_EXACT))
def test_solve_and_exact_output_match_golden_bytes(family, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    solved, exact = hashlib.sha256(), hashlib.sha256()
    for seed in SEEDS:
        assert main(["gen", "--family", family, "--seed", str(seed), "--out", inst]) == 0
        for run in SOLVE_RUNS[family]:
            algorithm, *extra = (arg.format(priority=inst + ".priority") for arg in run)
            solved.update(stdout_of(capsys, ["solve", inst, "--algorithm", algorithm, *extra]))
        exact.update(stdout_of(capsys, ["exact", inst, *EXACT_ARGS.get(family, [])]))
    assert (solved.hexdigest(), exact.hexdigest()) == GOLDEN_SOLVE_EXACT[family]


# Oracle limits for `solve --exact-check`; the tight example needs all 48
# terminals, as in `bench`.
EXACT_CHECK_LIMITS = {"tight73": ["--max-terminals", "48", "--max-nodes", "80"]}

# family -> sha256 of the `solve --exact-check` outputs of SOLVE_RUNS over
# SEEDS, in order.
GOLDEN_EXACT_CHECK = {
    "general": "a22cd5edeeae7505eadeb4905f75c129705979ecddf9ecd78a00993b2a0284ce",
    "installation": "19bf621415296e3c436e9e71e7846e729f22e70cefc704be15caf03139fd8bed",
    "minpower": "db5e3062b463d7b4f44bde4d54b292e599669222482eeff05c88feeb4670bf30",
    "setcover-t10": "212654f73ef2f87260bb1ece71646b37228487b977f59777530cb85aacb9db9f",
    "setcover-t2": "f55a9355d5ce8f7e34d787990e124d6b3abdf318b1b1e1a6ba705dd71abf631b",
    "setcover-t5": "ac53e5367e237314038d48ec3ff24e9cd916ad7d74e26a2739520c19ccc0eaf1",
    "tight73": "cb564cc7a099d113dc306de2449a4f6ee5013afb333afce7d4a753750bdc29ad",
    "uniform": "cdbb08fd55b18fe04f6c56335dc8dd7cc945ce8f9b3c30489fb2e958167fefb4",
    "uniform-unit": "a5b11dfb6eabcf1b88be20da9044621832c6abdbd7d959ac92deaf9994b07c63",
    "unit": "7cf1933c10ed946184dca88abb158a94eec92d5a88f5f100c101ca641f611911",
}


def test_every_family_has_an_exact_check_pin():
    assert set(GOLDEN_EXACT_CHECK) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(GOLDEN_EXACT_CHECK))
def test_exact_check_output_matches_golden_bytes(family, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    solved = hashlib.sha256()
    for seed in SEEDS:
        assert main(["gen", "--family", family, "--seed", str(seed), "--out", inst]) == 0
        for run in SOLVE_RUNS[family]:
            algorithm, *extra = (arg.format(priority=inst + ".priority") for arg in run)
            argv = ["solve", inst, "--algorithm", algorithm, *extra, "--exact-check",
                    *EXACT_CHECK_LIMITS.get(family, [])]
            solved.update(stdout_of(capsys, argv))
    assert solved.hexdigest() == GOLDEN_EXACT_CHECK[family]


def facility_instance(pairs, seed):
    """A seeded locally uniform facility instance with about ``pairs``
    client-facility pairs: twice as many clients as facilities, each pair
    present with probability 1/4, one weight and one service threshold per
    facility."""
    rng = random.Random(seed)
    nf = round(math.sqrt(2 * pairs))
    clients = [f"c{i:03d}" for i in range(2 * nf)]
    facilities = [f"f{j:03d}" for j in range(nf)]
    threshold = {f: rng.choice(("1", "3/2", "2")) for f in facilities}
    opening = {
        f: Fraction(threshold[f]) * (2 if j == 0 else rng.choice((Fraction(1, 2), 1, 2, 3, 5)))
        for j, f in enumerate(facilities)
    }
    service = {}
    for c in clients:
        linked = [f for f in facilities if rng.random() < 0.25]
        for f in linked or [rng.choice(facilities)]:
            service[(c, f)] = threshold[f]
    return from_facility_location(clients, facilities, opening, service)


# pairs -> sha256 of `aecover solve` on facility_instance(pairs, seed=pairs),
# recorded before the activation predicate, the instance build and the
# locally uniform validation moved onto the integer view.
GOLDEN_FACILITY = {
    200: "c9e85da4bcbba3eda5504657fd6951b259fb367a384bf67ade58dfc579069359",
    800: "6a0d22cf3372727ab70bbda02dcd3b86c459f7bc570be2bc877ccd914eeb3e46",
    1600: "5230a5f84b51999ffdc815f69a8539f4785cea63d22388b866a9128ca9b45dcc",
}


@pytest.mark.parametrize("pairs", sorted(GOLDEN_FACILITY))
def test_facility_solve_matches_golden_bytes(pairs, tmp_path):
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    save_instance(facility_instance(pairs, seed=pairs), inst)
    assert main(["solve", str(inst), "--out", str(out)]) == 0
    assert sha256_of(out) == GOLDEN_FACILITY[pairs]


# pairs -> sha256 of the concatenated `run_algorithm(inst, "auto").to_json()`
# reports on facility_instance(pairs, seed) for seeds 0..9, recorded before
# the one-pass instance loader and before the locally uniform solve stopped
# deriving the instance's costs.  Each instance's canonical text, loaded
# back, must give the same report.
GOLDEN_FACILITY_AUTO = {
    200: "e9b9db7e0e205b4e3362a48332d14e25e7d94421652a1721b7b90f0029ae39bb",
    800: "6d705c1180e1502e054335ba8d7897ce3a12840cabc4a3d2d2d19a686622ec0f",
    1600: "42396fc10a190ac1cac5bfe2fc9332c15fe7ac029702071863889e9a81a9ae67",
}


@pytest.mark.parametrize("pairs", sorted(GOLDEN_FACILITY_AUTO))
def test_facility_auto_reports_match_golden_bytes(pairs):
    digest = hashlib.sha256()
    for seed in range(10):
        inst = facility_instance(pairs, seed)
        report = run_algorithm(inst, "auto").to_json()
        assert run_algorithm(loads_instance(dumps_instance(inst)), "auto").to_json() == report
        digest.update(report.encode())
    assert digest.hexdigest() == GOLDEN_FACILITY_AUTO[pairs]


# r -> (value, nodes_expanded) of the exact oracle on the ladder instance
# random_general(32, 96, 6, seed=2, r), recorded with the Fraction search.
GOLDEN_ORACLE_LADDER = {10: (27, 1858), 14: (37, 10313), 18: (44, 14544), 22: (48, 48755)}


@pytest.mark.parametrize("r", sorted(GOLDEN_ORACLE_LADDER))
def test_oracle_ladder_matches_golden_search(r):
    result = exact_solve(random_general(32, 96, 6, seed=2, r=r), max_terminals=r)
    assert (result.value, result.nodes_expanded) == GOLDEN_ORACLE_LADDER[r]


# sha256 of the unit-a1 reports (`SolveReport.to_json()`) on `unit` seeds
# 0..199, in order, recorded with a1's own star loop and the networkx
# matching in `exact_2setcover`.
GOLDEN_UNIT_A1 = "b7f3fffd2977f5b5328a2753421ab6add76af6449692a1a2b40b9d153a7e9098"


def test_unit_a1_reports_match_golden_bytes():
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(solve_unit_a1(generate("unit", seed)).to_json().encode())
    assert digest.hexdigest() == GOLDEN_UNIT_A1


def random_unit_case(i):
    """The i-th seeded unit instance: 8..40 nodes, n..3n edges, a quarter to
    a half of the nodes terminals."""
    rng = random.Random(i)
    n = rng.randint(8, 40)
    return random_unit(n, rng.randint(n, 3 * n), i, r=rng.randint(n // 4, n // 2))


# sha256 of the space-joined unit-a1 values on random_unit_case(0..599),
# recorded as GOLDEN_UNIT_A1 was.  A value does not depend on which maximum
# matching finishes the 2-set phase, so any correct matcher keeps it; a
# matcher that stops after its first-free-neighbour pass moves 4 of them.
GOLDEN_UNIT_A1_VALUES = "102272f7cfe6511fc563b55e9b8b0afa2adb4817afb2a70cdf7797ce1dc83ede"


def test_unit_a1_values_match_golden_on_random_unit():
    values = " ".join(str(solve_unit_a1(random_unit_case(i)).value) for i in range(600))
    assert hashlib.sha256(values.encode()).hexdigest() == GOLDEN_UNIT_A1_VALUES


# sha256 of the concatenated `solve_general(...).to_json()` reports on
# random_general(n, 3n, 6, seed, r=round(0.4n)) for n in GENERAL_LADDER and
# seeds 0..4, in order: the sizes the solve-general benchmark runs, recorded
# before derived costs and the star greedy moved onto the integer view.
GENERAL_LADDER = (20, 30, 40, 60, 80)
GOLDEN_GENERAL_LADDER = "530565326ac5cc7e869ddc08dff4392f5129d491bf91399033409dea52d232c6"


def test_general_ladder_matches_golden_bytes():
    digest = hashlib.sha256()
    for n in GENERAL_LADDER:
        for seed in range(5):
            inst = random_general(n, 3 * n, 6, seed, r=round(0.4 * n))
            digest.update(solve_general(inst).to_json().encode())
    assert digest.hexdigest() == GOLDEN_GENERAL_LADDER
