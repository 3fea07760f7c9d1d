import hashlib
import itertools

import numpy as np
import pytest

from nablalg.algebra import classify, derive_arrow
from nablalg.cli import main
from nablalg.congruence import all_congruences_oracle, is_simple
from nablalg.errors import NotDistributive, OutOfRange
from nablalg.gallery import (
    _join_preserving_maps,
    enumerate_algebras,
    gen_counterexample_cex3,
    gen_heyting,
    gen_trivial,
    gen_xn,
)
from nablalg.lattice import all_lattices, build_lattice

from conftest import assert_inclusion_lattice, boolean_square, chain, pentagon


def test_gen_xn_sizes_and_flags():
    for n, size in [(1, 3), (2, 5), (3, 9)]:
        alg = gen_xn(n)
        assert alg.n == size
        assert classify(alg).has("N", "H", "D")
    assert classify(gen_xn(1)).L


# sha256 of the stdout of `nablalg gen xn k`, k = 1..6, with the order of the
# opens built by the k^2 loop of frozenset comparisons
GEN_XN_STDOUT_SHA256 = {
    1: "33e8b960b7bd50911c63b0b04aa660f4ab4b2e8322c92da7966e520f80cab074",
    2: "3c309a072003376326bf21771badd030ab5707b9693e87c47af2f4a47662b6ca",
    3: "beffbafeefa6f86eb3e8e8fbf73e585c5c483947849a5b7ef2001c8ddedeefc3",
    4: "4e0a23978b793cb3a0968b58b459223a098c80025daf087ec3a2bb2b2dba8a12",
    5: "9383738f331634ce7917ce56a5c54c7b1a32daf09f517cd461a2191fa2262c1e",
    6: "4332e3e00aad4958f715ae1982aa757de1eda28e849a54a484dda15d82d36ae6",
}


def frozenset_loop(n):
    """gen_xn(n)'s opens as frozensets, their membership rows, their
    inclusion order (one frozenset comparison per pair) and the shift's
    preimage map (a dict lookup per open)."""
    points = list(range(1, n + 1))
    opens = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(points, r)]
    opens.append(frozenset([0] + points))
    opens.sort(key=lambda s: (len(s), tuple(sorted(s))))
    rows = np.array([[x in u for x in range(n + 1)] for u in opens])
    order = np.array([[a <= b for b in opens] for a in opens], dtype=bool)
    index = {u: i for i, u in enumerate(opens)}
    shift = {x: 0 if x in (0, n) else x + 1 for x in range(n + 1)}
    nabla = [index[frozenset(x for x in range(n + 1) if shift[x] in u)] for u in opens]
    return rows, order, nabla


@pytest.mark.parametrize("k", range(1, 7))
def test_gen_xn_order_matches_the_frozenset_loop(k, capsys):
    """The order, the meets and joins and nabla from the membership matrix
    are the loop's, the lattice is ``build_lattice`` of the opens' inclusion
    order, and the command's stdout is byte for byte what it was with the
    loop."""
    alg = gen_xn(k)
    rows, order, nabla = frozenset_loop(k)
    assert (alg.lat.leq == order).all()
    assert_inclusion_lattice(alg.lat, rows)
    assert alg.nabla.tolist() == nabla
    assert main(["gen", "xn", str(k)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GEN_XN_STDOUT_SHA256[k]


def test_gen_xn_one_is_the_x1_fixture(x1):
    assert x1.nabla.tolist() == [0, 0, 2]
    assert x1.arrow.tolist() == [[2, 2, 2], [1, 2, 2], [1, 1, 2]]


def test_gen_xn_nabla_power_annihilates():
    for n in (1, 2, 3):
        alg = gen_xn(n)
        power = np.arange(alg.n)
        for _ in range(n):
            power = alg.nabla[power]
        for u in range(alg.n):
            if u != alg.lat.top:
                assert int(power[u]) == alg.lat.bot


def test_gen_xn_simple_by_both_routes():
    for n in (1, 2, 3):
        alg = gen_xn(n)
        assert is_simple(alg).flag
        assert len(all_congruences_oracle(alg)) == 2


def test_gen_xn_out_of_range():
    for n in (0, 7, -1):
        with pytest.raises(OutOfRange):
            gen_xn(n)


def test_gen_xn_four_smoke():
    # 2^4 + 1 opens; the congruence cross-check is skipped above the oracle
    # bound, so simplicity rests on the closure criterion alone here
    alg = gen_xn(4)
    assert alg.n == 17
    assert classify(alg).has("N", "H", "D")


def test_gen_trivial_flags():
    assert classify(gen_trivial(chain(2))).has("D", "H", "L")
    profile = classify(gen_trivial(pentagon()))
    assert not profile.D and profile.L
    assert classify(gen_trivial(chain(1))).has("D", "H", "N", "R", "L", "Fa", "Fu")


def test_gen_heyting_flags():
    for lat in (chain(3), boolean_square(), chain(4)):
        profile = classify(gen_heyting(lat))
        assert profile.flags() == frozenset({"D", "H", "N", "R", "L", "Fa", "Fu"})
    with pytest.raises(NotDistributive):
        gen_heyting(pentagon())


def test_cex3_frozen_rows():
    cand = gen_counterexample_cex3()
    assert cand.arrow.tolist() == [[2, 2, 2], [2, 2, 2], [0, 0, 2]]
    assert cand.arrow[0].tolist() == [2, 2, 2]


def test_enumerate_max_one():
    algs = list(enumerate_algebras(1))
    assert len(algs) == 1 and algs[0].n == 1


def test_enumerate_two_chain_dynamics():
    algs = [a for a in enumerate_algebras(2) if a.n == 2]
    nablas = sorted(tuple(int(v) for v in a.nabla) for a in algs)
    bot = algs[0].lat.bot
    top = algs[0].lat.top
    assert nablas == sorted([(bot, bot), (bot, top) if bot == 0 else (top, bot)])
    assert len(algs) == 2


def test_enumerate_deterministic():
    first = [(a.n, a.nabla.tolist(), a.arrow.tolist()) for a in enumerate_algebras(3)]
    second = [(a.n, a.nabla.tolist(), a.arrow.tolist()) for a in enumerate_algebras(3)]
    assert first == second


def test_enumerate_flag_filter():
    filtered = list(enumerate_algebras(3, flags={"N", "D"}))
    assert filtered
    for alg in filtered:
        assert classify(alg).has("N", "D")
    everything = list(enumerate_algebras(3))
    assert len(filtered) < len(everything)


def test_enumerate_out_of_range():
    with pytest.raises(OutOfRange):
        list(enumerate_algebras(7))


def test_enumerate_six_element_algebras():
    # 2,218 join-preserving maps on the fifteen 6-element lattices
    algs = list(enumerate_algebras(6))
    assert len(algs) == 1983
    assert sum(alg.n == 6 for alg in algs) == 1704


def test_join_preserving_maps_match_filtered_tables(small_lattices):
    # the catalog's canonical labels put a join no later than its arguments;
    # the reversed relabelings put it after them
    reversed_lattices = [build_lattice(lat.leq[::-1, ::-1]) for lat in small_lattices]
    for lat in small_lattices + reversed_lattices:
        want = [f for f in itertools.product(range(lat.n), repeat=lat.n)
                if f[lat.bot] == lat.bot
                and all(f[lat.join[a, b]] == lat.join[f[a], f[b]]
                        for a in range(lat.n) for b in range(lat.n))]
        assert list(_join_preserving_maps(lat)) == want


def test_enumerate_matches_all_tables_oracle(full_catalog):
    # the old route: every nabla table, kept when derive_arrow finds an arrow
    want = []
    for lat in all_lattices(5):
        for nabla in itertools.product(range(lat.n), repeat=lat.n):
            arrow = derive_arrow(lat, np.array(nabla, dtype=np.int64))
            if arrow is not None:
                want.append((lat.n, list(nabla), arrow.tolist()))
    assert [(alg.n, alg.nabla.tolist(), alg.arrow.tolist()) for alg in full_catalog] == want


def test_enumerate_all_valid(full_catalog):
    from nablalg.algebra import check_equational_axioms

    for alg in full_catalog:
        assert check_equational_axioms(alg.lat, alg.nabla, alg.arrow).ok
