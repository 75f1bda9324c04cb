"""Parameter derivation, matching, combinations, and construction reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecne.errors import (FieldMismatch, FormatError, InsufficientProtection,
                            NotSelfOrthogonal, PreconditionFailed, RangeError)
from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import eaqec, linalg, symplectic as sp

from oracles import count_rref, random_matrix

# Hermitian self-orthogonal [5,2] over GF(4) (cyclic, generator (0,1,w,w,1));
# its stabilizer code is the classic five-qudit [[5,1,3]]_2.
FIVE_Q = [[1, 0, 1, 2, 2], [0, 1, 2, 2, 1]]

# Frozen block-construction witness over GF(4): l=1, c=1, n=4, m=3.
WITNESS_G = [[3, 0, 1, 2]]
WITNESS_G2 = [[0, 2, 3, 3], [2, 3, 1, 1]]
WITNESS_E = [[0, 2, 1], [3, 1, 3]]


def isotropic_witness_code(Q, n, radical_coords, pair_coords):
    """Preimage built from unit vectors: x-units for the radical, (x,z)
    unit pairs for the entanglement part."""
    rows = []
    for j in radical_coords:
        v = np.zeros(2 * n, dtype=np.int16)
        v[j] = 1
        rows.append(v)
    for j in pair_coords:
        e = np.zeros(2 * n, dtype=np.int16)
        f = np.zeros(2 * n, dtype=np.int16)
        e[j] = 1
        f[n + j] = 1
        rows.extend([e, f])
    return ac.AdditiveCode(Q, np.array(rows, dtype=np.int16))


def test_params_validation():
    with pytest.raises(RangeError):
        eaqec.EAQECCParams(q=2, n=5, k=6, c=0)
    with pytest.raises(RangeError):
        eaqec.EAQECCParams(q=2, n=5, k=1, c=0, d=6)
    with pytest.raises(RangeError):
        eaqec.EAQECCParams(q=2, n=5, k=5, c=1)
    p = eaqec.EAQECCParams(q=3, n=11, k=1, c=2, d=7)
    assert p.l == 8
    assert str(p) == "[[11,1,7;2]]_3"


def test_params_need_a_shipped_field():
    # q = 16 has a field, GF(16), but no GF(256) to build codes over
    for q in (0, 1, 6, 10, 11, 16, 27):
        with pytest.raises(RangeError, match="not a supported order"):
            eaqec.EAQECCParams(q=q, n=3, k=1, c=0)
    for q in SUPPORTED_ORDERS:
        assert str(eaqec.EAQECCParams(q=q, n=3, k=1, c=0)) == f"[[3,1]]_{q}"


@pytest.mark.parametrize("fields, message", [
    ((2, 5.5, 1, 0), "n=5.5 is not an integer"),
    ((2.0, 5, 1, 0), "q=2.0 is not an integer"),
    ((2, 5, 1, 0, 3.0), "d=3.0 is not an integer"),
    ((2, "5", 1, 0), "n='5' is not an integer"),
    ((2, 5, 1, None), "c=None is not an integer"),
], ids=["n-float", "q-float", "d-float", "n-text", "c-none"])
def test_params_fields_are_integers(fields, message):
    with pytest.raises(RangeError) as exc:
        eaqec.EAQECCParams(*fields)
    assert str(exc.value) == message


def test_params_read_integer_types_as_int():
    p = eaqec.EAQECCParams(np.int64(2), np.int64(5), np.int32(1), 0, np.int8(3))
    assert [type(v) for v in (p.q, p.n, p.k, p.c, p.d)] == [int] * 5
    assert str(p) == "[[5,1,3]]_2"


def test_family_parameter_is_an_integer():
    with pytest.raises(RangeError, match="family parameter m=2.5 is not an integer"):
        eaqec.tables_csv((2.5,))
    assert eaqec.tables_csv((np.int64(2),)) == eaqec.tables_csv((2,))


def test_stabilizer_params_zero_code():
    Q = field(4)
    P = eaqec.stabilizer_params(ac.AdditiveCode.zero(Q, 5))
    assert (P.n, P.k, P.d) == (5, 5, 1)
    assert str(P) == "[[5,5,1]]_2"


def test_stabilizer_params_five_qudit():
    Q = field(4)
    L = ac.AdditiveCode.from_linear(Q, FIVE_Q)
    assert ac.is_self_orthogonal(L)
    P = eaqec.stabilizer_params(L)
    assert str(P) == "[[5,1,3]]_2"  # [N, N-2u, d] with N=5, u=2


def test_stabilizer_params_span_11():
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 1]])
    P = eaqec.stabilizer_params(C)
    assert (P.n, P.k) == (2, 1)
    # oracle: dual has exponent 3, minimize over its words outside C
    D = ac.dual(C)
    assert D.m == 3
    assert P.d == ac.min_weight_excluding_detail(D, C).d


def test_stabilizer_params_rejects_non_self_orthogonal():
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1], [2]])
    with pytest.raises(NotSelfOrthogonal) as exc:
        eaqec.stabilizer_params(C)
    assert "generators" in str(exc.value)


def test_eaqec_params_reduces_to_stabilizer():
    # stabilizer_params goes through eaqec_params, so both are held to the
    # stabilizer definition: k = n - m, d over C^⊥ outside C itself
    rng = np.random.default_rng(4)
    for q in SUPPORTED_ORDERS:
        F, Q = field(q), quadratic_field(field(q))
        n = 4 if q <= 4 else 3
        for _ in range(10):
            pre = sp.random_isotropic_basis(F, n, int(rng.integers(0, n + 1)), rng)
            C = ac.AdditiveCode(Q, pre)
            expect = (n, n - C.m, ac.min_weight_excluding_detail(ac.dual(C), C).d)
            ea = eaqec.eaqec_params(C)
            st = eaqec.stabilizer_params(C)
            assert ea.c == 0
            assert (ea.n, ea.k, ea.d) == expect
            assert (st.n, st.k, st.d) == expect
            assert st == ea


def test_eaqec_params_bookkeeping_witness():
    # n=8, l=5, c=2  ->  m=9, k=1
    Q = field(4)
    C = isotropic_witness_code(Q, 8, radical_coords=range(5), pair_coords=(6, 7))
    ea = eaqec.eaqec_params(C, compute_d=False)
    assert (ea.n, ea.k, ea.c, ea.l) == (8, 1, 2, 5)
    assert C.m == 9


def test_classify_match_examples():
    prop = eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=8, k=1, c=1, d=5),
                                   eaqec.EAQECCParams(q=2, n=5, k=1, c=0, d=3))
    assert prop.properly_matching and prop.faithful
    assert prop.label == "properly-matching+faithful"
    vac = eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=4, k=4, c=0),
                                  eaqec.EAQECCParams(q=2, n=3, k=1, c=0, d=1))
    assert vac.matching and vac.properly_matching is False
    big = eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=7, k=2, c=5, d=5),
                                  eaqec.EAQECCParams(q=2, n=11, k=5, c=0, d=3))
    assert big.properly_matching and big.faithful
    none = eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=7, k=2, c=5, d=5),
                                   eaqec.EAQECCParams(q=2, n=11, k=4, c=0, d=3))
    assert none.label == "none"
    with pytest.raises(FieldMismatch):
        eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=4, k=4, c=0),
                                eaqec.EAQECCParams(q=3, n=3, k=1, c=0))


def test_classify_match_rejects_ea_bob():
    # Bob protects Alice's ebits with a stabilizer code: c = 0 only
    with pytest.raises(RangeError):
        eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=8, k=1, c=1, d=5),
                                eaqec.EAQECCParams(q=2, n=5, k=1, c=1, d=3))
    # the field is checked first
    with pytest.raises(FieldMismatch):
        eaqec.CombinationParams(eaqec.EAQECCParams(q=2, n=8, k=1, c=1, d=5),
                                eaqec.EAQECCParams(q=3, n=5, k=1, c=1, d=3))


def test_combine_neb_trivial_bob():
    # Bob = {0} of length c protects nothing: [[c,c,1]]_q companion
    Q = field(9)
    alice = isotropic_witness_code(Q, 4, radical_coords=(0,), pair_coords=(1, 2))
    combo = eaqec.combine_neb(alice, ac.AdditiveCode.zero(Q, 2))
    assert combo.alice.c == 2
    assert str(combo.bob) == "[[2,2,1]]_3"
    assert combo.matching and combo.properly_matching
    assert not combo.faithful  # d_b = 1 < 3


def test_combine_neb_degenerate_alice():
    Q = field(4)
    alice = isotropic_witness_code(Q, 3, radical_coords=(0, 1), pair_coords=())
    bob = ac.AdditiveCode.zero(Q, 1)
    combo = eaqec.combine_neb(alice, bob)
    assert combo.alice.c == 0
    assert combo.matching


def test_combine_neb_insufficient_protection():
    Q = field(4)
    alice = isotropic_witness_code(Q, 4, radical_coords=(), pair_coords=(0, 1))
    bob = isotropic_witness_code(Q, 2, radical_coords=(0,), pair_coords=())
    # c = 2 ebits, Bob has k = 1 logical qudit
    with pytest.raises(InsufficientProtection):
        eaqec.combine_neb(alice, bob)


def test_combine_neb_bob_not_self_orthogonal():
    Q = field(4)
    alice = ac.AdditiveCode.zero(Q, 2)
    bob = ac.AdditiveCode.from_generators(Q, [[1], [2]])
    with pytest.raises(NotSelfOrthogonal):
        eaqec.combine_neb(alice, bob)


def test_linear_formulation_lcd_and_self_orthogonal():
    Q = field(4)
    # Hermitian LCD Alice: r=0, c=u, k=n-u
    D = ac.AdditiveCode.from_linear(Q, [[1, 0], [0, 1]])
    # [6,2] Hermitian self-orthogonal Bob: k_b = 6 - 4 = 2 covers c = 2
    bob = ac.AdditiveCode.from_linear(Q, [[1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0]])
    combo = eaqec.combine_neb(D, bob, compute_d=False)
    assert (combo.alice.c, combo.alice.k) == (2, 0)
    assert combo.properly_matching
    # Hermitian self-orthogonal Alice: r=u, c=0
    D2 = ac.AdditiveCode.from_linear(Q, [[1, 0, 1, 0]])
    combo2 = eaqec.combine_neb(D2, bob, compute_d=False)
    assert combo2.alice.c == 0
    assert combo2.alice.k == D2.n - 2 * (D2.m // 2)


def test_linear_formulation_radical_one():
    # random [6,2]_9 with Hermitian radical of dimension 1: c=1, k=3
    Q = field(9)
    rng = np.random.default_rng(11)
    while True:
        D = ac.AdditiveCode.from_linear(Q, rng.integers(0, 9, size=(2, 6)))
        if D.m // 2 == 2 and ac.radical(D).m // 2 == 1:
            break
    bob = ac.AdditiveCode.from_linear(Q, np.zeros((0, 3), dtype=int))  # [3,0]: [[3,3]]
    combo = eaqec.combine_neb(D, bob, compute_d=False)
    assert (combo.alice.c, combo.alice.k) == (1, 3)
    # cross-check against the parameters of Alice's code alone
    add = eaqec.eaqec_params(D, compute_d=False)
    assert (add.c, add.k, add.l) == (1, 3, 2)


def test_linear_formulation_rejects_bob():
    # odd characteristic so a weight-2 all-ones row is NOT self-orthogonal
    Q = field(9)
    D = ac.AdditiveCode.from_linear(Q, [[1, 0], [0, 1]])
    bob = ac.AdditiveCode.from_linear(Q, [[1, 1]])  # (g,g)_h = 1 + 1 = 2 != 0 over GF(9)
    with pytest.raises(NotSelfOrthogonal):
        eaqec.combine_neb(D, bob)


def test_combine_construct_degenerate_blocks():
    Q = field(4)
    G = np.array([[1, 1, 0], [0, 1, 1]])
    G2 = np.zeros((0, 3), dtype=int)
    E = np.zeros((0, 2), dtype=int)
    M, rep = eaqec.combine_construct(Q, G, G2, E)
    assert (rep.params.l, rep.params.c) == (2, 0)
    assert rep.radical_is_top_block
    assert M.n == 5
    assert rep.params.c == 0


def test_combine_construct_witness():
    Q = field(4)
    M, rep = eaqec.combine_construct(Q, WITNESS_G, WITNESS_G2, WITNESS_E)
    assert (rep.params.l, rep.params.c, rep.params.k) == (1, 1, 5)
    assert rep.radical_is_top_block
    assert (rep.d1, rep.d2) == (3, 2)
    assert rep.complement_min_weight == 5
    assert rep.complement_min_weight >= rep.d1 + rep.d2
    assert rep.c_identity_value == rep.params.c
    assert M.m == rep.params.l + 2 * rep.params.c
    # the distance claim is measured, not assumed: this witness refutes it
    assert rep.params.d == 1 and rep.params.d < rep.d1 + rep.d2
    assert "distance_claim_d_ge_d1_plus_d2=false" in rep.lines()


def test_c_identity_reads_the_top_block(monkeypatch):
    """c_identity_value is measured against dim (G|0), not against the
    decomposition's own l: a decomposition that misses the top block,
    here one whose radical is zero with k = N - c kept consistent, fails
    the identity."""
    Q = field(4)
    derive = eaqec._derive

    def without_radical(code, compute_d, budget):
        params, dec, examined = derive(code, compute_d, budget)
        zero = ac.AdditiveCode.zero(code.field, code.n)
        dec = ac.CodeDecomposition(radical=zero, pairs=dec.pairs)
        params = eaqec.EAQECCParams(q=params.q, n=params.n,
                                    k=params.n - dec.c, c=dec.c, d=params.d)
        return params, dec, examined

    monkeypatch.setattr(eaqec, "_derive", without_radical)
    _, rep = eaqec.combine_construct(Q, WITNESS_G, WITNESS_G2, WITNESS_E,
                                     compute_d=False)
    lines = dict(line.split("=", 1) for line in rep.lines())
    assert lines["radical_is_top_block"] == "false"
    assert rep.c_identity_value == rep.params.c - 1
    assert lines["c_identity_holds"] == "false"


def test_combine_construct_preconditions():
    Q = field(4)
    # span(G)+span(G2) not inside dual(span(G)): G=(1,0), G2=(2,0) pair fails
    with pytest.raises(PreconditionFailed):
        eaqec.combine_construct(Q, [[1, 0]], [[2, 0], [0, 1]], [[1, 0], [0, 1]])
    # (G2|E) not complementary-dual: repeat a self-orthogonal row
    with pytest.raises(PreconditionFailed):
        eaqec.combine_construct(Q, [[1, 1]], [[0, 0], [0, 0]], [[1, 1], [2, 2]])


@pytest.mark.parametrize("bad", [[], [[1, 0], [1]], [[[1, 0]]], [[1.5, 1]], [[4, 0]], [[-1, 0]]],
                         ids=["empty", "ragged", "3-D", "float", "above-q", "negative"])
@pytest.mark.parametrize("slot", ["G", "G2", "E"])
def test_combine_construct_rejects_malformed_matrices(slot, bad):
    # each matrix is read like a generator matrix, and the error names it;
    # a float is refused before the int16 cast could truncate it to a code
    mats = dict(G=[[1, 1]], G2=[[1, 0]], E=[[1, 0]]) | {slot: bad}
    with pytest.raises(FormatError, match=rf"^{slot} (rows|entries|entry) "):
        eaqec.combine_construct(field(4), mats["G"], mats["G2"], mats["E"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_combine_sum_precondition_matches_dual_oracle(q, seed, planted):
    """The Gram-block test of span(G) + span(G2) inside span(G)'s dual
    agrees with a dual kernel and a containment check.  With `planted`, G
    is isotropic and G2 lies in its dual, so the precondition holds."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    if planted:
        rows = sp.random_isotropic_basis(Q.base, n, int(rng.integers(0, n + 1)), rng)
        G = sp.phi(Q, rows)
        perp = sp.symp_dual(Q.base, rows)
        coeffs = random_matrix(Q.base, int(rng.integers(0, 3)), perp.shape[0], rng)
        G2 = sp.phi(Q, linalg.gram(Q.base, coeffs, perp.T))
    else:
        G = random_matrix(Q, int(rng.integers(0, 3)), n, rng)
        G2 = random_matrix(Q, int(rng.integers(0, 3)), n, rng)
    E = random_matrix(Q, G2.shape[0], m, rng)
    left = ac.AdditiveCode.from_generators(Q, G)
    summed = ac.AdditiveCode.from_generators(Q, np.vstack([G, G2]))
    holds = ac.dual(left).contains(summed)
    assert holds or not planted
    try:
        eaqec.combine_construct(Q, G, G2, E, compute_d=False)
    except PreconditionFailed as exc:
        assert holds == ("span(G)+span(G2)" not in str(exc))
    else:
        assert holds


def test_combine_construct_radical_contains_top_block_random():
    Q = field(9)
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        G = rng.integers(0, 9, size=(1, 3))
        G2 = rng.integers(0, 9, size=(2, 3))
        E = rng.integers(0, 9, size=(2, 2))
        try:
            M, rep = eaqec.combine_construct(Q, G, G2, E, compute_d=False)
        except PreconditionFailed:
            continue
        hits += 1
        top = ac.AdditiveCode.from_generators(
            Q, np.hstack([G, np.zeros((1, 2), dtype=int)]))
        assert ac.radical(M).contains(top)
        assert rep.radical_is_top_block  # ACD complement forces equality
    assert hits > 0


def test_puncture_to_eaqecc():
    Q = field(4)
    L = ac.AdditiveCode.from_linear(Q, FIVE_Q)
    with pytest.raises(RangeError):
        eaqec.puncture_to_eaqecc(L, 0)
    with pytest.raises(RangeError):
        eaqec.puncture_to_eaqecc(L, 3)
    rep = eaqec.puncture_to_eaqecc(L, 1)
    assert str(rep.params) == "[[4,1,3;1]]_2"
    assert rep.params.c == 1
    assert (rep.params.n, rep.params.k) == (4, 1)
    assert str(rep.equivalent_to) == "[[5,1,3]]_2"
    rep2 = eaqec.puncture_to_eaqecc(L, 2)  # c = u
    assert (rep2.params.n, rep2.params.k, rep2.params.c) == (3, 1, 2)


def reed_solomon(Q, k):
    """RS_k over all points of GF(q^2): rows a^0, ..., a^(k-1) at every a."""
    rows = [[1] * Q.order]
    for _ in range(1, k):
        rows.append([Q.mul(r, a) for r, a in zip(rows[-1], range(Q.order))])
    return ac.AdditiveCode.from_linear(Q, rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_puncture_rs_family(q):
    """RS_k over all q^2 points of GF(q^2), k <= q - 1, is Hermitian
    self-orthogonal; dropping c <= k coordinates gives
    [[q^2 - c, q^2 - 2k, k + 1; c]]_q with the source's k and d.  The
    distance is measured for q <= 3; for larger q the dual is over the
    budget."""
    Q = quadratic_field(field(q))
    N = Q.order
    for k in range(1, q):
        code = reed_solomon(Q, k)
        assert ac.is_self_orthogonal(code)
        for c in range(1, k + 1):
            rep = eaqec.puncture_to_eaqecc(code, c, compute_d=q <= 3)
            p = rep.params
            assert (p.n, p.k, p.c) == (N - c, N - 2 * k, c)
            assert p.k == rep.equivalent_to.k
            if q <= 3:
                assert p.d == rep.equivalent_to.d == k + 1


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_puncture_to_eaqecc_elimination_count(q, monkeypatch):
    """The linearity test runs no elimination: puncturing RS_k runs exactly
    the eliminations of the source's and the punctured code's parameters."""
    Q = quadratic_field(field(q))
    code = reed_solomon(Q, max(1, q - 1))
    fields = count_rref(monkeypatch)
    eaqec.stabilizer_params(code, compute_d=False)
    eaqec.eaqec_params(ac.puncture(code, [Q.order - 1]), compute_d=False)
    parts = len(fields)
    fields.clear()
    eaqec.puncture_to_eaqecc(code, 1, compute_d=False)
    assert len(fields) == parts
    if q == 4:  # RS_3 over GF(16)
        assert parts == 1


def test_puncture_to_eaqecc_rejects_source():
    """A linear source that is not self-orthogonal is reported with the
    generator pair, once c is in range."""
    for q in SUPPORTED_ORDERS:
        code = ac.AdditiveCode.from_linear(quadratic_field(field(q)), [[1, 0]])  # u = 1
        with pytest.raises(NotSelfOrthogonal,
                           match="^generators 0 and 1 have nonzero form value$"):
            eaqec.puncture_to_eaqecc(code, 1)
        with pytest.raises(RangeError, match=r"c=2 outside \(0, 1\]"):
            eaqec.puncture_to_eaqecc(code, 2)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_puncture_to_eaqecc_rejects_nonlinear_source(q):
    """A self-orthogonal additive code that is not GF(q^2)-linear: one word
    (m = 1), and for GF(4) the F_2-span of the [[5,1,3]] generators.  The
    F_q-span of (1, 0) and (beta, 1) is neither linear nor self-orthogonal,
    and is reported as not linear."""
    Q = quadratic_field(field(q))
    sources = [ac.AdditiveCode.from_generators(Q, [[1, 0]])]
    if q == 2:
        sources.append(ac.AdditiveCode.from_generators(Q, FIVE_Q))
    for code in sources:
        assert ac.is_self_orthogonal(code)
        with pytest.raises(PreconditionFailed, match="linear"):
            eaqec.puncture_to_eaqecc(code, 1)
    code = ac.AdditiveCode.from_generators(Q, [[1, 0], [Q.beta, 1]])
    assert code.m == 2 and not ac.is_self_orthogonal(code)
    with pytest.raises(PreconditionFailed, match="linear"):
        eaqec.puncture_to_eaqecc(code, 1)


def test_known_tables():
    entries = eaqec.known_tables()
    rendered = {str(e) for e in entries}
    assert "[[8,1,5;1]]_2 + [[5,1,3]]_2" in rendered        # family m=2
    assert "[[13,3,9;10]]_2 + [[16,10,3]]_2" in rendered
    assert "[[28,2,13;6]]_3 + [[10,6,3]]_3" in rendered
    assert "[[11,1,7;2]]_3 + [[6,2,3]]_3" in rendered
    for e in entries:
        assert e.properly_matching and e.faithful
        assert e.bob.k == e.alice.c and e.bob.d >= 3
        assert e.alice.l >= 0
    # 4 family shapes x 3 instantiations + 7 binary + 5 ternary fixed rows
    assert len(entries) == 12 + 7 + 5


def test_eaqec_names_the_numpy_free_records():
    from eaqecne import records
    for name in ("EAQECCParams", "CombinationParams", "known_tables", "tables_csv"):
        assert getattr(eaqec, name) is getattr(records, name)


def test_tables_csv_shape():
    csv = eaqec.tables_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "q,n,k,d,c,m,kb,db,match"
    assert len(lines) == 1 + 24
    assert lines[1] == "2,8,1,5,1,5,1,3,properly-matching+faithful"
