"""Acceptance suite: one criterion per test, printing one pass/fail line
each (run with -s or read captured output on failure)."""

from proxkit.catalog import catalog_instances, catalog_morphisms
from proxkit.chain import El, Seq, build_chain_frame, lim, succ
from proxkit.comonads import (
    check_coalgebra_morphism,
    check_laws,
    coalgebra_laws,
    epsilon_map,
    kleisli_compose,
    naturality_suite,
)
from proxkit.morphisms import (
    ChainMap,
    compose,
    enumerate_proxhoms,
    identity_map,
    is_proper,
    kappa_map,
    rho,
    rmap_map,
    sigma_map,
    star_compose,
    theta,
    validate_pframemap,
    validate_proxhom,
)
from proxkit.proximity import FiniteProximity, chain_proximity, validate_proximity
from proxkit.roundideal import (
    BelowLim,
    Prin,
    ideal_frame,
    is_stably_compact,
    kappa,
    member,
    retag,
    rframe,
    sigma,
)

INSTS = catalog_instances()
MORPHS = catalog_morphisms()
CHAIN_MORPHS = ("chain-id", "chain-double", "chain-shift3", "chain-h")
SMALL_FINITE = ("two", "chain3", "diamond")


def _conclude(num: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {title}{suffix}")
    assert ok, f"criterion {num}: {title}{suffix}"


def test_criterion_01_finite_collapse_certificate():
    ok = True
    detail = []
    for name in SMALL_FINITE:  # all catalog finite frames with <= 5 elements
        frame = INSTS[name].frame
        free = [
            (a, b)
            for a in frame.elements()
            for b in frame.elements()
            if frame.leq(a, b)
            and (a, b) not in ((frame.bot, frame.bot), (frame.top, frame.top))
        ]
        valid = 0
        order_valid = False
        for bits in range(1 << len(free)):
            rows = [0] * frame.n
            rows[frame.bot] |= 1 << frame.bot
            rows[frame.top] |= 1 << frame.top
            for i, (a, b) in enumerate(free):
                if (bits >> i) & 1:
                    rows[a] |= 1 << b
            cand = FiniteProximity(frame, tuple(rows))
            if validate_proximity(cand).ok:
                valid += 1
                order_valid = order_valid or cand.rows == frame.up
        ok = ok and valid == 1 and order_valid
        detail.append(f"{name}:{valid}")
    _conclude(1, "only the order satisfies the axioms on finite catalog frames",
              ok, ",".join(detail))


def test_criterion_02_chain_k1_classification():
    p = INSTS["chain-k1"]
    f = p.frame
    L1 = lim(f, 1)
    rfd = rframe(p)
    # omega block of principals, then the below-class, then the top principal
    shape = [(s.kind, s.label) for s in rfd.frame.segments]
    ok = shape == [("omega", "P[S0]"), ("point", "B[L1]"), ("point", "P[L1]")]
    ok = ok and kappa(p, L1) == Prin(p, L1)
    ok = ok and sigma(BelowLim(p, L1)) == L1
    # independent window enumeration: candidates are the downsets of each
    # element of index <= 50 plus the set strictly under the limit;
    # roundness is decided directly from the relation
    window = [succ(f, 0, n) for n in range(51)] + [L1]
    for e in window:
        is_round = p.rel(e, e)  # dn(e) is round iff e approximates itself
        if is_round:
            ideal = rfd.ideal_of(rfd.el_of(Prin(p, e)))
            ok = ok and all(member(b, ideal) == (b <= e) for b in window)
        else:
            ok = ok and f.is_limit(e)  # only the limit lacks a principal
    below = rfd.ideal_of(rfd.el_of(BelowLim(p, L1)))
    ok = ok and all(member(b, below) == (b < L1) for b in window)
    _conclude(2, "compactification of the one-limit chain is omega+2 with the "
                 "expected classes", ok)


def test_criterion_03_theta_rho_bijection():
    failures = 0
    total = 0
    for ns in SMALL_FINITE:  # catalog finite frames with <= 4 elements
        rfd = rframe(INSTS[ns])
        for nd in SMALL_FINITE:
            for f in enumerate_proxhoms(INSTS[ns], INSTS[nd]):
                total += 1
                t = theta(f, rfd)
                if rho(t, rfd) != f or theta(rho(t, rfd), rfd) != t:
                    failures += 1
    for name in CHAIN_MORPHS:
        f = MORPHS[name]
        total += 1
        rfd = rframe(f.src)
        t = theta(f, rfd)
        if rho(t, rfd) != f or theta(rho(t, rfd), rfd) != t:
            failures += 1
    _conclude(3, "theta/rho round-trip on every validated homomorphism",
              failures == 0, f"{total} maps, {failures} failures")


def test_criterion_04_decomposition_law():
    ok = True
    for name, f in MORPHS.items():
        rfd_l, rfd_m = rframe(f.src), rframe(f.dst)
        lifted = compose(sigma_map(rfd_m),
                         compose(rmap_map(f, rfd_l, rfd_m), kappa_map(rfd_l)))
        ok = ok and lifted == f
    _conclude(4, "every catalog homomorphism factors as join o push o "
                 "approximate", ok, f"{len(MORPHS)} morphisms")


def test_criterion_05_way_below_comonad():
    ok = True
    for name, prox in INSTS.items():
        for rep in check_laws(rframe(prox), "R"):
            ok = ok and rep.ok
    # idempotence: the comultiplication is bijective with the join map as
    # its inverse on both chain classifications
    for name in ("chain-k1", "chain-k2"):
        rfd = rframe(INSTS[name])
        rrfd = rfd.rr
        from proxkit.comonads import r_map

        r = r_map(rfd)
        ok = ok and compose(sigma_map(rrfd), r) == identity_map(rfd.wb)
        ok = ok and compose(r, sigma_map(rrfd)) == identity_map(rrfd.wb)
    _conclude(5, "counit and comultiplication laws for the way-below comonad, "
                 "with bijectivity of r on chains", ok)


def test_criterion_06_max_structure_comonad():
    p = INSTS["chain-k1"]
    rfd = rframe(p)
    reports = check_laws(rfd, "C")
    ok = all(r.ok for r in reports)
    ok = ok and any(r.law == "C.comult.nonprincipal" and r.ok for r in reports)
    # eps(c(Ibar)) = Ibar for every canonical class
    from proxkit.comonads import c_map

    c = c_map(rfd)
    eps = epsilon_map(rfd.cc)
    ok = ok and compose(eps, c) == identity_map(rfd.maxp)
    _conclude(6, "all diagrams of the maximal-structure comonad on the "
                 "one-limit chain, including the non-principal "
                 "comultiplication", ok)


def test_criterion_07_two_relations_separate():
    rfd = rframe(INSTS["chain-k1"])
    maxp = rfd.maxp
    B = El(1, 0)  # the class of everything under the limit
    ok = maxp.rel(B, B) and not rfd.wb.rel(B, B)
    report = validate_proximity(maxp)
    ok = ok and report.ok
    ok = ok and all(r.ok for law in ("maxrel.agreement", "maxrel.contains-wb")
                    for r in check_laws(rfd, law))
    _conclude(7, "the maximal relation separates from way-below at the limit "
                 "class yet satisfies all axioms", ok)


def test_criterion_08_non_idempotence():
    rfd = rframe(INSTS["chain-k1"])
    ccfd = rfd.cc
    cccfd = ccfd.cc
    # segment 1 is the first limit class; count what sits strictly above it
    above_c = [s.label for s in ccfd.frame.segments[2:]]
    above_cc = [s.label for s in cccfd.frame.segments[2:]]
    ok = len(above_c) == 2 and len(above_cc) == 3
    # the counit of the doubled instance identifies two distinct classes
    eps = epsilon_map(ccfd)
    ok = ok and eps.apply(El(1, 0)) == eps.apply(El(2, 0))
    _conclude(8, "doubling adds classes (2 then 3 above the first limit) and "
                 "the counit is not injective", ok)


def test_criterion_09_star_differs_from_compose():
    f, g = MORPHS["k2-f"], MORPHS["k2-g"]
    frame = f.src.frame
    L1 = lim(frame, 1)
    star = star_compose(g, f)
    plain = compose(g, f)
    ok = star.apply(L1) == succ(frame, 0, 0)
    ok = ok and plain.apply(L1) == frame.top
    ok = ok and validate_proxhom(star).ok
    rep = validate_proxhom(plain)
    v = rep.verdict("value-approximation")
    ok = ok and not rep.ok and not v.ok and v.witness == ("L1",)
    _conclude(9, "star composition differs from plain composition at the "
                 "non-reflexive limit, and only star stays in the category", ok)


def test_criterion_10_kleisli_functor():
    ok = True
    pairs = 0
    for n1, f in MORPHS.items():
        for n2, g in MORPHS.items():
            if f.dst != g.src:
                continue
            pairs += 1
            rfd_L, rfd_M = rframe(f.src), rframe(g.src)
            lhs = theta(star_compose(g, f), rfd_L)
            rhs = kleisli_compose(theta(g, rfd_M), theta(f, rfd_L), rfd_L, rfd_M)
            ok = ok and lhs == rhs
    # associativity on a catalog triple and the join map as the identity
    a, b, c = MORPHS["chain-h"], MORPHS["chain-double"], MORPHS["chain-shift3"]
    ok = ok and star_compose(a, star_compose(b, c)) == star_compose(
        star_compose(a, b), c)
    rfd = rframe(MORPHS["k2-f"].src)
    tf = theta(MORPHS["k2-f"], rfd)
    ok = ok and kleisli_compose(tf, sigma_map(rfd), rfd, rfd) == tf
    ok = ok and kleisli_compose(sigma_map(rfd), tf, rfd, rfd) == tf
    _conclude(10, "theta is a functor into the co-Kleisli category", ok,
              f"{pairs} composable pairs")


def test_criterion_11_naturality_squares():
    ok = True
    ran = 0
    for name, f in MORPHS.items():
        for rep in naturality_suite(f, rframe(f.src), rframe(f.dst)):
            ran += 1
            ok = ok and rep.ok
    _conclude(11, "the naturality squares hold for every catalog morphism of "
                  "the right class", ok, f"{ran} squares")


def test_criterion_12_coalgebras():
    p1 = INSTS["chain-k1"]
    rfd = rframe(p1)
    reports = coalgebra_laws(rfd)
    ok = len(reports) == 1 and not reports[0].ok  # base frame rejected
    ok = ok and not is_stably_compact(p1)
    ok = ok and all(r.ok for r in coalgebra_laws(rfd.rr))
    # the structure-square criterion agrees with properness both ways
    maxp = rfd.maxp
    fr = maxp.frame
    B, P0, T = El(1, 0), El(0, 0), El(2, 0)
    w = ChainMap(maxp, maxp, (
        Seq.constant(B, ((0, P0),)),
        Seq.constant(B),
        Seq.constant(T),
    ))
    ok = ok and validate_pframemap(w).ok and not is_proper(w)
    rep = check_coalgebra_morphism(w, rfd.cc, rfd.cc)
    ok = ok and rep.ok and "square=fails; proper=False" in rep.note
    rep = check_coalgebra_morphism(identity_map(maxp), rfd.cc, rfd.cc)
    ok = ok and rep.ok and "square=holds; proper=True" in rep.note
    # lax idempotence on every catalog instance
    for name, prox in INSTS.items():
        ok = ok and all(r.ok for r in check_laws(rframe(prox), "C.kz"))
    _conclude(12, "coalgebra existence, laws, the properness criterion, and "
                  "the lax-idempotence inequality", ok)


def test_criterion_13_all_ideals_on_order_instances():
    ok = True
    for name in ("two", "chain3", "diamond", "cube3"):
        prox = INSTS[name]
        rfd, jfd = rframe(prox), ideal_frame(prox.frame)
        ok = ok and rfd.frame.names == jfd.frame.names
        ok = ok and [retag(i, jfd.base) for i in rfd.ideals] == list(jfd.ideals)
    # the one-limit chain with the full (order) relation
    p = chain_proximity(build_chain_frame(1), {1})
    rfd, jfd = rframe(p), ideal_frame(p.frame)
    ok = ok and rfd.frame.segments == jfd.frame.segments
    ok = ok and [retag(i, jfd.base) for i in rfd.ideals] == list(jfd.ideals)
    _conclude(13, "round ideals for the order relation coincide with all "
                  "ideals, elementwise", ok)
