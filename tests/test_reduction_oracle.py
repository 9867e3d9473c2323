"""The builder against the former window embedding of `reduction_oracle`.

The former route filled a precursor record and transported the height-two
conjugator twice; the builder reads everything off the aligned tableaux of
lam and transports the conjugator once.  Both must give the same datum.
"""

import reduction_oracle
from slred.orbits import box_moves_from, partitions_of
from slred.reduction import build_case_one, build_reduction


def test_builder_matches_the_former_embedding_on_every_box_move():
    checked = 0
    for n in range(2, 11):
        for lam in partitions_of(n):
            for mu, _rows in box_moves_from(lam):
                datum = build_reduction(lam, mu)
                ad = datum.adjacency
                inner = build_case_one(lam.part(ad.i), lam.part(ad.j), ad.j - ad.i - 1)
                pre = reduction_oracle.embed_case_two(inner, lam, ad)
                assert (pre.lam, pre.mu) == (datum.lam, datum.mu)
                assert pre.window == datum.embedding_window, (lam, mu)
                assert pre.source == datum.pyr_lam, (lam, mu)
                assert pre.target == datum.pyr_mu, (lam, mu)
                assert pre.f_lam == datum.f_lam, (lam, mu)
                assert pre.f_mu_std == datum.f_mu_std, (lam, mu)
                assert pre.f_circ == datum.f_circ, (lam, mu)
                assert pre.f_mu_tilde == datum.f_mu_tilde, (lam, mu)
                assert pre.ghost_basis == datum.ghost_basis, (lam, mu)
                assert pre.conjugator_candidate == datum.conjugator, (lam, mu)
                checked += 1
    assert checked == 229

