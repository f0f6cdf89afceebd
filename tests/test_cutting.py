import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import spatial

import hypergconv as hg
from hypergconv import DomainError, base_point, cutting
from hypergconv.cutting import (
    N_FAIL_FACTOR,
    AdversaryExhausted,
    CutConfig,
    CutGameState,
    adversary_respond,
    default_eps,
    new_game,
    packing_build,
    packing_floor,
    play_game,
    quarter_law_holds,
    random_ball_player,
    volume_ball,
)
from hypergconv.cutting import (
    _conflict_radius,
    _exact_conflict,
    _fewest_hits,
    _packing_coords,
    _poincare,
)
from hypergconv.sampling import ball_radius_sampler, make_rng


def pairwise_min_cosh(points):
    C = np.array([p.coords for p in points])
    g = C[:, :1] @ C[:, :1].T - C[:, 1:] @ C[:, 1:].T
    np.fill_diagonal(g, np.inf)
    return g.min()


class TestConfig:
    def test_default_eps(self):
        cfg = CutConfig(d=5, r=4.0)
        assert cfg.eps == default_eps(5) == 1.0 / (320 * 4)

    def test_guards(self):
        with pytest.raises(DomainError):
            CutConfig(d=2, r=1.0)
        with pytest.raises(DomainError):
            CutConfig(d=3, r=1.0, eps=1.5)

    # a radius that is not finite fails here, not later in the sampler
    @pytest.mark.parametrize("r", [np.nan, np.inf])
    def test_radius_not_finite(self, r):
        with pytest.raises(DomainError):
            CutConfig(d=3, r=r)


class TestPacking:
    def test_tiny_ball_single_center(self):
        # with eps r nearly r, nothing but the center fits
        cfg = CutConfig(d=3, r=0.5, eps=0.99, seed=0)
        pts = packing_build(cfg)
        assert len(pts) >= 1
        assert pairwise_min_cosh(pts) >= np.cosh(2 * cfg.ball_radius) - 1e-12 \
            or len(pts) == 1

    def test_pairwise_separation_exact(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=1)
        pts = packing_build(cfg)
        assert pairwise_min_cosh(pts) >= np.cosh(2 * cfg.ball_radius)

    def test_count_within_factor_ten_of_volume_ratio(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=1)
        pts = packing_build(cfg)
        est = volume_ball(3, cfg.r - cfg.ball_radius) / volume_ball(3, 2 * cfg.ball_radius)
        assert est / 10 <= len(pts) <= est * 10

    def test_deterministic(self):
        cfg = CutConfig(d=3, r=4.0, eps=0.1, seed=5, max_centers=256)
        a = packing_build(cfg)
        b = packing_build(cfg)
        assert len(a) == len(b)
        assert all(np.array_equal(p.coords, q.coords) for p, q in zip(a, b))


def dense_packing_coords(cfg, rng):
    """The packing as it was before the KD-tree filter: every proposal of a
    batch against every old center through one dense Gram (the reference)."""
    d = cfg.d
    eff_r = cfg.r - cfg.ball_radius
    if eff_r <= 0:
        return base_point(d).coords[None, :]
    min_cosh = np.cosh(2.0 * cfg.ball_radius)
    sampler = ball_radius_sampler(d, eff_r)
    buf = np.empty((cfg.max_centers, d + 1))
    n_acc = 0
    fails = 0
    batch = 4096
    stop = False
    while not stop:
        ts = sampler(rng, batch)
        dirs = rng.standard_normal((batch, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.column_stack([np.cosh(ts), np.sinh(ts)[:, None] * dirs])
        # -<p, a> = p0 a0 - p.a ; conflict when any -<p,a> < cosh(2 eps r)
        n_old = n_acc
        if n_old:
            gram = pts[:, 0:1] @ buf[:n_old, 0:1].T - pts[:, 1:] @ buf[:n_old, 1:].T
            old_conflict = (gram < min_cosh).any(axis=1)
        else:
            old_conflict = np.zeros(batch, dtype=bool)
        for i in range(batch):
            conflict = bool(old_conflict[i])
            if not conflict and n_acc > n_old:
                fm = buf[n_old:n_acc]
                q = pts[i, 0] * fm[:, 0] - fm[:, 1:] @ pts[i, 1:]
                conflict = bool((q < min_cosh).any())
            if conflict:
                fails += 1
                if fails >= N_FAIL_FACTOR * max(1, n_acc):
                    stop = True
                    break
            else:
                buf[n_acc] = pts[i]
                n_acc += 1
                fails = 0
                if n_acc >= cfg.max_centers:
                    stop = True
                    break
    return buf[:n_acc].copy() if n_acc else base_point(d).coords[None, :]


class TestPackingIdentity:
    # The capped configs fill in their first batch, so they check the greedy
    # and its RNG draws; r=4.1 runs 20+ batches against the tree.  The others
    # saturate, and their fail-count stop decides the packing: r=2 stops
    # across batches, and an off-by-one in the bulk count changes r=0.6
    # (within a batch) and r=2, eps=0.15 (at the batch end).
    @pytest.mark.parametrize("d, r, eps, max_centers, seed", [
        *[(3, 4.0, 0.12, 256, s) for s in range(4)],
        (4, 6.0, None, 512, 0),
        (3, 4.1, 0.12, 2048, 0),
        (3, 2.0, 0.12, 2048, 0),
        (3, 2.0, 0.12, 2048, 1),
        (3, 0.6, 0.3, 2048, 5),
        (3, 2.0, 0.15, 2048, 0),
    ])
    def test_equals_dense_gram(self, d, r, eps, max_centers, seed):
        cfg = CutConfig(d=d, r=r, eps=eps, seed=seed, max_centers=max_centers)
        got = _packing_coords(cfg, make_rng(seed))
        assert got.tobytes() == dense_packing_coords(cfg, make_rng(seed)).tobytes()


@st.composite
def packing_pairs(draw):
    """Proposal p and center a stored as the packing stores them, at radius
    <= 19 in H^d, d in [3, 8], with 2 eps r in (0, 2].  Their distance is a
    multiple of 2 eps r, just below it in half the cases; a sits anywhere
    the triangle inequality allows, the radially inward end included."""
    d = draw(st.integers(3, 8))
    sep = draw(st.floats(0.0, 2.0, exclude_min=True))
    t_p = draw(st.floats(0.0, 19.0))
    D = sep * draw(st.one_of(st.floats(0.0, 1.5),
                             st.floats(1.0 - 1e-6, 1.0, exclude_max=True)))
    lo, hi = abs(t_p - D), min(t_p + D, 19.0)
    t_a = lo + draw(st.floats(0.0, 1.0)) * max(hi - lo, 0.0)
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    e, w = rng.standard_normal((2, d))
    e /= np.linalg.norm(e)
    w -= (w @ e) * e
    w /= np.linalg.norm(w)
    den = np.sinh(t_p) * np.sinh(t_a)
    c = 1.0 if den == 0.0 else np.clip(
        (np.cosh(t_p) * np.cosh(t_a) - np.cosh(D)) / den, -1.0, 1.0)
    f = c * e + np.sqrt(1.0 - c * c) * w
    f /= np.linalg.norm(f)
    p = np.concatenate([[np.cosh(t_p)], np.sinh(t_p) * e])
    a = np.concatenate([[np.cosh(t_a)], np.sinh(t_a) * f])
    return p[None, :], a[None, :], np.cosh(sep)


class TestConflictFilter:
    # the tree only chooses which pairs get the exact test, so it must never
    # miss one: every pair the exact test flags lies inside the query ball
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(packing_pairs())
    def test_ball_query_holds_every_conflict(self, case):
        p, a, min_cosh = case
        if _exact_conflict(p, a, min_cosh)[0]:
            radius = _conflict_radius(p[:, 0], min_cosh, p.shape[1] - 1)[0]
            tree = spatial.cKDTree(_poincare(a))
            assert tree.query_ball_point(_poincare(p)[0], radius) == [0]


class TestVolume:
    def test_zero_radius(self):
        assert volume_ball(4, 0.0) == 0.0

    def test_closed_forms(self):
        # antiderivatives of sinh^{d-1} times the ball-volume normalization
        # used throughout this module (the bounds share the same constant)
        for r in (0.5, 2.0, 3.0):
            assert volume_ball(2, r) == pytest.approx(
                np.pi * (np.cosh(r) - 1), rel=1e-8)
            assert volume_ball(3, r) == pytest.approx(
                np.pi * (np.sinh(2 * r) - 2 * r) / 3, rel=1e-8)

    def test_exponential_upper_bound(self):
        from scipy.special import gamma
        for d in range(3, 9):
            omega = np.pi ** (d / 2) / gamma(d / 2 + 1)
            for r in np.linspace(4 * np.log(d), 20.0, 6):
                ub = omega * np.exp(r * (d - 1)) / ((d - 1) * 2 ** (d - 1))
                assert volume_ball(d, r) <= ub * (1 + 1e-6)

    def test_lower_bound_beyond_log_radius(self):
        from scipy.special import gamma
        for d in range(3, 9):
            omega = np.pi ** (d / 2) / gamma(d / 2 + 1)
            for r in np.linspace(4 * np.log(d), 20.0, 6):
                lb = 0.25 * omega * np.exp(r * (d - 1)) / ((d - 1) * 2 ** (d - 1))
                assert volume_ball(d, r) >= lb * (1 - 1e-6)


class TestAdversary:
    def test_single_far_candidate_survives(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=2)
        state = CutGameState(cfg, np.array([
            hg.exp(base_point(3), hg.frame_at_base(3)[0].scaled(3.0)).coords]))
        g = adversary_respond(state, base_point(3), make_rng(0))
        assert state.n_candidates == 1
        assert state.verify_consistency()

    def test_sign_choice_is_optimal(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=3, max_centers=512)
        state = new_game(cfg)
        rng = make_rng(10)
        before = state.candidates.copy()
        adversary_respond(state, base_point(3), rng)
        rec = state.history[-1]
        sh = np.sinh(cfg.ball_radius)
        col = before[:, 1:] @ rec.g[1:] - before[:, 0] * rec.g[0]
        plus = int((col < -sh).sum())
        minus = int((col > sh).sum())
        assert rec.survivors == max(plus, minus)

    def test_prune_keeps_only_consistent(self):
        cfg = CutConfig(d=3, r=5.0, eps=0.1, seed=4, max_centers=512)
        state = new_game(cfg)
        rng = make_rng(11)
        player = random_ball_player(cfg)
        for _ in range(5):
            if state.n_candidates == 0:
                break
            adversary_respond(state, player(state, rng), rng)
            assert state.verify_consistency()

    def test_exhaustion_on_pinned_candidate(self):
        # a single candidate queried exactly on itself: every hyperplane
        # through the query grazes its ball
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=5)
        c = hg.exp(base_point(3), hg.frame_at_base(3)[0].scaled(2.0))
        state = CutGameState(cfg, np.array([c.coords]))
        with pytest.raises(AdversaryExhausted):
            adversary_respond(state, c, make_rng(1))

    def test_round_checks_the_new_cut(self, monkeypatch):
        # a prune that keeps every candidate, whichever side of the cut it is on
        monkeypatch.setattr(cutting, "_fewest_hits", lambda cand, normals, sh: (
            *_fewest_hits(cand, normals, sh)[:2], np.full(len(cand), -2.0 * sh)))
        state = new_game(CutConfig(d=3, r=5.0, eps=0.1, seed=4, max_centers=512))
        with pytest.raises(AssertionError, match="consistency"):
            adversary_respond(state, base_point(3), make_rng(11))

    def test_empty_candidates_signal(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=6)
        state = CutGameState(cfg, np.zeros((0, 4)))
        with pytest.raises(AdversaryExhausted):
            adversary_respond(state, base_point(3), make_rng(2))


def dense_fewest_hits(cand, normals, sh):
    """The hit count as it was before blocking: the whole M x 512 form at
    once (the reference)."""
    q = cand[:, 1:] @ normals[:, 1:].T - np.outer(cand[:, 0], normals[:, 0])
    hits = (np.abs(q) <= sh).sum(axis=0)
    best = int(np.argmin(hits))
    return best, int(hits[best]), q[:, best]


class TestBlockedHits:
    # the workload's dense packing and normals drawn as the adversary draws
    # them, at a query point off the center
    cfg = CutConfig(d=3, r=4.1, eps=0.12, seed=0)
    sh = np.sinh(cfg.ball_radius)

    @pytest.fixture(scope="class")
    def cand(self):
        return _packing_coords(self.cfg, make_rng(0))

    @pytest.fixture(scope="class")
    def normals(self):
        rng = make_rng(3)
        x = random_ball_player(self.cfg)(None, rng).coords
        raw = rng.standard_normal((cutting.N_NORMAL_SAMPLES, 4))
        raw += (raw[:, 1:] @ x[1:] - raw[:, 0] * x[0])[:, None] * x
        raw /= np.sqrt(np.einsum("ij,ij->i", raw[:, 1:], raw[:, 1:]) - raw[:, 0] ** 2)[:, None]
        return raw

    def assert_same(self, cand, normals, sh=sh):
        best, hits, col = _fewest_hits(cand, normals, sh)
        ref_best, ref_hits, ref_col = dense_fewest_hits(cand, normals, sh)
        assert (best, hits) == (ref_best, ref_hits)
        assert col.tobytes() == ref_col.tobytes()
        return best, hits

    # M <= 128, block edges at 32 normals, partial blocks, and a tail under
    # 16 normals merged into the block before it (33 and 65 normals a block
    # at M = 1985 and 1000)
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 128, 129, 1000, 1985, 2047, 2048])
    def test_equals_dense(self, cand, normals, m):
        assert len(cand) == 2048
        self.assert_same(cand[:m], normals)

    # BLAS may round the last rows of a product apart from the rest, and a
    # best column catches that only when it is the one returned: make each
    # column in turn the best, the others grazing every ball
    def test_every_column_equals_dense(self, cand, normals):
        for j in range(0, len(normals), 17):
            forced = normals * 1e-12
            forced[j] = normals[j]
            assert self.assert_same(cand[:2047], forced)[0] == j

    # |q| == sinh(eps r) is a hit: at sh = 0 nothing is, so normal 0 wins and
    # its q sets a boundary that it lies on
    def test_boundary_is_a_hit(self, cand, normals):
        sh = abs(dense_fewest_hits(cand[:1], normals, 0.0)[2][0])
        assert self.assert_same(cand[:1], normals, sh)[0] > 0

    @pytest.mark.parametrize("m", [33, 2048])
    def test_duplicates_resolve_to_first(self, cand, normals, m):
        best = dense_fewest_hits(cand[:m], normals, self.sh)[0]
        dup = normals.copy()
        dup[[3, 4, 500]] = normals[best]  # 500 lies in a later block
        assert self.assert_same(cand[:m], dup)[0] == min(best, 3)

    def test_nan_candidate_is_no_hit(self, cand, normals):
        with_nan = np.insert(cand[:100], 7, np.nan, axis=0)
        assert self.assert_same(with_nan, normals) == _fewest_hits(
            cand[:100], normals, self.sh)[:2]

    # the first normal that grazes no ball, at a block's first and last
    # index (blocks of 16, then 32 normals at M = 2048), in the last block,
    # and nowhere: every fixture normal grazes some ball, and a scaled one
    # grazes none
    @pytest.mark.parametrize("k", [0, 31, 32, 500, 511, None])
    def test_first_zero_equals_dense(self, cand, normals, k):
        forced = normals.copy()
        if k is not None:
            forced[[k, 511]] *= 1e6
        best, hits = self.assert_same(cand, forced)
        assert (best, hits) == (k, 0) if k is not None else hits > 0

    def scan_starts(self, cand, normals):
        """The first normal of each block that ``_fewest_hits`` forms."""
        starts = []

        class Recording(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, tuple) and key[1:] == (slice(1, None),):
                    starts.append(key[0].start)
                return super().__getitem__(key)

        _fewest_hits(cand, normals.view(Recording), self.sh)
        return starts

    # blocks grow 16, 32, 64, ... up to _BLOCK_ENTRIES // M normals (32 at
    # M = 2048), and the last 16 normals form a block of their own
    @pytest.mark.parametrize("k, blocks", [(0, 1), (15, 1), (16, 2), (31, 2), (32, 2),
                                           (48, 3), (500, 17), (None, 17)])
    def test_scan_stops_after_first_zero_block(self, cand, normals, k, blocks):
        forced = normals.copy()
        if k is not None:
            forced[k] *= 1e6
        assert self.scan_starts(cand, forced) == ([0] + list(range(16, 512, 32)))[:blocks]

    # M = 128: blocks of 16, 32, 64, 128 and 256 normals, then the last 16.
    # Fixture normal 7 grazes none of the first 128 balls, so one block of 16
    # is formed; with every other normal grazing every ball, a later zero-hit
    # normal k forms more, and none forms all
    @pytest.mark.parametrize("k, blocks", [(7, 1), (16, 2), (300, 5), (None, 6)])
    def test_zero_in_block_1_at_128(self, cand, normals, k, blocks):
        forced = normals.copy() if k == 7 else normals * 1e-12
        if k not in (7, None):
            forced[k] = normals[k] * 1e6
        best, hits = self.assert_same(cand[:128], forced)
        assert (best, hits) == (k, 0) if k is not None else hits == 128
        assert self.scan_starts(cand[:128], forced) == [0, 16, 48, 112, 240, 496][:blocks]

    def test_workload_game_records(self, monkeypatch):
        cfg = CutConfig(d=3, r=4.1, eps=0.12, seed=3, max_rounds=40)
        blocked = play_game(cfg, random_ball_player(cfg)).state.history
        monkeypatch.setattr(cutting, "_fewest_hits", dense_fewest_hits)
        dense = play_game(cfg, random_ball_player(cfg)).state.history
        assert len(blocked) == len(dense) == 40
        for a, b in zip(blocked, dense):
            assert (a.hits, a.survivors, a.quarter_ok) == (b.hits, b.survivors, b.quarter_ok)
            assert a.g.tobytes() == b.g.tobytes()


class TestQuarterLaw:
    def test_share_edges(self):
        assert cutting.QUARTER_LAW_SHARE == 0.9
        assert quarter_law_holds(0.9)
        assert not quarter_law_holds(np.nextafter(0.9, 0.0))
        assert not quarter_law_holds(float("nan"))


class TestCheckEdges:
    # a game whose consistency or replay check fails fails its own row and the
    # aggregate row, and no other
    @pytest.mark.parametrize("owner,method", [
        (cutting.GameTranscript, "replay_ok"), (CutGameState, "verify_consistency")])
    def test_failed_game_fails_its_row(self, monkeypatch, owner, method):
        monkeypatch.setattr(owner, method, lambda self: self.cfg.seed != 2)
        transcript = {}
        rows = list(cutting.cut_game_checks(3, 4.0, 0.12, 2, 5, "random", 1, transcript))
        assert [(case, passed) for case, _, _, passed in rows] == [
            ("seed=1", True), ("seed=2", False), ("aggregate-quarter-law", False)]
        assert [g["seed"] for g in transcript["games"]] == [1, 2]


class TestPlayGame:
    def test_repeat_center_consistency_and_replay(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=7, max_rounds=25)
        tr = play_game(cfg)
        assert tr.state.verify_consistency()
        assert tr.replay_ok()
        assert tr.quarter_violations == sum(
            1 for rec in tr.state.history if not rec.quarter_ok)

    def test_random_player_runs(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=8, max_rounds=10)
        tr = play_game(cfg, random_ball_player(cfg))
        assert tr.rounds_survived <= 10
        assert tr.packing_size > 0
        assert tr.floor == packing_floor(cfg)

    def test_deterministic_transcript(self):
        cfg = CutConfig(d=3, r=5.0, eps=0.12, seed=9, max_rounds=8, max_centers=512)
        a = play_game(cfg, random_ball_player(cfg))
        b = play_game(cfg, random_ball_player(cfg))
        assert a.rounds_survived == b.rounds_survived
        assert all(np.array_equal(x.g, y.g)
                   for x, y in zip(a.state.history, b.state.history))
