"""The cutting-planes game: a consistency-maintaining adversary on a ball packing.

The adversary seeds candidate targets from a greedy maximal packing of
B(x_ref, r - eps r) with separation 2 eps r, then answers each query with a
separating hyperplane normal chosen (by sampling) to graze as few candidate
balls as possible, keeping the side with more survivors.  Quantitative
survival laws hold only at astronomically large radii, so the module reports
empirical survival statistics and enforces just the structural invariants:
every surviving candidate is consistent with the full history, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hyperboloid import DomainError, HPoint, HTangent, base_point
from .sampling import ball_radius_sampler, make_rng

__all__ = [
    "AdversaryExhausted",
    "CutConfig",
    "CutGameState",
    "RoundRecord",
    "GameTranscript",
    "default_eps",
    "packing_floor",
    "packing_build",
    "QUARTER_LAW_SHARE",
    "quarter_law_holds",
    "adversary_respond",
    "volume_ball",
    "play_game",
    "repeat_center_player",
    "random_ball_player",
    "PLAYERS",
    "cut_game_checks",
]


# Candidate normals the adversary samples per round.
N_NORMAL_SAMPLES = 512
# The packing stops after this many consecutive rejections per accepted center.
N_FAIL_FACTOR = 200
# Share of all rounds of a set of games that must keep a quarter of the
# candidates (RoundRecord.quarter_ok).
QUARTER_LAW_SHARE = 0.9
# Entries of the adversary's form per block of normals: a block, its
# absolute value and its hit mask stay in cache.
_BLOCK_ENTRIES = 2 ** 16


class AdversaryExhausted(RuntimeError):
    """No sampled normal keeps any candidate alive: the player has won."""


def default_eps(d: int) -> float:
    return 1.0 / (320.0 * (d - 1))


@dataclass(frozen=True)
class CutConfig:
    """Game parameters; ``eps=None`` selects the canonical 1/(320(d-1)).

    ``max_centers`` caps the greedy packing: saturated packings at desk
    parameters run to 1e5+ centers, which buys nothing for the structural
    invariants the game certifies but costs minutes per seed.
    """

    d: int
    r: float
    eps: float | None = None
    seed: int = 0
    max_centers: int = 2048
    max_rounds: int = 200

    def __post_init__(self):
        if self.d < 3:
            raise DomainError("the game needs d >= 3")
        if not (0.0 < self.r < np.inf):
            raise DomainError(f"r must be finite and positive, got r={self.r}")
        if self.eps is None:
            object.__setattr__(self, "eps", default_eps(self.d))
        if not (0.0 < self.eps < 1.0):
            raise DomainError("eps must lie in (0, 1)")

    @property
    def ball_radius(self) -> float:
        return self.eps * self.r

    def target_rounds(self) -> float:
        """The large-radius query floor (d-1) r / 32, reported, never asserted."""
        return (self.d - 1) * self.r / 32.0


def quarter_law_holds(share: float) -> bool:
    """Whether a share of quarter-law rounds meets QUARTER_LAW_SHARE; a NaN fails."""
    return share >= QUARTER_LAW_SHARE


def packing_floor(cfg: CutConfig) -> float:
    """Counting floor exp((d-1) r / 4) / 4 valid at the theorem's radii."""
    return 0.25 * np.exp(0.25 * (cfg.d - 1) * cfg.r)


def packing_build(cfg: CutConfig) -> list[HPoint]:
    """Greedy maximal packing by seeded rejection sampling.

    Samples volume-uniform points in B(x_ref, r - eps r), accepts a proposal
    if it keeps distance >= 2 eps r from all accepted centers, and stops after
    N_FAIL_FACTOR * (current size) consecutive rejections.  Deterministic for
    a given seed.
    """
    rng = make_rng(cfg.seed)
    coords = _packing_coords(cfg, rng)
    return [HPoint(c) for c in coords]


def _packing_coords(cfg: CutConfig, rng: np.random.Generator) -> np.ndarray:
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
        n_old = n_acc
        old_conflict = _old_conflicts(pts, buf[:n_old], min_cosh)
        prev = -1
        # the greedy visits only the proposals free of old conflicts; the ones
        # between are rejections, counted in bulk.  The limit holds still until
        # the next acceptance, so it is checked there and at the batch end.
        for i in np.flatnonzero(~old_conflict).tolist():
            fails += i - prev - 1
            prev = i
            if fails >= N_FAIL_FACTOR * max(1, n_acc):
                break
            # -<p, a> = p0 a0 - p.a ; conflict when any -<p,a> < cosh(2 eps r)
            fm = buf[n_old:n_acc]
            q = pts[i, 0] * fm[:, 0] - fm[:, 1:] @ pts[i, 1:]
            if (q < min_cosh).any():
                fails += 1
            else:
                buf[n_acc] = pts[i]
                n_acc += 1
                fails = 0
                if n_acc >= cfg.max_centers:
                    break
        else:
            fails += batch - 1 - prev
        stop = n_acc >= cfg.max_centers or fails >= N_FAIL_FACTOR * max(1, n_acc)
    return buf[:n_acc].copy() if n_acc else base_point(d).coords[None, :]


def _poincare(pts: np.ndarray) -> np.ndarray:
    """Poincare-ball coordinates u = p_s / (1 + p0) of hyperboloid rows."""
    return pts[:, 1:] / (1.0 + pts[:, :1])


def _exact_conflict(p: np.ndarray, a: np.ndarray, min_cosh: float) -> np.ndarray:
    """The packing's test, row by row: -<p, a> = p0 a0 - p.a < cosh(2 eps r)."""
    # a stacked matmul rounds p.a as the batch's dense Gram did in all but
    # ~0.2% of rows (einsum: ~25%), and only a q within an ulp of the bound
    # could then flip
    return p[:, 0] * a[:, 0] - (p[:, None, 1:] @ a[:, 1:, None])[:, 0, 0] < min_cosh


def _conflict_radius(p0: np.ndarray, min_cosh: float, d: int) -> np.ndarray:
    """Poincare-ball radius around each proposal that holds every old conflict.

    Every center a whose exact test against the proposal p fires, rounding
    of the test and of both points included, lies within this distance of p
    in Poincare coordinates (see README, "The cut-game packing").
    """
    # eta bounds the test's rounding relative to p0 a0, and each stored
    # point's defect |p0^2 - 1 - |p_s|^2| relative to p0^2, with room to spare
    eta = 32.0 * (d + 1) * 2.0 ** -53
    z = 1.0 / (1.0 + p0)
    b = z + eta
    m = b + (1.0 + eta) ** 2 * (min_cosh - 1.0) * z
    w = m + np.sqrt(m * m - b * b + (1.0 + eta) ** 2 * eta)  # bound on 1 / (1 + a0)
    return (1.0 + 1e-3) * np.sqrt(2.0 * (min_cosh - 1.0) * z * w + eta)


def _old_conflicts(pts: np.ndarray, old: np.ndarray, min_cosh: float) -> np.ndarray:
    """Which proposals fail the exact test against some old center.

    A KD-tree over the old centers' Poincare coordinates only chooses the
    pairs that get the test: the nearest center of every proposal, then, for
    the proposals it does not settle, every center within the conservative
    radius of ``_conflict_radius``.
    """
    if not len(old):
        return np.zeros(len(pts), dtype=bool)
    from scipy.spatial import cKDTree  # README, "Import cost"
    u = _poincare(pts)
    tree = cKDTree(_poincare(old))
    nearest = tree.query(u, k=1)[1]
    conflict = _exact_conflict(pts, old[nearest], min_cosh)
    rest = np.flatnonzero(~conflict)
    radius = _conflict_radius(pts[rest, 0], min_cosh, pts.shape[1] - 1)
    near = tree.query_ball_point(u[rest], radius)
    rows = np.repeat(rest, [len(c) for c in near])
    if rows.size:
        cols = np.concatenate(near).astype(np.intp)
        conflict[rows[_exact_conflict(pts[rows], old[cols], min_cosh)]] = True
    return conflict


@dataclass
class RoundRecord:
    k: int
    x: np.ndarray
    g: np.ndarray
    hits: int
    survivors: int
    quarter_ok: bool


@dataclass
class CutGameState:
    """Surviving candidate centers plus the complete query/response history."""

    cfg: CutConfig
    candidates: np.ndarray
    history: list[RoundRecord] = field(default_factory=list)
    round: int = 0

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[0]

    def verify_consistency(self) -> bool:
        """Exact re-check: every survivor respects every recorded half-space."""
        return _respects(self.candidates, self.history[:self.round], self.cfg)


def _form(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return mat[:, 1:] @ vec[1:] - mat[:, 0] * vec[0]


def _respects(pts: np.ndarray, history: list[RoundRecord], cfg: CutConfig) -> bool:
    """<p, g> < -sinh(eps r) for every row p of pts and every recorded cut g."""
    sh = np.sinh(cfg.ball_radius)
    return all(np.all(_form(pts, rec.g) < -sh) for rec in history)


def new_game(cfg: CutConfig) -> CutGameState:
    return CutGameState(cfg, _packing_coords(cfg, make_rng(cfg.seed)))


def _fewest_hits(cand: np.ndarray, normals: np.ndarray, sh: float
                 ) -> tuple[int, int, np.ndarray]:
    """The normal whose slab |<c, n>| <= sh holds the fewest candidates c.

    Returns its index (the first one on ties), that count and its column
    q[:, best] of q[c, j] = <cand_c, normal_j>.  q is formed a block of
    normals at a time, so no M x 512 array is built; every entry is the
    same gemm and subtraction as in the whole form, so the bits are too.
    The scan stops after the block that holds the first normal with no
    hit, which no later normal can beat (README, "The adversary's hit
    count").
    """
    # at least 16 normals: a one-column product goes through gemv, which
    # rounds differently
    step = max(16, _BLOCK_ENTRIES // len(cand))
    ones = np.ones(len(cand))
    c0, n0 = cand[:, 0].copy(), normals[:, 0].copy()
    best, fewest, col = 0, len(cand) + 1, None
    for lo in range(0, len(normals), step):
        # the normals stay the product's columns, as in the whole form; as
        # its rows, BLAS rounds some entries differently at some M
        q = cand[:, 1:] @ normals[lo:lo + step, 1:].T
        # einsum writes a zero product as +0 where np.outer writes -0; with
        # c0 >= 1 that needs n0 = -0, which the sampled normals never have
        q -= np.einsum("i,j->ij", c0, n0[lo:lo + step])
        hits = ones @ (np.abs(q) <= sh)  # sums of 0/1 doubles, exact
        j = int(np.argmin(hits))
        if hits[j] < fewest:  # strict: ties keep the first index, as argmin
            best, fewest, col = lo + j, int(hits[j]), q[:, j].copy()
            if fewest == 0:  # counts are never negative or NaN
                break
    return best, fewest, col


def adversary_respond(state: CutGameState, x_k: HPoint,
                      rng: np.random.Generator) -> HTangent:
    """Pick the sampled unit normal grazing the fewest candidate balls.

    The returned vector is signed so that every surviving candidate ball lies
    strictly on the nonpositive side; survivors are pruned in place and the
    round is recorded.  Raises AdversaryExhausted when no sampled normal
    keeps a candidate alive.
    """
    cfg = state.cfg
    if state.n_candidates == 0:
        raise AdversaryExhausted("no candidates remain")
    xc = x_k.coords
    raw = rng.standard_normal((N_NORMAL_SAMPLES, cfg.d + 1))
    # project to the tangent space at x and normalize
    ip = _form(raw, xc)
    raw = raw + ip[:, None] * xc[None, :]
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", raw[:, 1:], raw[:, 1:])
                               - raw[:, 0] ** 2, 1e-300))
    raw /= norms[:, None]
    sh = np.sinh(cfg.ball_radius)
    best, hits, col = _fewest_hits(state.candidates, raw, sh)
    surv_plus = int((col < -sh).sum())    # survivors if g = +normal
    surv_minus = int((col > sh).sum())    # survivors if g = -normal
    if max(surv_plus, surv_minus) == 0:
        raise AdversaryExhausted("every sampled normal eliminates all candidates")
    if surv_plus >= surv_minus:
        g_vec, keep = raw[best], col < -sh
        survivors = surv_plus
    else:
        g_vec, keep = -raw[best], col > sh
        survivors = surv_minus
    quarter_ok = survivors >= state.n_candidates / 4.0
    state.candidates = state.candidates[keep]
    state.history.append(RoundRecord(state.round, xc.copy(), g_vec.copy(),
                                     hits, survivors, bool(quarter_ok)))
    state.round += 1
    # survivors only shrink and already respect every older cut
    if not _respects(state.candidates, state.history[-1:], cfg):
        raise AssertionError("survivor consistency invariant broken")
    return HTangent(x_k, g_vec)


def _adaptive_simpson(f, a: float, b: float, rel_tol: float) -> float:
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fb, fm, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 48 or abs(left + right - whole) <= \
                15.0 * rel_tol * max(abs(left + right), 1e-300):
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, fm, flm, left, depth + 1)
                + recurse(m, b, fm, fb, frm, right, depth + 1))

    return recurse(a, b, fa, fb, fm, whole, 0)


def volume_ball(d: int, r: float) -> float:
    """Hyperbolic ball volume omega_d * integral_0^r sinh^{d-1}(t) dt.

    Adaptive Simpson quadrature with relative tolerance 1e-8.
    """
    if d < 2:
        raise DomainError("volume needs d >= 2")
    if r < 0:
        raise DomainError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    from scipy.special import gamma  # not math.gamma: README, "Import cost"
    omega = np.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0)
    return omega * _adaptive_simpson(lambda t: np.sinh(t) ** (d - 1), 0.0, r, 1e-8)


def repeat_center_player(cfg: CutConfig):
    """Queries the reference point forever."""
    center = base_point(cfg.d)

    def pick(state: CutGameState, rng: np.random.Generator) -> HPoint:
        return center

    return pick


def random_ball_player(cfg: CutConfig):
    """Queries volume-uniform random points of B(x_ref, r)."""
    center = base_point(cfg.d)
    sampler = ball_radius_sampler(cfg.d, cfg.r)

    def pick(state: CutGameState, rng: np.random.Generator) -> HPoint:
        t = float(sampler(rng, 1)[0])
        dirs = rng.standard_normal(cfg.d)
        dirs /= np.linalg.norm(dirs)
        return HPoint(np.concatenate([[np.cosh(t)], np.sinh(t) * dirs]))

    return pick


@dataclass
class GameTranscript:
    cfg: CutConfig
    packing_size: int
    floor: float
    rounds_survived: int
    exhausted: bool
    quarter_violations: int
    xstar: np.ndarray
    state: CutGameState

    def replay_ok(self) -> bool:
        """Exact consistency of the selected target with the verified history."""
        return _respects(self.xstar[None, :],
                         self.state.history[:self.rounds_survived], self.cfg)


def play_game(cfg: CutConfig, player=None) -> GameTranscript:
    """Run rounds until the adversary is exhausted or max_rounds is reached.

    The adversary's RNG stream is derived from the seed and is independent of
    the packing stream, so transcripts are reproducible.
    """
    if player is None:
        player = repeat_center_player(cfg)
    state = new_game(cfg)
    packing_size = state.n_candidates
    adv_rng = make_rng(cfg.seed + 0x9E3779B9)
    player_rng = make_rng(cfg.seed + 0x61C88647)
    # the packing holds a center and no round prunes the last one, so a
    # candidate is left for every query and for the target x*
    exhausted = False
    while state.round < cfg.max_rounds:
        x = player(state, player_rng)
        try:
            adversary_respond(state, x, adv_rng)
        except AdversaryExhausted:
            exhausted = True
            break
    rounds = state.round
    xstar = state.candidates[0].copy()
    quarter_violations = sum(1 for rec in state.history if not rec.quarter_ok)
    return GameTranscript(cfg, packing_size, packing_floor(cfg), rounds,
                          exhausted, quarter_violations, xstar, state)


PLAYERS = {"random": random_ball_player, "center": repeat_center_player}


def cut_game_checks(d: int, r: float, eps: float | None, games: int, max_rounds: int,
                    player: str, seed: int, transcript: dict):
    """Yield the ``cut-game`` rows (case, measured, bound, passed), one per game
    of ``PLAYERS[player]`` at seed + i and then the aggregate row, and record
    each game in ``transcript["games"]`` (README, "What each CLI row checks")."""
    if player not in PLAYERS:
        raise DomainError(f"unknown cut-game player {player!r}")
    transcript["games"] = []
    rounds = quarter_rounds = 0
    all_ok = True
    for i in range(games):
        cfg = CutConfig(d=d, r=r, eps=eps, seed=seed + i, max_rounds=max_rounds)
        tr = play_game(cfg, PLAYERS[player](cfg))
        ok = tr.state.verify_consistency() and tr.replay_ok()
        n = len(tr.state.history)
        kept = n - tr.quarter_violations  # rounds that kept a quarter
        rounds += n
        quarter_rounds += kept
        all_ok &= ok
        transcript["games"].append({
            "seed": seed + i, "packing_size": tr.packing_size, "floor": tr.floor,
            "rounds": tr.rounds_survived, "exhausted": tr.exhausted,
            "quarter_violations": tr.quarter_violations,
            "target_rounds": cfg.target_rounds()})
        yield f"seed={seed + i}", kept / max(n, 1), 0.25, ok
    share = quarter_rounds / max(rounds, 1)
    transcript["quarter_fraction"] = share
    yield "aggregate-quarter-law", share, QUARTER_LAW_SHARE, quarter_law_holds(share) and all_ok

