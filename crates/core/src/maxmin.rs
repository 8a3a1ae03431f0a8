//! The max-min fair allocator: progressive filling for arbitrary mixes of
//! single-rate and multi-rate sessions (Appendix A of the paper),
//! generalized to arbitrary monotone session link-rate models (Section 3).
//!
//! The entry points are the [`crate::allocator::Allocator`]
//! implementations ([`crate::allocator::MultiRate`],
//! [`crate::allocator::SingleRate`], [`crate::allocator::Hybrid`], …),
//! whose `solve_with` takes the link-rate configuration and shares
//! scratch buffers through a [`crate::allocator::SolverWorkspace`].
//!
//! # Algorithm
//!
//! All receivers start active at rate 0. A global *water level* rises; every
//! active receiver's rate equals the level. A receiver freezes when
//!
//! 1. its session's maximum desired rate `κ_i` is reached, or
//! 2. a link on its data-path is fully utilized **and** raising this
//!    receiver's rate would raise the link's load, or
//! 3. (single-rate sessions only) any other receiver of its session froze —
//!    all receivers of a single-rate session must hold the same rate
//!    (step 7 of the paper's algorithm).
//!
//! Condition 2's "would raise the load" clause matters for multi-rate
//! sessions under the efficient model `u_{i,j} = max{a_{i,k}}`: a receiver
//! whose session-mates already pushed the session's link rate above the
//! current level can keep riding the saturated link *for free* until the
//! level reaches the session's frozen maximum on that link. (The algorithm
//! as printed in the paper's appendix elides this case; without it the
//! produced allocation would violate Definition 1 — a free rider's rate
//! could be raised without decreasing anyone — and would break Theorem 1 on
//! networks like Figure 3(b), where `r_{3,1}` must ride `l_1` past
//! `r_{1,1}`'s frozen rate.)
//!
//! Between freezing events the level advances in closed form: for the
//! piecewise-linear models (`Efficient`, `Scaled`, `Sum`) each link's load is
//! `K + Σ_i w_i · max(b_i, ℓ)` in the level `ℓ`, whose saturation point is
//! found exactly by scanning breakpoints; the nonlinear `RandomJoin` model
//! is searched by an exact replay of a bisection (see "Bracketed search").
//! Every iteration freezes at least one receiver, so the loop runs at most
//! `#receivers` times; an iteration that freezes none ends the solve with
//! [`SolveError::Stalled`].
//!
//! # Implementation: incidence + incremental aggregates
//!
//! Per link, the hot loops visit only the sessions crossing it: the
//! slots of the network's [`mlf_net::Incidence`], sessions ascending.
//! They read per-slot aggregates that [`SolverWorkspace`] re-folds, in
//! ascending receiver order, only for the slots a freezing receiver sits
//! in (see its invariant note). The result is **bitwise identical** to the
//! engine frozen in [`crate::reference`], as the `incidence_differential`
//! suite asserts. `Sum` and `RandomJoin` loads re-fold a slot's positions
//! at each evaluation, in the same order.
//!
//! # Weighted filling
//!
//! [`crate::allocator::Weighted`] runs this loop with a weight `w > 0` per
//! receiver (multi-rate `Efficient` sessions only). The level becomes a
//! potential: an active receiver holds `w·ℓ`, and a slot's session rate is
//! `max(frozen_max, w_max·ℓ)`, with `w_max` its largest active weight,
//! re-folded by `SolverWorkspace::note_freeze`. Only these steps read the
//! weights: the cap `min κ_i / w`, the raise to `w·ℓ`, the saturation term
//! `(frozen_max / w_max, w_max)`, the load `frozen_max.max(w_max·ℓ)`, and
//! the two freeze tests below, each the operation of the frozen
//! `reference::weighted_solve`. `State` takes the weighting as a const
//! parameter, so unweighted solves compile without these branches.
//!
//! **Exact at `w ≡ 1`.** `x / 1.0` and `1.0 · x` are exact, so with unit
//! weights the cap, raise, terms and load are the unweighted ones bit for
//! bit (the load's `ℓ.max(0)` is `ℓ`: the level never falls below 0).
//!
//! **The κ test stays weighted.** A weighted receiver freezes at `κ_i`
//! when `w·ℓ ≥ κ_i − ε`, an unweighted session when `κ_i ≤ ℓ + ε`. These
//! agree in exact arithmetic, but `κ_i − ε` and `ℓ + ε` round differently,
//! so a level within a rounding of the boundary can pass one and fail the
//! other (a `2e-9` link with `κ_i` just over `c + ε` is such a case; see
//! the `weighted` tests). Each keeps the expression of its own reference.
//!
//! **The free-rider test, per receiver.** On a saturated link a weighted
//! receiver freezes once its rate is its session's rate there,
//! `w·ℓ ≥ max(frozen_max, w_max·ℓ) − ε`; lighter receivers ride on. At
//! `w ≡ 1` every active rate is `ℓ`. If `frozen_max ≥ ℓ`, the test is
//! `ℓ ≥ frozen_max − ε`. Otherwise it is `ℓ ≥ ℓ − ε`, true, and so is
//! `ℓ ≥ frozen_max − ε`, as rounding is monotone. Either way it is the
//! slot-level `ℓ ≥ frozen_max − ε` that `session_marginal_on` tests once.
//!
//! # `RandomJoin` loads: per-position miss factors
//!
//! A `RandomJoin{σ}` session's link rate is `σ(1 − ∏_t(1 − a_t/σ))`,
//! folded by `LinkRateModel::link_rate` in ascending-receiver order as
//! `miss *= 1 − a.min(σ).max(0)/σ`. The workspace keeps, per *position*
//! (one entry of the incidence's flat `slot_receivers` array), an active flag
//! and — once the receiver froze — its factor `1 − a.min(σ).max(0)/σ`,
//! written when it freezes (its rate never changes afterwards). A load
//! evaluation at level `ℓ` computes the active factor
//! `g = 1 − ℓ.min(σ).max(0)/σ` once and folds, over the slot's positions
//! in order, `miss *= active ? g : factor`. **Invariant:** these are the
//! same floating-point operations on the same operands in the same order
//! as `link_rate` on the slot's rates (frozen `a`, active `ℓ`), so every
//! load is bit-for-bit the reference's; only the copy into a scratch
//! buffer and the recomputation of frozen factors are gone.
//!
//! # Bracketed search
//!
//! A round needs only `next = min(upper, min_j ℓ_j)` over the links'
//! saturation levels `ℓ_j`. The reference finds each `RandomJoin` link's
//! `ℓ_j` by bisecting `[level, upper]` to `hi − lo < 1e-13·(1 + |hi|)`
//! (at most 200 halvings, returning `lo`). The search here returns what
//! that bisection would leave in `min`, bit for bit, while evaluating the
//! load far less often. Links settled without a search (piecewise-linear
//! links and brackets the end checks `u_j(upper) ≤ c_j + ε`,
//! `u_j(level) ≥ c_j − ε` or a floor decide) go first, the rest in
//! ascending order of an estimate of their crossing (see "`RandomJoin`
//! floors"), so the running minimum `best` falls early. `min` is
//! order-independent on the non-negative, non-NaN levels involved, so the
//! order changes how much work a round does, never its result.
//! Everything below rests on one lemma.
//!
//! **Monotonicity.** `State::link_load_at` is non-decreasing in the
//! level under IEEE rounding. Every operation on the level's path is a
//! correctly rounded monotone operation on non-negative operands:
//! `min(σ)`, `max(0)`, division by `σ > 0`, `1 − x`, products of factors in
//! `[0, 1]`, multiplication by `σ` or a factor `≥ 1`, and sums. So
//! `u_j(x) ≤ c_j` holds on a down-set of levels: once one level is known
//! to satisfy it (a *good* level) every level below does, and once one is
//! known to fail it (a *bad* level) every level above fails too.
//!
//! **Early exit.** The bisection stops, returning `lo`, once `lo ≥ best`.
//! `lo` only rises, so the finished bisection would return a level
//! `≥ lo ≥ best` too, and `min(best, ·)` is `best` either way.
//!
//! **One-probe skip.** The search first evaluates the link once at
//! `q = best + 1e-12·(1 + |best|)`. If `u_j(q) ≤ c_j`, every midpoint
//! `≤ q` is good by monotonicity, so the bisection's `hi` only ever moves
//! to midpoints above `q`. While `lo < best`, then,
//! `hi − lo > q − best ≈ 1e-12·(1 + best)`, and since `hi ↦ hi − best −
//! 1e-13·(1 + hi)` increases and is already `≈ 0.9e-12·(1 + best)` at
//! `hi = q`, the tolerance exit cannot fire below `best`; the margin of
//! ten tolerances also covers the rounding of `q` and of the exit test.
//! The step cap could still end a bisection below `best` if 200 halvings
//! did not narrow the bracket past the margin: each halving leaves at most
//! `w/2 + 2^-53·hi` of a width `w`, so from `upper ≤ 2^100` the width after
//! 200 halvings is below `2^-100 + 2^-52·best`, far under the margin. The
//! skip therefore returns `best` only when `upper ≤ 2^100`; above it (or
//! when `q ≥ upper`) the probe only narrows the bracket. A zero margin
//! would not do: a crossing less than one tolerance above a linear link's
//! closed-form level `best` passes the probe at `q = best`, yet its
//! bisection can end below `best`.
//!
//! **Bracketed replay.** Otherwise the search replays the bisection's
//! exact midpoint sequence and loop exits, keeping the largest good level
//! and the smallest bad one it knows (initially `level`, `upper` and the
//! probe). A midpoint at or below the good level resolves `lo = mid` with
//! no evaluation, one at or above the bad level resolves `hi = mid`; only a
//! midpoint strictly between them is still open. An open midpoint first
//! gets one Illinois regula falsi point inside the bracket (moved to the
//! next float inside when it rounds onto an end), and is evaluated itself
//! only if that did not decide it. Each halving thus costs at most two
//! evaluations, and the probe counts as the first halving's extra one.
//! Regula falsi pins the crossing to a few floats within a handful of
//! evaluations, after which almost every midpoint resolves for free.
//!
//! **Reused lower bracket.** The freeze pass evaluates the load of every
//! active link its floor does not skip at the round's level and keeps it
//! per link ([`SolverWorkspace`]'s `level_load`, NaN at the start of each
//! solve and for a link the pass skipped); the next round reads it as its
//! `u_j(level)`. It is bitwise the load the
//! next round would compute: the level does not change between the two;
//! κ-freezes, which store `rate = κ`, all run before the freeze pass
//! evaluates; and link and closure freezes store `rate = level`, whose
//! miss factor is bitwise the active factor `g` (and whose `Sum` term and
//! `max` contribution are the same `level`), so freezing a receiver later
//! in the pass changes no bit of a load evaluated earlier.
//!
//! # Change-following rounds
//!
//! Between two rounds only the slots of the receivers that froze change.
//! A piecewise-linear ("linear") link whose slots did not change needs
//! neither its exact breakpoint scan nor its freeze-pass load unless it
//! is near the water level, and a bound cached from its last scan shows
//! when it is not.
//!
//! **Bookkeeping.** A solve lists its links with an active receiver once,
//! ascending, each with a flag for "every session crossing it is
//! piecewise-linear", and drops a link from the list when its last
//! receiver freezes. Each exact scan of a linear link stores a *floor*
//! `φ_j` (below). Freezing a receiver of a linear session sets the floor
//! of every link on its route to NaN: the link is *dirty*. A link with a
//! floor is *clean*. The terms `(b_t, w_t)` and constant `K` of a clean
//! link are those of the scan that stored its floor: they are functions
//! of its slots' aggregates, which only `note_freeze` changes. `RandomJoin`
//! receivers cross no linear link, so their freezes touch no linear floor.
//! (Nonlinear links keep floors of their own in the same vector; see
//! "`RandomJoin` floors".)
//!
//! **Rounds.** The saturation pass scans dirty linear links and settles
//! the nonlinear links' end checks as before. It then visits the clean
//! linear links: one with `φ_j ≥ next` (the running minimum) is skipped,
//! any other is scanned exactly. The bracketed searches run last, so
//! they see the same `next` as before. The freeze pass skips every link,
//! linear or not, with `φ_j > level`: evaluating it would freeze nobody.
//! (The `level_load` it would store is read only by nonlinear links, and
//! a skipped one needs none: its floor clears the level.) So the link
//! that wins `min` is always scanned exactly, and every output bit is the
//! scans' own.
//!
//! **Notation.** Fix a link's terms, with capacity `c`, `ε = RATE_EPS`,
//! `w_min = min_t w_t`, and `P` the link's positions. `u(x) = K + Σ_t
//! w_t·max(b_t, x)` is the exact load, `û` the scan's rounded `load_at`,
//! and `G = {x : û(x) > c + ε}`. `F(level, upper)` is the scan's result.
//! 1. `û` is monotone (the argument under "Monotonicity"), so `G` is an
//!    up-set. The scan visits the breakpoints in `(level, upper)`,
//!    ascending, then `upper` when it lies above `level`. It triggers at
//!    the first point in `G`, `bp`, and returns a value in `[lo, bp]`,
//!    `lo` its previous point or `level`. Without a trigger it returns
//!    `upper`. So `F ≥ min(level, upper)`.
//! 2. `û`, `link_load_at` and the scan's slope sum are within a relative
//!    `γ = (P + 4)·2^-52` of their exact values (non-negative summands).
//! 3. On `[lo, bp]`, `u` is linear with slope `s = Σ_{b_t ≤ lo} w_t`,
//!    which is 0 or at least `w_min`. The scan's slope also counts terms
//!    with `b_t ∈ (lo, lo + ε]`, and only when `bp ≤ lo + ε`.
//! 4. When `û(lo) ≥ c`, the scan returns `lo`. Otherwise it returns the
//!    exact crossing of the segment's line to within
//!    `3(γ + 2^-53)(c + ε)/s + 2^-52·|F|`.
//!
//! **Lemma 1 (scan skip).** For `level₁ ≥ level₀` and `upper₁ ≥ upper₀`,
//! `F₁ = F(level₁, upper₁) ≥ F₀ − Δ` with `F₀ = F(level₀, upper₀)` and
//! `Δ = (ε + 8γ(c + ε))/w_min + 2ε + 2^-50(1 + |F₀|)`, provided some
//! `b_t < upper₀`. Both premises hold between rounds: the level never
//! falls, and `upper` is a minimum over a shrinking set of receivers.
//! *Proof.* If scan 1 does not trigger, `F₁ = upper₁ ≥ upper₀ ≥ F₀`.
//! Else let it trigger at `bp₁` from `lo₁`. If scan 0 triggers at or
//! below `lo₁`, `F₀ ≤ lo₁ ≤ F₁`. Otherwise scan 0 visits no point in
//! `(lo₁, bp₁)` but possibly `upper₀`, and its last point `lo₀` before
//! that is at most `lo₁`. Three cases. (a) Scan 0 triggers at `bp₁` or at
//! `upper₀ ≤ bp₁`: both scans solve on one segment line, so by fact 4 they
//! differ by less than `Δ`. A slope that counts an extra term (fact 3)
//! instead confines both results to `[lo₀, lo₀ + ε]`. (b) Scan 0 returns
//! `upper₀ ∉ G` inside `(lo₁, bp₁)`: then `û(upper₀) ≤ c + ε`. The
//! segment's slope is at least `w_min`: a `b_t < upper₀` is at most `lo₁`.
//! So its line crosses `c` no lower than `upper₀ − (ε + 2γ(c + ε))/w_min`,
//! and fact 4 bounds scan 1's result from there. (c) Without a
//! `b_t < upper₀`, case (b) can meet a flat segment whose rounded load
//! straddles `c + ε`. Scan 1 then returns `lo₁`, arbitrarily far below
//! `upper₀`. That case stores the floor `min(level₀, upper₀)`, which
//! `F₁ ≥ min(level₁, upper₁)` respects.
//!
//! **Lemma 2 (freeze skip).** If the freeze pass at a level `ℓ ≥ level₀`
//! freezes a receiver on the link, then `F₀ ≤ ℓ + Δ′` with
//! `Δ′ = (3ε + 8γ(c + ε))/w_min + 2ε + 2^-50(1 + |F₀|)`. *Proof.* A
//! freeze needs `link_load_at(ℓ) ≥ c − ε` and a marginal active slot. The
//! free-rider test passes a frozen max up to `ε` above `ℓ` (and a
//! weighted receiver's up to `ε` above its rate `w·ℓ`), so that slot's
//! term has `b ≤ ℓ + ε/w_min`, rounded. Past `b`, `u` rises at slope at
//! least `w_min` from `u(ℓ) ≥ c − ε − γc`. So every level above
//! `x* = ℓ + (3ε + 3γ(c + ε))/w_min` (rounded up) lies in `G`. Scan 0
//! started at `level₀ ≤ ℓ < x*`. It triggers below `x*`, or solves on the
//! segment that contains `x*`, whose line crosses `c` below `x*`, or it
//! stops at `upper₀ < x*`. By facts 3 and 4, `F₀ ≤ x* + ε + 2^-52·|F₀| +
//! 3(γ + 2^-53)(c + ε)/w_min`.
//!
//! **The floor.** A scan that returns `F` stores
//! `φ = F − (4ε + 16γ(c + ε))/w_min − 2ε − 2^-44(1 + |F|)`. This exceeds
//! both bounds, with slack for the rounding of `φ` itself. It stores
//! `min(level, upper)` in Lemma 1's case (c). It stores `−∞` unless every
//! weight is positive and finite. An infinite `c` or `F` makes `φ`
//! `−∞` or NaN, which only disables the skips. Then `φ ≥ next` gives
//! `F₁ ≥ next`, so `min` keeps `next`; and `φ > ℓ` rules out a freeze.
//! The bounds are loose on purpose: a skip needs the floor to clear the
//! running minimum or the level, and on the links that lose a round it
//! does so by far more than any of these terms.
//!
//! # `RandomJoin` floors
//!
//! A nonlinear link (one some `RandomJoin` session crosses) has no closed
//! form, but its load rises no faster than a bound known in advance, so
//! one evaluation below capacity shows how far above it the link cannot
//! saturate. Fix such a link with capacity `c`, `ε = RATE_EPS`, `n` active
//! receivers (`link_active`), `F = max(1, largest Scaled factor of the
//! solve)`, `L = n·F`, `P_s` the positions of slot `s`, and `P`, `S` the
//! link's positions and slots. `u` is the exact load of the current
//! slots as a function of the level, `û` the evaluated one.
//!
//! **Lemma 3a (slope and rounding).** `u(y) − u(x) ≤ L·(y − x)` for
//! `y ≥ x`. A `RandomJoin` slot with `m` active receivers and frozen miss
//! product `M` adds `σ(1 − M(1 − x.min(σ)/σ)^m)`, of slope
//! `M·m(1 − x/σ)^(m−1) ≤ m`. A `Sum` slot rises at its active count, an
//! `Efficient` slot at most 1, a shared `Scaled` slot at most its factor;
//! each slot with a slope has an active receiver. While `u ≤ c`, `û` is
//! within `δ/2` of `u`, with `δ = 2^-50·(Σ_RJ σ_s(P_s + 1) + (P + S + 4)c)`
//! (`Curve::err`). A miss factor `1 − a.min(σ).max(0)/σ` is within
//! `1.5·2^-53` of exact, each of the `P_s` products in `[0, 1]` adds
//! `2^-54`, and `1 − ∏` then `σ·` add `2^-54` and `σ·2^-53`: a slot is off
//! by at most `σ(2P_s + 2)·2^-52`, an *absolute* error because `1 − ∏`
//! cancels. The linear terms and the sum over slots are off by a relative
//! `(P + S)·2^-53` of at most `c`. Underflow adds at most `2^-1074` per
//! operation, far inside the slack below.
//!
//! **Lemma 3b (freezes only lower the load).** After later freezes, every
//! evaluation `û′(y)` at a level `y` at or above the level of each of
//! them has `û′(y) ≤ û(y + ε′)`, `ε′ = ε + 2^-52(1 + y)`. A link or
//! closure freeze stores `rate = level ≤ y`, and a κ-freeze `κ ≤ level +
//! ε` rounded (the *κ shift*), so every newly frozen rate `a` is at most
//! `y + ε′`: its miss factor is at least `g(y + ε′)`, its `max` or `Sum`
//! contribution at most `y + ε′`, as are the still-active receivers'. Every
//! operation of the load is monotone (see "Monotonicity"). A freeze thus
//! never raises the load above the level, and `L` only shrinks.
//!
//! **Lemma 3 (floor).** After an evaluation `û(x) < c − ε` at a level
//! `x ≥ level`, the floor
//! `φ = x + (c − ε − û(x) − 2δ)/L − ε − 2^-44(1 + x + |x + (c − ε − û(x) −
//! 2δ)/L|)` has `û′(y) < c − ε` at every later level `y ∈ [level′, φ]`.
//! *Proof.* If `y + ε′ ≤ x`, `û′(y) ≤ û(x)` by 3b and monotonicity.
//! Otherwise 3b and 3a give `û′(y) ≤ û(x) + δ + L·(y + ε′ − x)`, and
//! `y + ε′ − x ≤ (c − ε − û(x) − 2δ)/L`: the `−ε` term of the margin is
//! the κ shift, and the `2^-44` slack covers `ε′ − ε` and the rounding of
//! the floor's own arithmetic (half of `δ` covers its numerator's). So
//! `û′(y) ≤ c − ε − δ/2`.
//!
//! Each evaluation of a nonlinear link at or above the level raises its
//! floor to the larger of the two; a linear session's freeze on the link
//! clears it (the linear rule, conservative here), a `RandomJoin` freeze
//! never does. A round then decides what the reference's evaluations
//! would, without them:
//! - `φ ≥ upper`: the end check `û(upper) ≤ c + ε` passes, and the link's
//!   level `upper` cannot lower `next`. It is skipped.
//! - `φ ≥ level` on a bracketed link: `û(level) < c − ε`, so the link is
//!   not saturated, and `φ` is a good end of its bracket.
//! - `φ ≥ q` in the search: the skip probe at `q` passes; the search
//!   returns `best`.
//! - `φ > level` in the freeze pass: the load is below `c − ε`; nobody
//!   freezes. One rule for linear and nonlinear links.
//!
//! **End loads.** A link keeps its last end load `û(upper)` with the bits
//! of `upper` and its active count, and reuses it while both recur. Each
//! freeze of a receiver on the link, linear or not, lowers the count, so
//! an equal count means every slot's aggregates, flags and miss factors
//! are those of the stored load, which is then bitwise the load.
//!
//! **Search order.** The bracketed searches run in ascending order of the
//! crossing of the link's last load below the end at the slope bound `L`
//! (at a floor, the load the floor was raised from). Only the work
//! depends on it: `min` is order-independent, every skip and every
//! replayed midpoint is decided exactly, and the loads that stand in for
//! unknown ones steer only regula falsi.
//!
//! [`crate::allocator::SolveCounters`] counts the work: load evaluations,
//! replayed halvings, early exits, step-cap hits, the search's own probes
//! and the links the skip settled, per round the links visited, the exact
//! linear scans and the freeze-pass loads the floors skipped, the end
//! checks and probes `RandomJoin` floors settled, the end loads reused,
//! and the slot aggregates freezes re-folded.

use crate::allocation::{Allocation, RATE_EPS};
use crate::allocator::{Regimes, SolverWorkspace};
use crate::linkrate::{LinkRateConfig, LinkRateModel};
use mlf_net::{Incidence, LinkId, Network, ReceiverId};

/// Why a receiver's rate froze at its final value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// The session's maximum desired rate `κ_i` (or the layer rate `σ` for
    /// `RandomJoin` sessions) was reached.
    MaxRate,
    /// This link on the receiver's data-path saturated while the receiver
    /// was marginal on it.
    Link(LinkId),
    /// A session-mate froze and the session is single-rate (step 7).
    SessionClosure,
}

/// The allocator's output: the unique max-min fair allocation plus
/// per-receiver diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxMinSolution {
    /// The max-min fair allocation.
    pub allocation: Allocation,
    /// Why each receiver froze, shaped `[session][receiver]`.
    pub reasons: Vec<Vec<FreezeReason>>,
    /// Number of water-filling iterations performed.
    pub iterations: usize,
}

impl MaxMinSolution {
    /// The freeze reason for a receiver.
    pub fn reason(&self, r: ReceiverId) -> FreezeReason {
        self.reasons[r.session.0][r.index]
    }

    /// The bottleneck link of a receiver, if it froze on a link.
    pub fn bottleneck(&self, r: ReceiverId) -> Option<LinkId> {
        match self.reason(r) {
            FreezeReason::Link(l) => Some(l),
            _ => None,
        }
    }
}

/// Why a solve could not finish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveError {
    /// A round raised the water level to `level` and then froze no
    /// receiver: no session reached its cap, and no link on an active
    /// route came within `1e-9` of its capacity. Saturation levels are
    /// found to a relative tolerance, so very large capacities, or
    /// `RandomJoin` loads whose floating-point steps exceed `1e-9`,
    /// can stop short of every link.
    Stalled {
        /// The water level of the stalled round.
        level: f64,
    },
    /// The allocator's regime is defined for the efficient link-rate
    /// model only (`Weighted`, `Unicast`), and the configuration gives a
    /// session another model.
    UnsupportedLinkRates {
        /// The allocator's [`name`](crate::allocator::Allocator::name).
        allocator: &'static str,
        /// The first session whose model is not `Efficient`.
        session: usize,
    },
    /// The regime does not define a session of this kind: `Weighted`
    /// solves multi-rate sessions only, `Unicast` one-receiver ones.
    UnsupportedSession {
        /// The allocator's [`name`](crate::allocator::Allocator::name).
        allocator: &'static str,
        /// The first session outside the regime.
        session: usize,
    },
    /// A per-session input (`"link-rate config"`, `"regime list"` or
    /// `"weight table"`) does not hold one entry per session.
    SessionCount {
        /// Which input.
        input: &'static str,
        /// How many entries it holds.
        got: usize,
    },
    /// A session's weights are not one finite, positive weight per
    /// receiver.
    BadWeights {
        /// The first such session.
        session: usize,
    },
    /// A session's link-rate model is outside its domain
    /// ([`LinkRateModel::validate`]): a `Scaled` factor below 1, or a
    /// `RandomJoin` layer rate that is not finite and positive.
    BadLinkRate {
        /// The first such session.
        session: usize,
        /// Why, as `validate` states it.
        reason: &'static str,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Stalled { level } => write!(
                f,
                "progressive filling made no progress at level {level}: no link came within \
                 1e-9 of its capacity"
            ),
            SolveError::UnsupportedLinkRates { allocator, session } => write!(
                f,
                "the {allocator} allocator solves the efficient link-rate model only, but \
                 session {session} has another"
            ),
            SolveError::UnsupportedSession { allocator, session } => {
                write!(f, "the {allocator} regime excludes session {session}")
            }
            SolveError::SessionCount { input, got } => {
                write!(f, "the {input} has {got} entries, not one per session")
            }
            SolveError::BadWeights { session } => {
                write!(
                    f,
                    "session {session} needs a finite weight > 0 per receiver"
                )
            }
            SolveError::BadLinkRate { session, reason } => {
                write!(
                    f,
                    "session {session}'s link-rate model is invalid: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The solution, or the panic the infallible entry points document.
pub(crate) fn solved(result: Result<MaxMinSolution, SolveError>) -> MaxMinSolution {
    // mlf-lint: allow(panic-unwrap, reason = "documented '# Panics' contract of the infallible entry points; Allocator::solve_with is the typed alternative")
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Progressive filling into a caller-provided workspace, with an explicit
/// session-type regime and, for `Weighted`, per-receiver weights
/// (`[session][receiver]`; see "Weighted filling"). The engine behind
/// every [`crate::allocator`] implementation except `Unicast`. The inputs
/// must pass the allocator's [`crate::allocator::Allocator::check`].
pub(crate) fn solve_in(
    net: &Network,
    cfg: &LinkRateConfig,
    regimes: &Regimes,
    weights: Option<&[Vec<f64>]>,
    ws: &mut SolverWorkspace,
) -> Result<MaxMinSolution, SolveError> {
    ws.reset(net, weights);
    match weights {
        None => State::<false>::new(net, cfg, regimes, ws).fill(),
        Some(_) => State::<true>::new(net, cfg, regimes, ws).fill(),
    }
}

/// Water-filling pass over workspace-held state; `WEIGHTED` solves read
/// the workspace's flat weights (see "Weighted filling"), the others
/// compile without them.
struct State<'a, const WEIGHTED: bool> {
    net: &'a Network,
    inc: &'a Incidence,
    cfg: &'a LinkRateConfig,
    regimes: &'a Regimes,
    ws: &'a mut SolverWorkspace,
    level: f64,
    /// `max(1, largest Scaled factor)`: an active receiver's most slope in
    /// a link's load (see "`RandomJoin` floors").
    slope_scale: f64,
}

impl<'a, const WEIGHTED: bool> State<'a, WEIGHTED> {
    /// The start state over a workspace `reset` for `net`: the live-link
    /// list with each link's linear flag, no cached load or floor, and,
    /// when some link is nonlinear, the rounding bounds of those links.
    fn new(
        net: &'a Network,
        cfg: &'a LinkRateConfig,
        regimes: &'a Regimes,
        ws: &'a mut SolverWorkspace,
    ) -> Self {
        let inc = net.incidence();
        let links = net.link_count();
        ws.live.clear();
        let mut nonlinear = false;
        for j in (0..links).filter(|&j| ws.link_active[j] > 0) {
            let linear = inc
                .link_slots(j)
                .all(|slot| cfg.model(inc.slot_session(slot)).is_piecewise_linear());
            nonlinear |= !linear;
            ws.live.push((j, linear));
        }
        ws.level_load.clear();
        ws.level_load.resize(links, f64::NAN);
        ws.floor.clear();
        ws.floor.resize(links, f64::NAN);
        let mut slope_scale = 1.0_f64;
        if nonlinear {
            for i in 0..cfg.len() {
                if let LinkRateModel::Scaled(factor) = *cfg.model(i) {
                    slope_scale = slope_scale.max(factor);
                }
            }
            ws.curves.clear();
            ws.curves.resize(links, Curve::default());
            for &(j, linear) in &ws.live {
                if !linear {
                    ws.curves[j].err = rounding_bound(net, cfg, j);
                }
            }
        }
        Self {
            net,
            inc,
            cfg,
            regimes,
            ws,
            level: 0.0,
            slope_scale,
        }
    }

    /// Fill until every receiver froze.
    fn fill(mut self) -> Result<MaxMinSolution, SolveError> {
        // Every step freezes a receiver or fails, so the loop is finite.
        let mut iterations = 0;
        while self.any_active() {
            iterations += 1;
            self.step()?;
        }
        let sessions = self.net.session_count();
        Ok(self.ws.take_solution(self.inc, sessions, iterations))
    }

    fn any_active(&self) -> bool {
        self.ws.active_total > 0
    }

    fn session_has_active(&self, i: usize) -> bool {
        self.ws.session_active[i] > 0
    }

    fn single_rate(&self, i: usize) -> bool {
        self.regimes.kind(self.net, i).is_single_rate()
    }

    /// The effective rate cap of session `i`: `κ_i`, additionally clamped to
    /// the layer rate `σ` for `RandomJoin` sessions (a receiver cannot take
    /// more than the layer carries).
    fn effective_kappa(&self, i: usize) -> f64 {
        let kappa = self.net.sessions()[i].max_rate;
        match *self.cfg.model(i) {
            LinkRateModel::RandomJoin { sigma } => kappa.min(sigma),
            _ => kappa,
        }
    }

    /// One progressive-filling event: advance the level to the next freezing
    /// point and freeze every receiver that binds there.
    fn step(&mut self) -> Result<(), SolveError> {
        let mut upper = f64::INFINITY;
        for i in (0..self.net.session_count()).filter(|&i| self.session_has_active(i)) {
            let kappa = self.effective_kappa(i);
            upper = if WEIGHTED {
                // A weighted receiver reaches κ_i at level κ_i / w.
                let ws = &*self.ws;
                self.inc
                    .flat_range(i)
                    .filter(|&f| ws.active[f])
                    .fold(upper, |u, f| u.min(kappa / ws.weights[f]))
            } else {
                upper.min(kappa)
            };
        }
        let next = self.next_level(upper);
        debug_assert!(
            next >= self.level - RATE_EPS,
            "water level must not decrease"
        );
        self.level = next.max(self.level);

        // Raise every active receiver to the new level (`w·level` when
        // weighted).
        let ws = &mut *self.ws;
        for (f, (rate, _)) in ws
            .rates
            .iter_mut()
            .zip(&ws.active)
            .enumerate()
            .filter(|(_, (_, &active))| active)
        {
            *rate = if WEIGHTED {
                ws.weights[f] * self.level
            } else {
                self.level
            };
        }

        let mut froze_any = false;

        // κ freezes: the whole session at once, or, when weighted, each
        // receiver whose own rate reached κ_i.
        for i in 0..self.net.session_count() {
            let kappa = self.effective_kappa(i);
            if !self.session_has_active(i) || (!WEIGHTED && kappa > self.level + RATE_EPS) {
                continue;
            }
            for f in self.inc.flat_range(i) {
                let at_kappa = !WEIGHTED || self.ws.rates[f] >= kappa - RATE_EPS;
                if self.ws.active[f] && at_kappa {
                    self.ws.rates[f] = kappa;
                    self.freeze(i, f, FreezeReason::MaxRate);
                    froze_any = true;
                }
            }
        }

        // Link freezes: saturated links freeze their marginal active receivers.
        let live = std::mem::take(&mut self.ws.live);
        for &(j, linear) in &live {
            if self.ws.link_active[j] == 0 {
                continue;
            }
            if self.ws.floor[j] > self.level {
                // Its floor clears the level: nobody on it freezes (Lemma 2
                // of "Change-following rounds", Lemma 3 of "`RandomJoin`
                // floors"). The next round reads no load at this level.
                self.ws.counters.freeze_skips += 1;
                if !linear {
                    self.ws.level_load[j] = f64::NAN;
                }
                continue;
            }
            froze_any |= self.freeze_on(j, linear);
        }
        self.ws.live = live;

        if froze_any {
            Ok(())
        } else {
            Err(SolveError::Stalled { level: self.level })
        }
    }

    /// The round's next level: the smallest saturation level over all live
    /// links, clamped to `upper`. Dirty linear links are scanned and
    /// nonlinear links' end checks settled first, then the clean linear
    /// links whose floors do not clear the running minimum are scanned;
    /// the bracketed searches go last, in ascending order of their
    /// estimated level, so the running minimum falls early and later
    /// searches settle on one probe (see `saturation_level_search`).
    fn next_level(&mut self, upper: f64) -> f64 {
        let ws = &mut *self.ws;
        let link_active = &ws.link_active;
        ws.live.retain(|&(j, _)| link_active[j] > 0);
        ws.counters.links_visited += ws.live.len() as u64;
        let live = std::mem::take(&mut ws.live);
        let mut clean = std::mem::take(&mut ws.clean);
        let mut pending = std::mem::take(&mut ws.pending);
        clean.clear();
        pending.clear();
        let mut next = upper;
        for &(j, linear) in &live {
            if !linear {
                match self.link_saturation_level(j, upper) {
                    Saturation::Level(lj) => next = next.min(lj),
                    Saturation::Bracketed(link) => pending.push(link),
                }
            } else if self.ws.floor[j].is_nan() {
                next = next.min(self.scan_linear(j, upper));
            } else {
                clean.push(j);
            }
        }
        for &j in &clean {
            // A floor at or above `next` keeps the link's level there too
            // (Lemma 1 of "Change-following rounds").
            if self.ws.floor[j] < next {
                next = next.min(self.scan_linear(j, upper));
            }
        }
        pending.sort_by(|a, b| a.estimate.total_cmp(&b.estimate));
        for link in &pending {
            let lj = self.saturation_level_search(link, upper, next);
            next = next.min(lj);
        }
        self.ws.live = live;
        self.ws.clean = clean;
        self.ws.pending = pending;
        next
    }

    /// The freeze pass on live link `j`: if its load at the level reaches
    /// its capacity, freeze its marginal active receivers; otherwise raise
    /// a nonlinear link's floor from the load. Whether any froze.
    fn freeze_on(&mut self, j: usize, linear: bool) -> bool {
        let link = LinkId(j);
        // κ-freezes are done, and every later freeze this round stores
        // `rate = level` (so the same miss factor as the active `g`):
        // this load is bitwise the next round's load at the same level.
        let load = self.link_load_at(j, self.level);
        self.ws.level_load[j] = load;
        let cap = self.net.graph().capacity(link);
        if load < cap - RATE_EPS {
            if !linear {
                self.raise_floor(j, self.level, load, cap);
            }
            return false;
        }
        let mut froze_any = false;
        let inc = self.inc;
        for slot in inc.link_slots(j) {
            let i = inc.slot_session(slot);
            if self.ws.slot_active[slot] == 0 {
                continue;
            }
            // Weighted: a receiver is marginal once its rate is the
            // session's rate on the link (see "Weighted filling").
            let session_max = WEIGHTED
                .then(|| self.ws.slot_frozen_max[slot].max(self.ws.slot_wmax[slot] * self.level));
            if !WEIGHTED && !self.session_marginal_on(slot, i) {
                continue; // free rider: keeps rising under the frozen max
            }
            let base = inc.flat_range(i).start;
            if self.single_rate(i) {
                // Freeze the whole session (step 7).
                for f in inc.flat_range(i) {
                    if self.ws.active[f] {
                        let reason = if inc.slot_receivers(slot).contains(&(f - base)) {
                            FreezeReason::Link(link)
                        } else {
                            FreezeReason::SessionClosure
                        };
                        self.freeze(i, f, reason);
                        froze_any = true;
                    }
                }
            } else {
                for &k in inc.slot_receivers(slot) {
                    let f = base + k;
                    let rate = self.ws.rates[f];
                    let marginal = session_max.map_or(true, |max| rate >= max - RATE_EPS);
                    if self.ws.active[f] && marginal {
                        self.freeze(i, f, FreezeReason::Link(link));
                        froze_any = true;
                    }
                }
            }
        }
        froze_any
    }

    /// Freeze active receiver `f` of session `i` at its current rate: clear
    /// its flag, record why, and hand the workspace the session's model
    /// for its slot bookkeeping. A linear session's freeze dirties the
    /// floors of the links on its route.
    fn freeze(&mut self, i: usize, f: usize, reason: FreezeReason) {
        self.ws.active[f] = false;
        self.ws.reasons[f] = Some(reason);
        let model = *self.cfg.model(i);
        if !matches!(model, LinkRateModel::RandomJoin { .. }) {
            for l in self.inc.route_links(f) {
                self.ws.floor[l.0] = f64::NAN;
            }
        }
        self.ws.note_freeze(self.inc, i, f, Some(model));
    }

    /// The load `u_j(ℓ)` of link `j` at hypothetical level `ℓ`.
    ///
    /// `Efficient`/`Scaled` sessions read the cached slot aggregates (their
    /// load is a max, which the incremental fold reproduces exactly).
    /// `Sum`/`RandomJoin` sessions fold over the slot's positions in
    /// ascending-receiver order, the order `LinkRateModel::link_rate`
    /// folds its argument in: `Sum` adds the rates, `RandomJoin`
    /// multiplies the frozen receivers' stored miss factors with the
    /// active receivers' shared factor `g = 1 − ℓ.min(σ).max(0)/σ`.
    fn link_load_at(&mut self, j: usize, level: f64) -> f64 {
        let ws = &mut *self.ws;
        ws.counters.link_load_evals += 1;
        let mut total = 0.0;
        // (σ, g) of the last RandomJoin slot: sessions sharing a layer
        // rate share the active factor.
        let mut shared: Option<(f64, f64)> = None;
        for slot in self.inc.link_slots(j) {
            let i = self.inc.slot_session(slot);
            match *self.cfg.model(i) {
                LinkRateModel::Efficient => {
                    let frozen_max = ws.slot_frozen_max[slot];
                    total += if ws.slot_active[slot] == 0 {
                        frozen_max
                    } else if WEIGHTED {
                        frozen_max.max(ws.slot_wmax[slot] * level)
                    } else {
                        frozen_max.max(level.max(0.0))
                    };
                }
                LinkRateModel::Scaled(factor) => {
                    let frozen_max = ws.slot_frozen_max[slot];
                    let max = if ws.slot_active[slot] > 0 {
                        frozen_max.max(level.max(0.0))
                    } else {
                        frozen_max
                    };
                    total += if self.inc.slot_positions(slot).len() >= 2 {
                        factor * max
                    } else {
                        max
                    };
                }
                LinkRateModel::Sum => {
                    let positions = self.inc.slot_positions(slot);
                    let base = self.inc.flat_range(i).start;
                    total += positions
                        .zip(self.inc.slot_receivers(slot))
                        .map(|(p, &k)| {
                            if ws.pos_active[p] {
                                level
                            } else {
                                ws.rates[base + k]
                            }
                        })
                        .sum::<f64>();
                }
                LinkRateModel::RandomJoin { sigma } => {
                    let g = match shared {
                        Some((s, g)) if s.to_bits() == sigma.to_bits() => g,
                        _ => {
                            let g = miss_factor(level, sigma);
                            shared = Some((sigma, g));
                            g
                        }
                    };
                    let mut miss_all = 1.0;
                    for p in self.inc.slot_positions(slot) {
                        miss_all *= if ws.pos_active[p] { g } else { ws.pos_miss[p] };
                    }
                    total += sigma * (1.0 - miss_all);
                }
            }
        }
        total
    }

    /// Whether raising the level marginally above the current value would
    /// raise the slot session's rate on its link (the free-rider test).
    fn session_marginal_on(&self, slot: usize, i: usize) -> bool {
        let ws = &*self.ws;
        if ws.slot_active[slot] == 0 {
            return false;
        }
        match *self.cfg.model(i) {
            LinkRateModel::Efficient | LinkRateModel::Scaled(_) => {
                // Marginal iff no frozen session-mate on this link holds a
                // higher rate than the level.
                self.level >= ws.slot_frozen_max[slot] - RATE_EPS
            }
            LinkRateModel::Sum => true,
            LinkRateModel::RandomJoin { sigma } => {
                // The session's link rate at the level and a nudge above
                // it, folded as in `link_load_at`.
                let delta = (self.level.abs() + 1.0) * 1e-7;
                let g_now = miss_factor(self.level, sigma);
                let g_bumped = miss_factor(self.level + delta, sigma);
                let mut miss_now = 1.0;
                let mut miss_bumped = 1.0;
                for p in self.inc.slot_positions(slot) {
                    if ws.pos_active[p] {
                        miss_now *= g_now;
                        miss_bumped *= g_bumped;
                    } else {
                        miss_now *= ws.pos_miss[p];
                        miss_bumped *= ws.pos_miss[p];
                    }
                }
                let now = sigma * (1.0 - miss_now);
                let bumped = sigma * (1.0 - miss_bumped);
                bumped > now + RATE_EPS * delta
            }
        }
    }

    /// The largest level `ℓ ∈ [self.level, upper]` with `u_j(ℓ) ≤ c_j` of a
    /// nonlinear link, when its floor or its load at either end of the
    /// bracket already decides it. Otherwise the bracket, with an estimate
    /// of the crossing that orders the searches.
    fn link_saturation_level(&mut self, j: usize, upper: f64) -> Saturation {
        if self.ws.floor[j] >= upper {
            // `u_j(upper) < c_j − ε`: the end check passes (Lemma 3).
            self.ws.counters.end_checks_skipped += 1;
            return Saturation::Level(upper);
        }
        let cap = self.net.graph().capacity(LinkId(j));
        let lo = self.level;
        let at_upper = self.end_load(j, upper);
        if at_upper <= cap + RATE_EPS {
            self.raise_floor(j, upper, at_upper, cap);
            return Saturation::Level(upper);
        }
        let mut at_lo = f64::NAN;
        if self.ws.floor[j].is_nan() || self.ws.floor[j] < lo {
            // The previous round's freeze pass left the load at this
            // level (NaN before the first one, or where a floor let the
            // pass skip the link).
            let cached = self.ws.level_load[j];
            at_lo = if cached.is_nan() {
                self.link_load_at(j, lo)
            } else {
                cached
            };
            if at_lo >= cap - RATE_EPS {
                // Already saturated: the level can only advance past this
                // link's constraint if no marginal session remains;
                // conservatively stop here and let the freezing pass sort
                // it out. (For RandomJoin loads there are no flat segments
                // while any session is marginal, so no free-rider
                // ride-through exists to find.)
                return Saturation::Level(lo);
            }
            self.raise_floor(j, lo, at_lo, cap);
        }
        // The bracket's good end: the floor when it clears the level, else
        // the level itself. The last load known below the end (`at_lo`,
        // or the one the floor was raised from) only steers the search:
        // its crossing at the link's current slope bound orders the
        // searches, and at a floor the secant from it to `u_j(upper)`
        // stands in for the load at the good end in regula falsi.
        let floor = self.ws.floor[j];
        let slope = self.slope_bound(j);
        let (good, at_good, estimate) = if floor >= lo {
            let Curve {
                floor_x,
                floor_load,
                ..
            } = self.ws.curves[j];
            let t = (floor - floor_x) / (upper - floor_x);
            let at_floor = floor_load + (at_upper - floor_load) * t;
            (floor, at_floor, floor_x + (cap - floor_load) / slope)
        } else {
            (lo, at_lo, lo + (cap - at_lo) / slope)
        };
        Saturation::Bracketed(Pending {
            estimate,
            link: j,
            good,
            at_good,
            at_upper,
        })
    }

    /// `L_j = n_j·max(1, largest Scaled factor)`: a bound on the slope of
    /// link `j`'s load in the level (Lemma 3a).
    fn slope_bound(&self, j: usize) -> f64 {
        // mlf-lint: allow(as-float-cast, reason = "a link's active count is bounded by the receiver population, far below 2^53, so the cast is exact")
        let active = self.ws.link_active[j] as f64;
        active * self.slope_scale
    }

    /// `u_j(upper)` of nonlinear link `j`: its last end load when that was
    /// taken at the same `upper` with as many active receivers on the link
    /// (so no freeze changed any of its slots since), else a fresh one.
    fn end_load(&mut self, j: usize, upper: f64) -> f64 {
        let active = self.ws.link_active[j];
        let curve = &self.ws.curves[j];
        if curve.end_upper.to_bits() == upper.to_bits() && curve.end_active == active {
            self.ws.counters.end_loads_reused += 1;
            return curve.end_load;
        }
        let load = self.link_load_at(j, upper);
        let curve = &mut self.ws.curves[j];
        curve.end_upper = upper;
        curve.end_active = active;
        curve.end_load = load;
        load
    }

    /// Raise nonlinear link `j`'s floor from its load `load = û_j(x)` at a
    /// level `x ≥ self.level`, when that is below `c_j − ε` (Lemma 3 of
    /// "`RandomJoin` floors"). A floor only ever rises until a linear
    /// session's freeze clears it.
    fn raise_floor(&mut self, j: usize, x: f64, load: f64, cap: f64) {
        if load >= cap - RATE_EPS {
            return; // (a NaN load yields a NaN floor, which skips nothing)
        }
        let slope = self.slope_bound(j);
        let curve = &mut self.ws.curves[j];
        let raw = x + (cap - RATE_EPS - load - 2.0 * curve.err) / slope;
        let floor = raw - (RATE_EPS + FLOOR_SLACK * (1.0 + x + raw.abs()));
        let current = &mut self.ws.floor[j];
        if floor > *current || current.is_nan() {
            *current = floor;
            curve.floor_x = x;
            curve.floor_load = load;
        }
    }

    /// The exact saturation level of linear link `j`, with its floor
    /// stored for later rounds (see "Change-following rounds").
    fn scan_linear(&mut self, j: usize, upper: f64) -> f64 {
        self.ws.counters.linear_scans += 1;
        let cap = self.net.graph().capacity(LinkId(j));
        let lj = self.saturation_level_linear(j, upper, cap);
        self.ws.floor[j] = self.linear_floor(j, lj, upper, cap);
        lj
    }

    /// The floor `φ` of a scan of link `j` that returned `lj`, from the
    /// terms the scan left in the workspace: `lj` less the margin that
    /// covers both lemmas of "Change-following rounds".
    fn linear_floor(&self, j: usize, lj: f64, upper: f64, cap: f64) -> f64 {
        let mut sloped = false;
        let mut weighed = true;
        let mut w_min = f64::INFINITY;
        for &(b, w) in &self.ws.terms {
            sloped |= b < upper;
            weighed &= w > 0.0 && w.is_finite();
            w_min = w_min.min(w);
        }
        if !sloped {
            // Lemma 1's case (c): no slope below `upper` is known.
            return self.level.min(upper);
        }
        if !weighed {
            return f64::NEG_INFINITY;
        }
        // A live link has slots, and its positions are contiguous.
        let slots = self.inc.link_slots(j);
        let positions =
            self.inc.slot_positions(slots.end - 1).end - self.inc.slot_positions(slots.start).start;
        // mlf-lint: allow(as-float-cast, reason = "a link's position count is bounded by the receiver population, far below 2^53, so the cast is exact")
        let gamma = (positions + 4) as f64 * f64::EPSILON;
        let margin = (4.0 * RATE_EPS + 16.0 * gamma * (cap + RATE_EPS)) / w_min
            + 2.0 * RATE_EPS
            + FLOOR_SLACK * (1.0 + lj.abs());
        lj - margin
    }

    /// Exact solve for piecewise-linear loads `u_j(ℓ) = K + Σ w_t·max(b_t, ℓ)`.
    fn saturation_level_linear(&mut self, j: usize, upper: f64, cap: f64) -> f64 {
        let mut constant = 0.0; // K: contributions independent of ℓ
        let ws = &mut *self.ws;
        ws.terms.clear(); // (b_t, w_t)
        for slot in self.inc.link_slots(j) {
            let i = self.inc.slot_session(slot);
            let active_count = ws.slot_active[slot];
            let frozen_sum = ws.slot_frozen_sum[slot];
            let frozen_max = ws.slot_frozen_max[slot];
            match *self.cfg.model(i) {
                LinkRateModel::Efficient => {
                    if active_count > 0 {
                        // The session's rate is max(frozen_max, w_max·ℓ).
                        ws.terms.push(if WEIGHTED {
                            let w_max = ws.slot_wmax[slot];
                            (frozen_max / w_max, w_max)
                        } else {
                            (frozen_max, 1.0)
                        });
                    } else {
                        constant += frozen_max;
                    }
                }
                LinkRateModel::Scaled(v) => {
                    let shared = self.inc.slot_positions(slot).len() >= 2;
                    let w = if shared { v } else { 1.0 };
                    if active_count > 0 {
                        ws.terms.push((frozen_max, w));
                    } else {
                        constant += w * frozen_max;
                    }
                }
                LinkRateModel::Sum => {
                    constant += frozen_sum;
                    if active_count > 0 {
                        // mlf-lint: allow(as-float-cast, reason = "active_count is bounded by the receiver population, far below 2^53, so the cast is exact")
                        ws.terms.push((0.0, active_count as f64));
                    }
                }
                LinkRateModel::RandomJoin { .. } => {
                    unreachable!("nonlinear sessions route to bisection")
                }
            }
        }
        if ws.terms.is_empty() {
            return upper; // load independent of the level
        }
        // Scan segments between the breakpoints in `(level, upper)`,
        // ascending, and then `upper`: the values of the reference's
        // sorted, deduplicated breakpoints in `(level, upper]`. A repeated
        // breakpoint is evaluated twice to the same effect, so none is
        // dropped, and a NaN rate from an upstream model fails both bounds
        // (total_cmp: it must not panic the whole sweep mid-solve).
        let level = self.level;
        ws.breakpoints.clear();
        let inside = ws.terms.iter().map(|&(b, _)| b);
        ws.breakpoints
            .extend(inside.filter(|&b| b > level && b < upper));
        ws.breakpoints.sort_by(f64::total_cmp);
        if upper > level {
            ws.breakpoints.push(upper);
        }
        let terms = &ws.terms;
        let load_at =
            |l: f64| -> f64 { constant + terms.iter().map(|&(b, w)| w * b.max(l)).sum::<f64>() };
        let mut lo = level;
        for &bp in &ws.breakpoints {
            // Segment [lo, bp]: slope = Σ w over terms with b ≤ lo.
            if load_at(bp) > cap + RATE_EPS {
                // Saturation inside (lo, bp]: solve linearly.
                let slope: f64 = terms
                    .iter()
                    .filter(|&&(b, _)| b <= lo + RATE_EPS)
                    .map(|&(_, w)| w)
                    .sum();
                let base = load_at(lo);
                if slope <= 0.0 {
                    // Load jumped due to a breakpoint exactly at `lo` being
                    // excluded by tolerance; saturate at lo.
                    return lo;
                }
                let l = lo + (cap - base) / slope;
                return l.clamp(lo, bp);
            }
            lo = bp;
        }
        upper // never saturates before the cap
    }

    /// The saturation level of a bracketed nonlinear (RandomJoin) link as
    /// the round's `min` sees it: the bisection of `[self.level, upper]`
    /// that the reference runs, with its early exit at `lo ≥ best`, and
    /// with most of its load evaluations replaced by what the bracket
    /// already knows (see "Bracketed search" in the module docs).
    ///
    /// A link whose skip probe shows it cannot cross below `best` returns
    /// `best`; otherwise the result is bit for bit the bisection's.
    fn saturation_level_search(&mut self, link: &Pending, upper: f64, best: f64) -> f64 {
        let j = link.link;
        let cap = self.net.graph().capacity(LinkId(j));
        let mut lo = self.level;
        let mut hi = upper;
        if lo >= best {
            self.ws.counters.early_exits += 1;
            return lo;
        }
        let mut known = Bracket {
            good: link.good,
            f_good: link.at_good - cap,
            bad: hi,
            f_bad: link.at_upper - cap,
            last: 0,
        };
        // The probe is the first halving's extra evaluation: that halving
        // then evaluates its midpoint at most.
        let mut spare = true;
        let q = best + SKIP_MARGIN * (1.0 + best.abs());
        if q < hi {
            if self.ws.floor[j] >= q && upper <= SKIP_SPAN {
                // The probe would pass: `u_j(q) < c_j − ε` (Lemma 3).
                self.ws.counters.probes_skipped += 1;
                self.ws.counters.early_exits += 1;
                return best;
            }
            let at_q = self.search_load_at(j, q, cap);
            if at_q <= cap && upper <= SKIP_SPAN {
                self.ws.counters.bracket_resolved += 1;
                self.ws.counters.early_exits += 1;
                return best;
            }
            known.record(q, at_q, cap);
            spare = false;
        }
        for _ in 0..BISECTION_CAP {
            if lo >= best {
                self.ws.counters.early_exits += 1;
                return lo;
            }
            self.ws.counters.bisection_steps += 1;
            let mid = 0.5 * (lo + hi);
            if known.undecided(mid) {
                if let Some(x) = known.falsi_point().filter(|_| spare) {
                    let at_x = self.search_load_at(j, x, cap);
                    known.record(x, at_x, cap);
                }
                if known.undecided(mid) {
                    let at_mid = self.search_load_at(j, mid, cap);
                    known.record(mid, at_mid, cap);
                }
            }
            spare = true;
            // `mid ≤ good` means `u_j(mid) ≤ u_j(good) ≤ c_j`; otherwise
            // `mid ≥ bad` and `u_j(mid) ≥ u_j(bad) > c_j`.
            if mid <= known.good {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-13 * (1.0 + hi.abs()) {
                return lo;
            }
        }
        self.ws.counters.cap_hits += 1;
        lo
    }

    /// [`State::link_load_at`] on behalf of the bracketed search, counted
    /// as one of its probes, raising the link's floor from it.
    fn search_load_at(&mut self, j: usize, level: f64, cap: f64) -> f64 {
        self.ws.counters.bracket_probes += 1;
        let load = self.link_load_at(j, level);
        self.raise_floor(j, level, load, cap);
        load
    }
}

/// What a link's saturation search settled before any bisection.
enum Saturation {
    /// The link's saturation level.
    Level(f64),
    /// The load crosses the capacity strictly inside the bracket.
    Bracketed(Pending),
}

/// A link whose load crosses its capacity strictly inside
/// `[level, upper]`, with a good level `good ≥ level` and the loads at
/// both ends.
#[derive(Debug)]
pub(crate) struct Pending {
    /// A linear interpolation of the crossing; it only orders the searches.
    estimate: f64,
    link: usize,
    good: f64,
    /// `u_j(good)`, or an estimate of it when `good` is the link's floor.
    at_good: f64,
    at_upper: f64,
}

/// The per-link state of a nonlinear link (see "`RandomJoin` floors").
/// The default holds no end load: no live link has 0 active receivers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Curve {
    /// `δ_j`: twice a bound on the absolute rounding error of one load
    /// evaluation while the load is below `c_j`.
    err: f64,
    /// The level and load the link's floor was last raised from.
    floor_x: f64,
    floor_load: f64,
    /// The level of the last end load.
    end_upper: f64,
    /// The link's active receivers when the end load was taken.
    end_active: usize,
    /// The last end load `u_j(end_upper)`.
    end_load: f64,
}

/// `δ_j` of nonlinear link `j`: twice the bound
/// `2^-51·(Σ_RJ σ_s(P_s + 1) + (P + S + 4)·c_j)` on the absolute rounding
/// error of one load evaluation below `c_j` (`P_s` the positions of a
/// `RandomJoin` slot, `P` and `S` the link's positions and slots).
fn rounding_bound(net: &Network, cfg: &LinkRateConfig, j: usize) -> f64 {
    let inc = net.incidence();
    let mut sigmas = 0.0;
    let mut count = 4usize;
    for slot in inc.link_slots(j) {
        let positions = inc.slot_positions(slot).len();
        count += positions + 1;
        if let LinkRateModel::RandomJoin { sigma } = *cfg.model(inc.slot_session(slot)) {
            // mlf-lint: allow(as-float-cast, reason = "a slot's position count is bounded by the receiver population, far below 2^53, so the cast is exact")
            sigmas += sigma * (positions + 1) as f64;
        }
    }
    let cap = net.graph().capacity(LinkId(j));
    // mlf-lint: allow(as-float-cast, reason = "a link's position and slot counts are bounded by the receiver population, far below 2^53, so the cast is exact")
    ROUNDING * (sigmas + count as f64 * cap)
}

/// The levels known on either side of one link's crossing:
/// `u_j(good) ≤ c_j < u_j(bad)`, with `f = u_j − c_j` at each end for the
/// Illinois variant of regula falsi.
struct Bracket {
    good: f64,
    f_good: f64,
    bad: f64,
    f_bad: f64,
    /// Which end the last record moved: `-1` good, `1` bad, `0` neither.
    last: i8,
}

impl Bracket {
    /// Whether monotonicity leaves `u_j(mid) ≤ c_j` open.
    fn undecided(&self, mid: f64) -> bool {
        self.good < mid && mid < self.bad
    }

    /// The regula falsi point, moved strictly inside the bracket when it
    /// rounds onto (or past) an end: a crossing predicted at `good` is
    /// then confirmed by one evaluation at the next float above it. `None`
    /// once the two ends are adjacent floats.
    fn falsi_point(&self) -> Option<f64> {
        let x = self.good - self.f_good * (self.bad - self.good) / (self.f_bad - self.f_good);
        // `max` drops a NaN (0/0 or ∞/∞ slopes): then the next float up.
        let x = x.max(next_above(self.good)).min(next_below(self.bad));
        (self.good < x && x < self.bad).then_some(x)
    }

    /// Narrow the bracket with the load `at_x` evaluated at `x` inside it.
    /// An end kept twice in a row has its `f` halved (Illinois), so the
    /// falsi points cannot creep from one side.
    fn record(&mut self, x: f64, at_x: f64, cap: f64) {
        if at_x <= cap {
            self.good = x;
            self.f_good = at_x - cap;
            if self.last == -1 {
                self.f_bad *= 0.5;
            }
            self.last = -1;
        } else {
            self.bad = x;
            self.f_bad = at_x - cap;
            if self.last == 1 {
                self.f_good *= 0.5;
            }
            self.last = 1;
        }
    }
}

/// The next float above a non-negative `x` (`f64::next_up`, newer than
/// the supported toolchain).
fn next_above(x: f64) -> f64 {
    f64::from_bits(x.abs().to_bits() + 1)
}

/// The next float below a positive `x`.
fn next_below(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Most halving steps one saturation bisection takes.
const BISECTION_CAP: usize = 200;

/// How far above the running minimum `best` the skip probe looks, relative
/// to `1 + |best|`: ten times the bisection's tolerance, so a bisection
/// whose `hi` stays above the probe cannot meet the tolerance below `best`.
const SKIP_MARGIN: f64 = 1e-12;

/// The relative slack `2^-44` of a floor: it covers, with room to spare,
/// the few roundings relative to the level that the bounds of
/// "Change-following rounds" and "`RandomJoin` floors" carry.
const FLOOR_SLACK: f64 = 256.0 * f64::EPSILON;

/// `2^-50`: twice the `2^-51` of a nonlinear link's rounding bound, so
/// that the bound also covers the rounding of the floor's own arithmetic.
const ROUNDING: f64 = 4.0 * f64::EPSILON;

/// Largest `upper` at which a passing skip probe settles a link: from a
/// span of at most 2^100, 200 halvings narrow any bracket far below the
/// skip margin, so the step cap cannot end a bisection below `best`
/// either (and `lo + hi` cannot overflow).
const SKIP_SPAN: f64 = 1.2676506002282294e30; // 2^100

/// The `RandomJoin` factor `1 − a.min(σ).max(0)/σ` of one receiver at rate
/// `a`: the probability that it misses a given packet of the layer. The
/// operations are exactly those `LinkRateModel::link_rate` applies to each
/// rate, so folding these factors reproduces its product bit for bit.
#[inline]
pub(crate) fn miss_factor(a: f64, sigma: f64) -> f64 {
    1.0 - a.min(sigma).max(0.0) / sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Hybrid, MultiRate, SingleRate};
    use mlf_net::{Graph, Session, SessionId, SessionType};

    /// The declared-regime solve of `net` under `cfg`.
    fn solve(net: &Network, cfg: &LinkRateConfig) -> MaxMinSolution {
        Hybrid::as_declared()
            .solve_with(net, cfg, &mut SolverWorkspace::new())
            .expect("solvable")
    }

    fn assert_rates(alloc: &Allocation, expected: &[Vec<f64>], tol: f64) {
        for (i, exp) in expected.iter().enumerate() {
            for (k, &e) in exp.iter().enumerate() {
                let got = alloc.rate(ReceiverId::new(i, k));
                assert!(
                    (got - e).abs() <= tol,
                    "r{},{} expected {e}, got {got}",
                    i + 1,
                    k + 1
                );
            }
        }
    }

    #[test]
    fn single_unicast_flow_takes_the_bottleneck() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 5.0).unwrap();
        g.add_link(n[1], n[2], 3.0).unwrap();
        let net = Network::new(g, vec![Session::unicast(n[0], n[2])]).unwrap();
        let sol = solve(&net, &LinkRateConfig::efficient(1));
        assert_rates(&sol.allocation, &[vec![3.0]], 1e-9);
        assert_eq!(
            sol.reason(ReceiverId::new(0, 0)),
            FreezeReason::Link(LinkId(1))
        );
    }

    #[test]
    fn two_unicasts_split_a_shared_link_evenly() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 8.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap();
        let alloc = Hybrid::as_declared().allocate(&net);
        assert_rates(&alloc, &[vec![4.0], vec![4.0]], 1e-9);
    }

    #[test]
    fn kappa_caps_a_flow_and_releases_bandwidth() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 8.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[1]).with_max_rate(1.0),
                Session::unicast(n[0], n[1]),
            ],
        )
        .unwrap();
        let sol = solve(&net, &LinkRateConfig::efficient(2));
        assert_rates(&sol.allocation, &[vec![1.0], vec![7.0]], 1e-9);
        assert_eq!(sol.reason(ReceiverId::new(0, 0)), FreezeReason::MaxRate);
    }

    #[test]
    fn multi_rate_session_lets_receivers_diverge() {
        // sender --10-- hub --4/2-- two receivers: a multi-rate session's
        // receivers take their own bottlenecks.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[1], n[2], 4.0).unwrap();
        g.add_link(n[1], n[3], 2.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let alloc = MultiRate::new().allocate(&net);
        assert_rates(&alloc, &[vec![4.0, 2.0]], 1e-9);
        // The single-rate twin drags everyone to the slowest branch.
        let single = SingleRate::new().allocate(&net);
        assert_rates(&single, &[vec![2.0, 2.0]], 1e-9);
    }

    #[test]
    fn free_rider_rides_a_saturated_link() {
        // Shared link L (cap 6) carries unicast S1 and multi-rate
        // S2 = {r21 (via L + roomy tail), r22 (via L + cap-1 tail)}.
        // r22 freezes at 1 (its tail). L: u = a1 + max(a21, 1): saturates
        // when a1 + a21 = 6 -> both 3.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 6.0).unwrap(); // L shared
        g.add_link(n[1], n[2], 1.0).unwrap(); // tail to r22
        g.add_link(n[1], n[3], 100.0).unwrap(); // tail to r21
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[3]),
                Session::multi_rate(n[0], vec![n[3], n[2]]),
            ],
        )
        .unwrap();
        let alloc = Hybrid::as_declared().allocate(&net);
        assert_rates(&alloc, &[vec![3.0], vec![3.0, 1.0]], 1e-9);
    }

    #[test]
    fn free_rider_past_frozen_session_max() {
        // The case that breaks the paper's printed algorithm: a receiver
        // rides a saturated link because its session-mate already pays for
        // a higher session link rate there.
        //   L1 (cap 4): r11 (S1 unicast) + r21 (S2)
        //   L2 (cap 10): r21 + r22 (both S2, multi-rate)
        //   L3 (cap 9): r22 alone
        let mut g = Graph::new();
        let n = g.add_nodes(5);
        let l2 = g.add_link(n[0], n[1], 10.0).unwrap(); // L2 shared by S2
        g.add_link(n[1], n[2], 4.0).unwrap(); // L1: r21 tail shared with r11
        g.add_link(n[1], n[3], 9.0).unwrap(); // L3: r22 tail
        g.add_link(n[0], n[4], 100.0).unwrap();
        let _ = l2;
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[1], n[2]),
                Session::multi_rate(n[0], vec![n[2], n[3]]),
            ],
        )
        .unwrap();
        // L1 (cap 4) carries r11 and r21: saturates at level 2 -> both 2.
        // r22 continues: L2 u = max(2, level) rides to 9 via L3 (cap 9).
        let alloc = Hybrid::as_declared().allocate(&net);
        assert_rates(&alloc, &[vec![2.0]], 1e-9);
        assert_rates(&alloc, &[vec![2.0], vec![2.0, 9.0]], 1e-9);
        // Check L2's load is the session max, not the sum.
        let cfg = LinkRateConfig::efficient(2);
        assert!((alloc.link_rate(&net, &cfg, LinkId(0)) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn single_rate_closure_freezes_whole_session() {
        // Star: S single-rate with branches of caps 2 and 8, plus a unicast
        // sharing the fat branch. S freezes at 2 everywhere; the unicast
        // takes 6.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 100.0).unwrap();
        g.add_link(n[1], n[2], 2.0).unwrap();
        g.add_link(n[1], n[3], 8.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::single_rate(n[0], vec![n[2], n[3]]),
                Session::unicast(n[0], n[3]),
            ],
        )
        .unwrap();
        let sol = solve(&net, &LinkRateConfig::efficient(2));
        assert_rates(&sol.allocation, &[vec![2.0, 2.0], vec![6.0]], 1e-9);
        assert_eq!(
            sol.reason(ReceiverId::new(0, 0)),
            FreezeReason::Link(LinkId(1))
        );
        assert_eq!(
            sol.reason(ReceiverId::new(0, 1)),
            FreezeReason::SessionClosure
        );
    }

    #[test]
    fn scaled_model_shrinks_fair_rates() {
        // Figure 6's single-bottleneck model: n sessions on one link, m of
        // them redundancy v. Rates must equal c / ((n-m) + m v).
        let mut g = Graph::new();
        let a = g.add_node();
        let hub = g.add_node();
        g.add_link(a, hub, 12.0).unwrap();
        // Redundant multi-rate session needs >= 2 receivers crossing the
        // shared link for Scaled to bite: give it two receivers behind hub.
        let r1 = g.add_node();
        let r2 = g.add_node();
        g.add_link(hub, r1, 100.0).unwrap();
        g.add_link(hub, r2, 100.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(a, vec![r1, r2]),
                Session::unicast(a, r1),
            ],
        )
        .unwrap();
        // v = 2 for session 0: link load = 2·L + L = 3L = 12 -> L = 4.
        let cfg = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0));
        let alloc = solve(&net, &cfg).allocation;
        assert_rates(&alloc, &[vec![4.0, 4.0], vec![4.0]], 1e-9);
        // Efficient: 2L = 12 -> 6 each.
        let eff = Hybrid::as_declared().allocate(&net);
        assert_rates(&eff, &[vec![6.0, 6.0], vec![6.0]], 1e-9);
    }

    #[test]
    fn sum_model_behaves_like_unicasts() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 9.0).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[2], n[3]]),
                Session::unicast(n[0], n[2]),
            ],
        )
        .unwrap();
        let cfg = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Sum);
        let alloc = solve(&net, &cfg).allocation;
        // Load on the first hop: a11 + a12 + a2 = 3L = 9.
        assert_rates(&alloc, &[vec![3.0, 3.0], vec![3.0]], 1e-9);
    }

    #[test]
    fn random_join_model_solves_by_bisection() {
        // Two receivers of one session share a link of capacity 1.5 under
        // RandomJoin with σ = 1: u(L) = 1 - (1-L)^2 caps at 1 < 1.5, so both
        // receivers climb to the σ clamp.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 1.5).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let cfg = LinkRateConfig::uniform(1, LinkRateModel::RandomJoin { sigma: 1.0 });
        let sol = solve(&net, &cfg);
        assert_rates(&sol.allocation, &[vec![1.0, 1.0]], 1e-6);
        assert_eq!(sol.reason(ReceiverId::new(0, 0)), FreezeReason::MaxRate);

        // Tighter link: u(L) = 1 - (1-L)^2 = 0.75 -> L = 0.5.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 0.75).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let sol = solve(&net, &cfg);
        assert_rates(&sol.allocation, &[vec![0.5, 0.5]], 1e-6);
    }

    #[test]
    fn allocation_is_invariant_to_session_order() {
        // Permuting sessions permutes the allocation accordingly (uniqueness
        // sanity check on a small asymmetric network).
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 5.0).unwrap();
        g.add_link(n[1], n[2], 2.0).unwrap();
        g.add_link(n[1], n[3], 9.0).unwrap();
        let s_a = Session::multi_rate(n[0], vec![n[2], n[3]]);
        let s_b = Session::unicast(n[0], n[3]);
        let net1 = Network::new(g.clone(), vec![s_a.clone(), s_b.clone()]).unwrap();
        let net2 = Network::new(g, vec![s_b, s_a]).unwrap();
        let a1 = Hybrid::as_declared().allocate(&net1);
        let a2 = Hybrid::as_declared().allocate(&net2);
        assert_eq!(a1.rates()[0], a2.rates()[1]);
        assert_eq!(a1.rates()[1], a2.rates()[0]);
    }

    #[test]
    fn result_is_always_feasible_and_saturating() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..30u64 {
            let net = mlf_net::topology::random_network(seed, 12, 4, 4).unwrap();
            let cfg = LinkRateConfig::efficient(net.session_count());
            let sol = solve_in(&net, &cfg, &Regimes::AsDeclared, None, &mut ws).unwrap();
            assert!(
                sol.allocation.is_feasible(&net, &cfg),
                "seed {seed}: infeasible: {:?}",
                sol.allocation.feasibility_violation(&net, &cfg)
            );
            // Every receiver is blocked: κ or a saturated link on its path.
            for r in net.receivers() {
                match sol.reason(r) {
                    FreezeReason::MaxRate => {}
                    FreezeReason::Link(l) => {
                        assert!(net.crosses(r, l), "seed {seed}: bottleneck not on path");
                        assert!(
                            sol.allocation.is_fully_utilized(&net, &cfg, l),
                            "seed {seed}: bottleneck link not full"
                        );
                    }
                    FreezeReason::SessionClosure => {
                        assert!(net.session(r.session).kind.is_single_rate());
                    }
                }
            }
        }
    }

    /// The bracketed search rests on `link_load_at` being monotone in the
    /// level under IEEE rounding. Checked on the Figure-5 shape and on
    /// per-session model mixes, at the start of a solve and after a few
    /// freeze rounds, over sorted random levels and `(x, next_up(x))`
    /// pairs.
    #[test]
    fn link_load_at_is_fp_monotone_in_the_level() {
        use mlf_net::topology::{random_network_with, SplitMix64};
        use mlf_net::TopologyFamily;
        const MIX: [LinkRateModel; 6] = [
            LinkRateModel::RandomJoin { sigma: 1.0 },
            LinkRateModel::RandomJoin { sigma: 2.5 },
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::Sum,
            LinkRateModel::RandomJoin { sigma: 6.0 },
        ];
        let families = [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 4 },
            TopologyFamily::Dumbbell,
        ];
        let mut rng = SplitMix64(0x00AD_10AD);
        let mut ws = SolverWorkspace::new();
        let mut pairs = 0usize;
        for seed in 0..24u64 {
            let net = random_network_with(families[seed as usize % 4], seed, 30, 8, 5).unwrap();
            let mixed = LinkRateConfig::per_session(
                (0..net.session_count())
                    .map(|i| MIX[(seed as usize + i) % MIX.len()])
                    .collect(),
            );
            let fig5 = LinkRateConfig::uniform(
                net.session_count(),
                LinkRateModel::RandomJoin { sigma: 6.0 },
            );
            for cfg in [&fig5, &mixed] {
                for rounds in 0..4 {
                    ws.reset(&net, None);
                    let mut state = State::<false>::new(&net, cfg, &Regimes::AsDeclared, &mut ws);
                    for _ in 0..rounds {
                        if state.any_active() {
                            state.step().unwrap();
                        }
                    }
                    for j in 0..net.link_count() {
                        if state.ws.link_active[j] == 0 {
                            continue;
                        }
                        let mut levels: Vec<f64> = (0..48).map(|_| 8.0 * rng.unit()).collect();
                        levels.extend([0.0, state.level, 1.0, 2.5, 6.0, f64::MIN_POSITIVE]);
                        levels.sort_by(f64::total_cmp);
                        let loads: Vec<f64> =
                            levels.iter().map(|&l| state.link_load_at(j, l)).collect();
                        for (w, l) in loads.windows(2).zip(levels.windows(2)) {
                            assert!(
                                w[0] <= w[1],
                                "seed {seed} link {j}: u({}) > u({})",
                                l[0],
                                l[1]
                            );
                        }
                        for &x in &levels {
                            let (a, b) = (
                                state.link_load_at(j, x),
                                state.link_load_at(j, next_above(x)),
                            );
                            assert!(a <= b, "seed {seed} link {j}: u({x}) > u(next_up)");
                            pairs += 1;
                        }
                    }
                }
            }
        }
        assert!(pairs > 10_000, "only {pairs} pairs checked");
    }

    /// Lemma 3 of "`RandomJoin` floors", checked where it is used: after
    /// every round of solves that mix `RandomJoin` sessions (σ from 0.5 to
    /// 1e4) with `Efficient`, `Sum` and `Scaled` ones (factors up to 1e3)
    /// under κ caps, every nonlinear link's load stays below `c − ε` from
    /// the level up to its floor.
    #[test]
    fn random_join_floors_bound_later_loads() {
        use mlf_net::topology::{random_network_with, SplitMix64};
        use mlf_net::TopologyFamily;
        const MIX: [LinkRateModel; 6] = [
            LinkRateModel::RandomJoin { sigma: 0.5 },
            LinkRateModel::RandomJoin { sigma: 6.0 },
            LinkRateModel::RandomJoin { sigma: 1e4 },
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(1e3),
            LinkRateModel::Sum,
        ];
        let families = [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 4 },
            TopologyFamily::Dumbbell,
        ];
        let mut rng = SplitMix64(0x000F_1002);
        let mut ws = SolverWorkspace::new();
        let mut checked = 0usize;
        for seed in 0..48u64 {
            let base = random_network_with(families[seed as usize % 4], seed, 24, 6, 5).unwrap();
            let mut sessions = base.sessions().to_vec();
            for s in sessions.iter_mut() {
                if rng.below(3) == 0 {
                    s.max_rate = 0.25 + 4.0 * rng.unit();
                }
            }
            let net = Network::with_routes(base.graph().clone(), sessions, base.routes()).unwrap();
            let cfg = LinkRateConfig::per_session(
                (0..net.session_count())
                    .map(|_| MIX[rng.below(MIX.len())])
                    .collect(),
            );
            ws.reset(&net, None);
            let mut state = State::<false>::new(&net, &cfg, &Regimes::AsDeclared, &mut ws);
            while state.any_active() && state.step().is_ok() {
                let live = state.ws.live.clone();
                for (j, _) in live.into_iter().filter(|&(_, linear)| !linear) {
                    let floor = state.ws.floor[j];
                    if state.ws.link_active[j] == 0 || floor.is_nan() || floor < state.level {
                        continue;
                    }
                    let cap = net.graph().capacity(LinkId(j));
                    for k in 0..=4 {
                        let y = state.level + (floor - state.level) * f64::from(k) / 4.0;
                        let load = state.link_load_at(j, y.min(floor));
                        assert!(
                            load < cap - RATE_EPS,
                            "seed {seed} link {j}: u({y}) = {load} ≥ c − ε under floor {floor}"
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "only {checked} floors checked");
    }

    #[test]
    fn mixed_session_types_respect_single_rate_constraint() {
        for seed in 100..120u64 {
            let mut net = mlf_net::topology::random_network(seed, 10, 3, 4).unwrap();
            // Flip session 0 single-rate.
            net = net.with_session_kind(SessionId(0), SessionType::SingleRate);
            let cfg = LinkRateConfig::efficient(net.session_count());
            let alloc = solve(&net, &cfg).allocation;
            assert!(alloc.is_feasible(&net, &cfg), "seed {seed}");
            let rs = &alloc.rates()[0];
            for &a in rs {
                assert!((a - rs[0]).abs() < 1e-9, "seed {seed}: single-rate uniform");
            }
        }
    }
}
