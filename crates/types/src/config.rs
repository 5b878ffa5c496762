//! System configuration: the `(N, t, N_max)` triple and everything the paper
//! derives from it.
//!
//! All thresholds, round budgets and namespace bounds used by the three
//! algorithms are centralized here so that protocol code never hand-computes
//! an `N − 2t` again.

use crate::error::ConfigError;
use crate::math::ceil_log2;
use std::fmt;

/// Resilience regime of one of the paper's three algorithms.
///
/// Each regime names both a precondition on `(N, t)` and the algorithm that
/// requires it:
///
/// | Regime | Precondition | Steps | Namespace |
/// |---|---|---|---|
/// | [`LogTime`](Regime::LogTime) | `N > 3t` | `3⌈log₂ t⌉ + 7` | `N + t − 1` |
/// | [`ConstantTime`](Regime::ConstantTime) | `N > t² + 2t` | `8` | `N` |
/// | [`TwoStep`](Regime::TwoStep) | `N > 2t² + t` | `2` | `N²` |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Regime {
    /// Algorithm 1 with the full logarithmic voting schedule; optimal
    /// resilience `N > 3t`.
    LogTime,
    /// Algorithm 1 truncated to 4 voting steps; requires `N > t² + 2t` and
    /// achieves strong (tight, size-`N`) renaming — Theorem V.3.
    ConstantTime,
    /// Algorithm 4, the 2-communication-step echo-counting algorithm;
    /// requires `N > 2t² + t` — Theorem VI.3.
    TwoStep,
}

impl Regime {
    /// All regimes, strongest resilience first.
    pub const ALL: [Regime; 3] = [Regime::LogTime, Regime::ConstantTime, Regime::TwoStep];

    /// A short stable label — the spelling every repro file format uses.
    pub fn label(&self) -> &'static str {
        match self {
            Regime::LogTime => "log-time",
            Regime::ConstantTime => "constant-time",
            Regime::TwoStep => "two-step",
        }
    }

    /// Parses a [`Regime::label`].
    pub fn parse(label: &str) -> Option<Regime> {
        Regime::ALL.into_iter().find(|r| r.label() == label)
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Regime::LogTime => "log-time (N > 3t)",
            Regime::ConstantTime => "constant-time (N > t² + 2t)",
            Regime::TwoStep => "2-step (N > 2t² + t)",
        };
        f.write_str(s)
    }
}

/// The immutable parameters of a synchronous Byzantine system: `N` processes
/// of which at most `t` are Byzantine, with original ids drawn from
/// `[1 ⋯ N_max]`.
///
/// # Example
///
/// ```
/// use opr_types::{SystemConfig, Regime};
///
/// let cfg = SystemConfig::new(16, 3)?;
/// assert_eq!(cfg.quorum(), 13);        // N − t
/// assert_eq!(cfg.weak_quorum(), 10);   // N − 2t
/// assert!(cfg.supports(Regime::LogTime));
/// assert!(cfg.supports(Regime::ConstantTime)); // 16 > 9 + 6
/// assert!(!cfg.supports(Regime::TwoStep));     // 16 ≤ 18 + 3
/// # Ok::<(), opr_types::ConfigError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SystemConfig {
    n: usize,
    t: usize,
    nmax: u64,
}

/// Default size of the original namespace when none is given: a "huge"
/// namespace (`2⁴⁸`) so that `N_max ≫ N` holds for every realistic `N`.
pub const DEFAULT_NMAX: u64 = 1 << 48;

impl SystemConfig {
    /// Creates a configuration with the default original namespace
    /// [`DEFAULT_NMAX`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n == 0` or `t ≥ n` (at least one process
    /// must be correct for the problem to be meaningful).
    pub fn new(n: usize, t: usize) -> Result<Self, ConfigError> {
        Self::with_nmax(n, t, DEFAULT_NMAX)
    }

    /// Creates a configuration with an explicit original-namespace size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n == 0`, `t ≥ n`, or `nmax < n as u64`
    /// (there must be room for `N` distinct original ids).
    pub fn with_nmax(n: usize, t: usize, nmax: u64) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::ZeroProcesses);
        }
        if t >= n {
            return Err(ConfigError::TooManyFaults { n, t });
        }
        if nmax < n as u64 {
            return Err(ConfigError::NamespaceTooSmall { n, nmax });
        }
        Ok(SystemConfig { n, t, nmax })
    }

    /// Total number of processes `N`.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Upper bound `t` on the number of Byzantine processes.
    pub const fn t(&self) -> usize {
        self.t
    }

    /// Size of the original namespace `N_max`.
    pub const fn nmax(&self) -> u64 {
        self.nmax
    }

    /// The quorum threshold `N − t`: messages seen on this many distinct
    /// links are backed by at least `N − 2t` correct processes.
    pub const fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// The weak threshold `N − 2t`: a message seen on this many distinct
    /// links is backed by at least one correct process (when `N > 3t`).
    pub const fn weak_quorum(&self) -> usize {
        self.n - 2 * self.t
    }

    /// The stretch factor `δ = 1 + 1/(3(N + t))` applied to initial ranks
    /// (Algorithm 1, line 02).
    pub fn delta(&self) -> f64 {
        1.0 + 1.0 / (3.0 * (self.n + self.t) as f64)
    }

    /// Whether this configuration satisfies the precondition of `regime`.
    pub fn supports(&self, regime: Regime) -> bool {
        let (n, t) = (self.n, self.t);
        match regime {
            Regime::LogTime => n > 3 * t,
            Regime::ConstantTime => n > t * t + 2 * t,
            Regime::TwoStep => n > 2 * t * t + t,
        }
    }

    /// Validates the precondition of `regime`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::RegimeViolated`] when `supports(regime)` is
    /// false.
    pub fn require(&self, regime: Regime) -> Result<(), ConfigError> {
        if self.supports(regime) {
            Ok(())
        } else {
            Err(ConfigError::RegimeViolated {
                n: self.n,
                t: self.t,
                regime,
            })
        }
    }

    /// Number of approximate-agreement voting steps Algorithm 1 runs under
    /// `regime`: `3⌈log₂ t⌉ + 3` in the logarithmic schedule (steps 5 through
    /// `3⌈log t⌉ + 7`), or exactly `4` in the constant-time variant
    /// (Section V).
    ///
    /// For `t ≤ 1` the logarithmic schedule is `3` steps (the formula with
    /// `⌈log 1⌉ = 0`); at least one voting step always runs so the namespace
    /// bound argument (values stay inside the correct-value interval)
    /// applies.
    ///
    /// # Panics
    ///
    /// Panics if called with [`Regime::TwoStep`], which has no voting phase.
    pub fn voting_steps(&self, regime: Regime) -> u32 {
        match regime {
            Regime::LogTime => 3 * ceil_log2(self.t) + 3,
            Regime::ConstantTime => 4,
            Regime::TwoStep => panic!("the 2-step algorithm has no voting phase"),
        }
    }

    /// Total communication steps of the algorithm for `regime`:
    /// `3⌈log t⌉ + 7`, `8`, or `2`.
    pub fn total_steps(&self, regime: Regime) -> u32 {
        match regime {
            Regime::LogTime | Regime::ConstantTime => 4 + self.voting_steps(regime),
            Regime::TwoStep => 2,
        }
    }

    /// Target namespace size `M` guaranteed by the algorithm for `regime`:
    /// `N + t − 1`, `N`, or `N²`.
    pub fn namespace_bound(&self, regime: Regime) -> u64 {
        let (n, t) = (self.n as u64, self.t as u64);
        match regime {
            Regime::LogTime => n + t.saturating_sub(1),
            Regime::ConstantTime => n,
            Regime::TwoStep => n * n,
        }
    }

    /// Maximum number of Byzantine-introduced ids that can enter any correct
    /// process's `accepted` set: `t + ⌊t²/(N − 2t)⌋` (Lemma IV.3 together
    /// with Lemma A.1). Requires `N > 2t`.
    pub fn byzantine_id_bound(&self) -> usize {
        if self.t == 0 {
            return 0;
        }
        assert!(self.n > 2 * self.t, "byzantine_id_bound requires N > 2t");
        self.t + (self.t * self.t) / (self.n - 2 * self.t)
    }

    /// Upper bound on `|accepted|` at any correct process:
    /// `N + ⌊t²/(N − 2t)⌋` (Lemma IV.3). Requires `N > 2t`.
    pub fn accepted_bound(&self) -> usize {
        if self.t == 0 {
            return self.n;
        }
        assert!(self.n > 2 * self.t, "accepted_bound requires N > 2t");
        self.n + (self.t * self.t) / (self.n - 2 * self.t)
    }

    /// The guaranteed per-voting-step convergence rate of the validated
    /// approximate agreement: `σ_t = ⌊(N − 2t)/t⌋ + 1` (Lemma IV.8).
    ///
    /// For `t = 0` there is nothing to converge (all correct processes hold
    /// identical ranks after the id-selection phase); we return `usize::MAX`
    /// as "infinite contraction" so that analytic code can divide by it.
    pub fn sigma(&self) -> usize {
        match (self.n - 2 * self.t).checked_div(self.t) {
            Some(q) => q + 1,
            None => usize::MAX,
        }
    }

    /// Upper bound on the initial rank discrepancy entering the voting phase:
    /// `Δ₅ ≤ (t + ⌊t²/(N−2t)⌋) · δ ≤ (2t − 1) · δ` (Lemma IV.7). The paren
    /// is exactly [`byzantine_id_bound`](Self::byzantine_id_bound): two
    /// correct processes' accepted sets differ only in Byzantine ids, so a
    /// common id's position can shift by at most that many entries.
    pub fn initial_spread_bound(&self) -> f64 {
        self.byzantine_id_bound() as f64 * self.delta()
    }

    /// The spacing every correct vote vector must exhibit between
    /// consecutive timely ids — exactly `δ` (Algorithm 2, line 03).
    pub fn spacing(&self) -> f64 {
        self.delta()
    }

    /// The number of voting steps that *provably* drives the worst-case
    /// initial spread `Δ₅ ≤ (t + ⌊t²/(N−2t)⌋)·δ` below the paper's safety
    /// target `(δ−1)/2`, assuming only the guaranteed contraction `σ_t` per
    /// step.
    ///
    /// **Reproduction finding** (EXPERIMENTS.md): the paper's schedule
    /// `3⌈log₂ t⌉ + 3` meets this only for large `t`; at minimal `N = 3t+1`
    /// and `t ∈ {2..6}` it falls up to 3 steps short, and our divergence
    /// adversary empirically drives the final spread past `(δ−1)/2` (names
    /// remain correct in all observed runs because the *sufficient*
    /// condition is the weaker `Δ < δ−1`). Safety-critical users should run
    /// `max(voting_steps, safe_voting_steps)`; the default stays
    /// paper-faithful.
    pub fn safe_voting_steps(&self) -> u32 {
        if self.t == 0 {
            return 1;
        }
        let sigma = self.sigma() as f64;
        let mut spread = self.initial_spread_bound();
        let target = (self.delta() - 1.0) / 2.0;
        let mut steps = 0u32;
        while spread >= target && steps < 128 {
            spread /= sigma;
            steps += 1;
        }
        steps.max(1)
    }

    /// Smallest `N` supporting `regime` for a given `t` — convenient for
    /// parameter sweeps that probe each bound tightly.
    pub fn minimal_n(t: usize, regime: Regime) -> usize {
        match regime {
            Regime::LogTime => 3 * t + 1,
            Regime::ConstantTime => t * t + 2 * t + 1,
            Regime::TwoStep => 2 * t * t + t + 1,
        }
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={} t={} Nmax={}", self.n, self.t, self.nmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_configs() {
        assert!(matches!(
            SystemConfig::new(0, 0),
            Err(ConfigError::ZeroProcesses)
        ));
        assert!(matches!(
            SystemConfig::new(3, 3),
            Err(ConfigError::TooManyFaults { .. })
        ));
        assert!(matches!(
            SystemConfig::with_nmax(8, 1, 4),
            Err(ConfigError::NamespaceTooSmall { .. })
        ));
    }

    #[test]
    fn thresholds() {
        let cfg = SystemConfig::new(10, 3).unwrap();
        assert_eq!(cfg.quorum(), 7);
        assert_eq!(cfg.weak_quorum(), 4);
        let d = cfg.delta();
        assert!((d - (1.0 + 1.0 / 39.0)).abs() < 1e-12);
    }

    #[test]
    fn regime_preconditions_match_paper() {
        // N > 3t.
        assert!(SystemConfig::new(4, 1).unwrap().supports(Regime::LogTime));
        assert!(!SystemConfig::new(3, 1).unwrap().supports(Regime::LogTime));
        // N > t² + 2t.
        assert!(SystemConfig::new(16, 3)
            .unwrap()
            .supports(Regime::ConstantTime));
        assert!(!SystemConfig::new(15, 3)
            .unwrap()
            .supports(Regime::ConstantTime));
        // N > 2t² + t.
        assert!(SystemConfig::new(22, 3).unwrap().supports(Regime::TwoStep));
        assert!(!SystemConfig::new(21, 3).unwrap().supports(Regime::TwoStep));
    }

    #[test]
    fn minimal_n_is_minimal() {
        for t in 0..=6 {
            for regime in Regime::ALL {
                let n = SystemConfig::minimal_n(t, regime);
                let cfg = SystemConfig::new(n, t).unwrap();
                assert!(cfg.supports(regime), "minimal N must support {regime:?}");
                if n > 1 && t > 0 && n - 1 > t {
                    let smaller = SystemConfig::new(n - 1, t).unwrap();
                    assert!(
                        !smaller.supports(regime),
                        "N-1 must not support {regime:?} (t={t})"
                    );
                }
            }
        }
    }

    #[test]
    fn step_formulas_match_paper() {
        // t=1: 3·0 + 7 = 7 steps; t=4: 3·2 + 7 = 13 steps.
        let cfg1 = SystemConfig::new(4, 1).unwrap();
        assert_eq!(cfg1.total_steps(Regime::LogTime), 7);
        let cfg4 = SystemConfig::new(13, 4).unwrap();
        assert_eq!(cfg4.total_steps(Regime::LogTime), 3 * 2 + 7);
        // Constant-time variant is always 8 steps.
        let cfg = SystemConfig::new(16, 3).unwrap();
        assert_eq!(cfg.total_steps(Regime::ConstantTime), 8);
        // 2-step algorithm is 2 steps.
        assert_eq!(cfg.total_steps(Regime::TwoStep), 2);
    }

    #[test]
    #[should_panic(expected = "no voting phase")]
    fn voting_steps_rejects_two_step() {
        let cfg = SystemConfig::new(22, 3).unwrap();
        let _ = cfg.voting_steps(Regime::TwoStep);
    }

    #[test]
    fn namespace_bounds_match_paper() {
        let cfg = SystemConfig::new(10, 3).unwrap();
        assert_eq!(cfg.namespace_bound(Regime::LogTime), 12); // N + t − 1
        assert_eq!(cfg.namespace_bound(Regime::ConstantTime), 10); // N
        assert_eq!(cfg.namespace_bound(Regime::TwoStep), 100); // N²
    }

    #[test]
    fn accepted_bound_collapses_to_n_in_constant_regime() {
        // Lemma V.1: for N > t² + 2t, ⌊t²/(N−2t)⌋ = 0 so |accepted| ≤ N.
        let cfg = SystemConfig::new(16, 3).unwrap();
        assert_eq!(cfg.accepted_bound(), 16);
        assert_eq!(cfg.byzantine_id_bound(), 3);
        // And in the general regime it can exceed N.
        let tight = SystemConfig::new(10, 3).unwrap();
        assert_eq!(tight.accepted_bound(), 10 + 9 / 4);
        assert_eq!(tight.byzantine_id_bound(), 3 + 9 / 4);
    }

    #[test]
    fn accepted_bound_never_exceeds_n_plus_t_minus_1() {
        // Theorem IV.10's validity argument: for N > 3t,
        // N + ⌊t²/(N−2t)⌋ ≤ N + t − 1.
        for t in 1..=10 {
            for n in (3 * t + 1)..(3 * t + 40) {
                let cfg = SystemConfig::new(n, t).unwrap();
                assert!(
                    cfg.accepted_bound() < n + t,
                    "N={n} t={t}: {} > {}",
                    cfg.accepted_bound(),
                    n + t - 1
                );
            }
        }
    }

    #[test]
    fn sigma_exceeds_two_when_n_gt_3t() {
        for t in 1..=8 {
            let cfg = SystemConfig::new(3 * t + 1, t).unwrap();
            assert!(cfg.sigma() >= 2, "σ_t ≥ 2 needed for convergence");
        }
        // In the constant-time regime σ_t ≥ t + 1 (proof of Lemma V.2; the
        // paper's strict inequality holds whenever t divides N−2t evenly
        // enough, and ≥ suffices for the 4-step convergence bound).
        for t in 1..=8 {
            let cfg = SystemConfig::new(t * t + 2 * t + 1, t).unwrap();
            assert!(cfg.sigma() > t, "t={t}: sigma={}", cfg.sigma());
        }
    }

    #[test]
    fn safe_voting_steps_exceeds_paper_schedule_at_small_t() {
        // The reproduction finding: at minimal N the paper's 3⌈log t⌉+3
        // budget is 1–2 steps short for t ∈ {2, 4} (and exactly tight at
        // t = 3), then sufficient from t = 5 on, where ⌈log t⌉ jumps while
        // the analytic requirement grows only by a constant.
        for t in [2usize, 4] {
            let cfg = SystemConfig::new(3 * t + 1, t).unwrap();
            assert!(
                cfg.safe_voting_steps() > cfg.voting_steps(Regime::LogTime),
                "t={t}: safe {} vs paper {}",
                cfg.safe_voting_steps(),
                cfg.voting_steps(Regime::LogTime)
            );
        }
        {
            let cfg = SystemConfig::new(10, 3).unwrap();
            assert_eq!(cfg.safe_voting_steps(), cfg.voting_steps(Regime::LogTime));
        }
        for t in [5usize, 8, 16, 32] {
            let cfg = SystemConfig::new(3 * t + 1, t).unwrap();
            assert!(
                cfg.safe_voting_steps() <= cfg.voting_steps(Regime::LogTime),
                "t={t}"
            );
        }
        // Far from the boundary σ grows and the paper budget is plentiful.
        let roomy = SystemConfig::new(40, 3).unwrap();
        assert!(roomy.safe_voting_steps() <= roomy.voting_steps(Regime::LogTime));
    }

    #[test]
    fn safe_voting_steps_in_the_constant_time_regime() {
        // Lemma V.2 claims 4 voting steps suffice when N > t² + 2t. At the
        // exact boundary N = t² + 2t + 1 the paper's chain of inequalities
        // is loose for small t (EXPERIMENTS.md, finding 3): the analytic
        // worst case needs one extra step there, and the claim holds as
        // stated once N is a modest constant factor above the boundary.
        for t in 1usize..=32 {
            let roomy = SystemConfig::new(2 * (t * t + 2 * t) + 1, t).unwrap();
            assert!(roomy.safe_voting_steps() <= 4, "t={t}, {roomy}");
            let boundary = SystemConfig::new(t * t + 2 * t + 1, t).unwrap();
            assert!(boundary.safe_voting_steps() <= 5, "t={t}, {boundary}");
        }
        let tight = SystemConfig::new(3 * 3 + 2 * 3 + 1, 3).unwrap();
        assert_eq!(tight.safe_voting_steps(), 5);
    }

    #[test]
    fn zero_fault_conveniences() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        assert_eq!(cfg.byzantine_id_bound(), 0);
        assert_eq!(cfg.accepted_bound(), 5);
        assert_eq!(cfg.sigma(), usize::MAX);
        assert_eq!(cfg.total_steps(Regime::LogTime), 7);
    }

    #[test]
    fn display_formats() {
        let cfg = SystemConfig::with_nmax(4, 1, 100).unwrap();
        assert_eq!(format!("{cfg}"), "N=4 t=1 Nmax=100");
        assert!(format!("{}", Regime::LogTime).contains("3t"));
    }
}
