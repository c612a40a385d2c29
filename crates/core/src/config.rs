/// How an object's presence (Eq. 1) is normalized over its possible paths.
///
/// The paper is internally inconsistent here (see DESIGN.md §2.2): the
/// worked Examples 2–4 divide by the *full* Cartesian mass (which is 1 for
/// well-formed sample sets), giving `Φ(r6, o2) = 0.85`, while Algorithm 2
/// lines 16–21 normalize by the mass of *valid* paths only, which would
/// give 1.0 for the same object. Both semantics are implemented.
///
/// The default is [`Normalization::ValidPaths`] — the Algorithm 2
/// semantics. Besides being what the pseudocode prints, it is the only
/// choice that behaves sensibly on long query windows: under
/// `FullProduct`, every topologically inconsistent report (which real
/// positioning data produces constantly) *permanently* shrinks an
/// object's valid mass, so presence decays multiplicatively toward zero
/// as Δt grows — incompatible with the paper's reported long-window
/// effectiveness. `FullProduct` is kept to reproduce the worked examples
/// exactly and for the normalization ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Divide by the total probability mass of the raw Cartesian product
    /// (`Π_i Σ_e prob(e)`, = 1 for well-formed sets). Invalid paths damp
    /// the presence — an object whose reports are topologically
    /// inconsistent counts less. Matches the paper's worked Examples 2–4.
    FullProduct,
    /// Divide by the probability mass of valid paths only, conditioning on
    /// topological consistency. Matches Algorithm 2 as printed.
    #[default]
    ValidPaths,
}

/// Which presence engine evaluates Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PresenceEngine {
    /// Enumerate valid possible paths exactly as Algorithms 2–3 do.
    /// Faithful to the paper; cost grows with the number of valid paths
    /// (bounded by [`FlowConfig::path_budget`]). Batch queries only: the
    /// serving engine runs the transition DP.
    #[default]
    PathEnumeration,
    /// Exact dynamic program over (step, last P-location) pairs — our
    /// optimization exploiting that the pass probability factorizes over
    /// consecutive pairs. Produces identical values (property-tested) in
    /// `O(n · m²)` per object/query regardless of path count.
    TransitionDp,
    /// Enumerate paths per object and fall back to the transition DP for
    /// exactly the objects whose path set exceeds
    /// [`FlowConfig::path_budget`] — the paper's engine wherever it is
    /// feasible, with exact graceful degradation elsewhere (the paper
    /// spills oversized path sets to disk instead). The experiment harness
    /// uses this engine. Batch queries only, like
    /// [`PresenceEngine::PathEnumeration`].
    Hybrid,
}

/// Configuration for flow computation and the TkPLQ search algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// How presence probabilities are normalized across paths.
    pub normalization: Normalization,
    /// Which presence-computation engine evaluates the paths.
    pub engine: PresenceEngine,
    /// Apply the §3.2 data reduction (intra-merge + inter-merge) before
    /// path construction. The paper's `-ORG` variants set this to `false`.
    pub use_reduction: bool,
    /// Upper bound on path-extension steps per object during enumeration;
    /// exceeding it aborts with [`FlowError::PathBudgetExceeded`] instead
    /// of exhausting memory (the paper spills paths to disk; we fail fast
    /// and point at the DP engine).
    pub path_budget: u64,
    /// Parallelism for the batch drivers ([`crate::query::nested_loop`],
    /// [`crate::query::best_first`]): per-object work forks across
    /// `exec.threads` scoped workers and merges deterministically, so
    /// results are bit-identical at every thread count. Defaults to one
    /// thread, which spawns nothing. [`crate::query::naive`] ignores it.
    pub exec: popflow_exec::ExecConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            normalization: Normalization::default(),
            engine: PresenceEngine::default(),
            use_reduction: true,
            path_budget: 2_000_000,
            exec: popflow_exec::ExecConfig::default(),
        }
    }
}

impl FlowConfig {
    /// The paper's `-ORG` configuration: no data reduction.
    pub fn without_reduction(mut self) -> Self {
        self.use_reduction = false;
        self
    }

    /// Switch to the transition-DP engine.
    pub fn with_dp_engine(mut self) -> Self {
        self.engine = PresenceEngine::TransitionDp;
        self
    }

    /// Switch to Algorithm-2-faithful valid-path normalization (the
    /// default).
    pub fn with_valid_paths_normalization(mut self) -> Self {
        self.normalization = Normalization::ValidPaths;
        self
    }

    /// Switch to the worked-example full-product normalization.
    pub fn with_full_product_normalization(mut self) -> Self {
        self.normalization = Normalization::FullProduct;
        self
    }

    /// Let the batch drivers fork across `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = popflow_exec::ExecConfig::with_threads(threads);
        self
    }
}

/// Errors produced by flow computation and the continuous engines.
///
/// Conditions that a long-running serving process can hit through one
/// malformed input — a record whose probabilities degenerated to NaN, a
/// report arriving out of time order — are errors, not panics, so a
/// single bad record cannot take the whole engine down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Path enumeration exceeded [`FlowConfig::path_budget`] extension
    /// steps. Shorten the query interval, enable data reduction, or switch
    /// to [`PresenceEngine::TransitionDp`]. Only a batch query under
    /// [`PresenceEngine::PathEnumeration`] returns it: the serving engine
    /// runs the transition DP, which has no budget.
    PathBudgetExceeded {
        /// The configured budget that was exhausted.
        budget: u64,
    },
    /// A sample set violated its invariants during processing (e.g. a
    /// merge produced non-finite probabilities from a malformed record).
    InvalidSampleSet {
        /// What invariant was violated.
        detail: String,
    },
    /// A continuous engine was asked to move backwards in time — either an
    /// out-of-order record on ingest or an `advance` before the previous
    /// one. Timestamps are raw milliseconds.
    TimeRegression {
        /// The engine frontier that must not be crossed.
        last_millis: i64,
        /// The earlier timestamp that tried to cross it.
        offending_millis: i64,
    },
    /// A continuous engine can no longer serve (e.g. a shard worker died).
    EngineUnavailable {
        /// Why the engine is out of service.
        detail: String,
    },
    /// A query handed to a multi-query engine was rejected — an unknown
    /// [`crate::QueryId`], a bucket width that does not match the
    /// engine's cache granularity, or an advance with nothing registered.
    /// Rejections leave the engine untouched.
    InvalidQuery {
        /// Why the query was rejected.
        detail: String,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::PathBudgetExceeded { budget } => write!(
                f,
                "path enumeration exceeded the budget of {budget} extensions; \
                 enable data reduction or use the TransitionDp engine"
            ),
            FlowError::InvalidSampleSet { detail } => {
                write!(f, "invalid sample set: {detail}")
            }
            FlowError::TimeRegression {
                last_millis,
                offending_millis,
            } => write!(
                f,
                "time regression: {offending_millis} ms arrived after {last_millis} ms; \
                 continuous engines require non-decreasing time"
            ),
            FlowError::EngineUnavailable { detail } => {
                write!(f, "continuous engine unavailable: {detail}")
            }
            FlowError::InvalidQuery { detail } => {
                write!(f, "invalid query: {detail}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let cfg = FlowConfig::default();
        assert_eq!(cfg.normalization, Normalization::ValidPaths);
        assert_eq!(cfg.engine, PresenceEngine::PathEnumeration);
        assert!(cfg.use_reduction);
    }

    #[test]
    fn builder_helpers() {
        let cfg = FlowConfig::default()
            .without_reduction()
            .with_dp_engine()
            .with_valid_paths_normalization();
        assert!(!cfg.use_reduction);
        assert_eq!(cfg.engine, PresenceEngine::TransitionDp);
        assert_eq!(cfg.normalization, Normalization::ValidPaths);
    }

    #[test]
    fn error_display_mentions_remedy() {
        let e = FlowError::PathBudgetExceeded { budget: 5 };
        assert!(e.to_string().contains("TransitionDp"));
    }
}
