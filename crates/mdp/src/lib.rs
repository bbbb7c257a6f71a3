//! `ideaflow-mdp` — Markov decision processes, hidden Markov models, and
//! the doomed-run strategy card (paper §3.3, Figs 9–10 and the error
//! table).
//!
//! "Tool logfile data can be viewed as time series to which hidden Markov
//! models \[36\] or policy iteration in Markov decision processes \[4\] may be
//! applied." This crate provides both:
//!
//! - [`finite`]: generic finite MDPs with value and policy iteration.
//! - [`hmm`]: discrete HMMs (forward/backward, Baum–Welch) used
//!   as an alternative doomed-run detector.
//! - [`hmm_doomed`]: the HMM alternative (two-model likelihood-ratio
//!   detector over ΔDRV sequences).
//! - [`baselines`]: a memoryless logistic classifier for the
//!   does-temporal-structure-matter ablation.
//! - [`doomed`]: the paper's MDP-based "blackjack strategy card" — binned
//!   (violations, ΔDRV) states, GO/STOP actions, empirical transitions
//!   from logfiles, programmatic fill rules for unseen states (footnote
//!   5), consecutive-STOP gating, and the Type-1/Type-2 error evaluation
//!   of the §3.3 table.

pub mod baselines;
pub mod doomed;
pub mod finite;
pub mod hmm;
pub mod hmm_doomed;
pub mod qlearn;

use std::error::Error;
use std::fmt;

/// Error type for MDP/HMM construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
    /// A stochastic matrix row did not sum to 1.
    NotStochastic {
        /// Offending row index.
        row: usize,
        /// The row sum found.
        sum: f64,
    },
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
            MdpError::NotStochastic { row, sum } => {
                write!(f, "row {row} sums to {sum}, expected 1.0")
            }
        }
    }
}

impl Error for MdpError {}
