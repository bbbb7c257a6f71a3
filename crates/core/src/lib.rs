//! `ideaflow-core` — the roadmap's orchestration layer: the paper's
//! primary contribution, assembled over the workspace's substrates.
//!
//! The DAC 2018 roadmap proposes a staged insertion of machine learning
//! into IC implementation (Fig 5(b)). This crate implements each stage
//! against the synthetic SP&R flow:
//!
//! 1. **Mechanize/automate** — [`robot`]: robot engineers that "reliably
//!    execute a given design task to completion" with no human.
//! 2. **Orchestration of search** — [`mab_env`] (bandit arms over tool
//!    runs, Fig 7) and [`orchestrate`] (Go-With-The-Winners over the flow
//!    option tree, Fig 6).
//! 3. **Pruning via predictors** — [`predictor`]: a learned flow-outcome
//!    model that skips doomed trajectories, and [`watchdog`], which
//!    early-terminates them in flight with the `ideaflow-mdp` strategy
//!    card.
//! 4. **Toward intelligence** — [`stages`] compares the stages end-to-end
//!    under one budget, and [`coevolution`] quantifies the Fig 4 "flip
//!    the arrows" story.

pub mod coevolution;
pub mod mab_env;
pub mod orchestrate;
pub mod predictor;
pub mod robot;
pub mod stages;
pub mod watchdog;

use std::error::Error;
use std::fmt;

/// Error type for orchestration.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
    /// A task could not be completed within its budget.
    BudgetExhausted {
        /// What was being attempted.
        task: String,
    },
    /// An underlying subsystem failed.
    Subsystem {
        /// Description of the failure.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
            CoreError::BudgetExhausted { task } => {
                write!(f, "budget exhausted during: {task}")
            }
            CoreError::Subsystem { detail } => write!(f, "subsystem failure: {detail}"),
        }
    }
}

impl Error for CoreError {}
