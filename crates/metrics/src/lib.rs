//! `ideaflow-metrics` — a reimplementation of the METRICS system
//! (paper §4, Fig 11; refs \[9\]\[28\]\[43\]).
//!
//! METRICS "instruments design tools and design processes for continuous
//! collection of design artifact and design process data, so as to produce
//! predictions and guidance for improving the current design process". Its
//! three components, reproduced here:
//!
//! - **Instrumentation**: `SpnrFlow::run_logged` journals each flow
//!   step's metrics as a `flow.step.<step>` event in the shared
//!   [`vocabulary`].
//! - **Collection**: the run journal (`ideaflow-trace`) is the transport
//!   and the store, in memory or on disk in either journal format.
//!   [`corpus`] rebuilds the per-step records from any journal's events
//!   and aligns them per run.
//! - **The data miner** ([`miner`]): regression/sensitivity analyses that
//!   predict design-specific tool outcomes and best option settings, and
//!   prescribe achievable clock frequency — the two validation uses the
//!   paper describes.
//!
//! The paper's "METRICS 2.0" lesson — predictions should feed back into
//! the flow "without human intervention" — is [`feedback`]; its
//! operational counterpart — a running campaign telling you it is
//! burning budget or stalled, without a human polling it — is
//! [`alerts`], a deterministic alerting engine over the live telemetry
//! registry (served at `GET /alerts` by [`http`]).

pub mod alerts;
pub mod corpus;
pub mod feedback;
pub mod http;
pub mod miner;
pub mod vocabulary;

use std::error::Error;
use std::fmt;

/// Error type for the METRICS system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// A query or mining operation had no usable data.
    NoData {
        /// What was missing.
        detail: String,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::NoData { detail } => write!(f, "no data: {detail}"),
            MetricsError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
        }
    }
}

impl Error for MetricsError {}
