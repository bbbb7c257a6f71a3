//! `ideaflow-netlist` — the design substrate: cell library, gate-level
//! netlist graph, synthetic design generation, eyecharts and partitioning.
//!
//! The paper's experiments run on real designs (PULPino RISC-V in a foundry
//! 14nm enablement) that we cannot access; per the reproduction plan we build
//! the closest synthetic equivalent. This crate provides:
//!
//! - [`cell`]: a synthetic 14nm-like standard-cell library with drive
//!   strengths and VT flavours, using a logical-effort delay model.
//! - [`graph`]: a validated gate-level netlist graph with topological
//!   traversal (the input to placement, routing and timing).
//! - [`generate`]: seeded random netlist generation per "design driver
//!   class" (CPU, DSP, NOC, GPU, PHY, RF — the classes the paper's §5(2)
//!   says progress should be measured against), with Rent's-rule locality.
//! - [`eyechart`]: constructive gate-sizing benchmarks with known optimal
//!   solutions (paper refs \[11\]\[23\]\[45\]).
//! - [`partition`]: Fiduccia–Mattheyses bipartitioning and recursive
//!   decomposition ("extreme partitioning", Solution 1 / Fig 4(b)).
//! - [`stats`]: Rent-exponent estimation and structural attributes used as
//!   ML features (paper §3.3(i)-(ii)).

pub mod cell;
pub mod eyechart;
pub mod generate;
pub mod graph;
pub mod partition;
pub mod stats;

use std::error::Error;
use std::fmt;

/// Error type for netlist construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net had no driver or more than one driver.
    BadDriver {
        /// The offending net's index.
        net: usize,
        /// Number of drivers found.
        drivers: usize,
    },
    /// An instance pin referenced a net out of range.
    DanglingPin {
        /// The offending instance's index.
        instance: usize,
    },
    /// The combinational subgraph contains a cycle.
    CombinationalCycle,
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::BadDriver { net, drivers } => {
                write!(f, "net {net} has {drivers} drivers (expected exactly 1)")
            }
            NetlistError::DanglingPin { instance } => {
                write!(f, "instance {instance} references a net out of range")
            }
            NetlistError::CombinationalCycle => {
                write!(f, "combinational cycle detected")
            }
            NetlistError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
        }
    }
}

impl Error for NetlistError {}
