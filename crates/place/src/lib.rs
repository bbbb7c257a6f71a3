//! `ideaflow-place` — floorplanning and placement over the netlist
//! substrate.
//!
//! The paper's Solution 1 calls for new placement capabilities supporting
//! extreme partitioning, and its Fig 4 coevolution story turns on the
//! *guardbands* designers must adopt when tools are noisy. This crate
//! provides:
//!
//! - [`floorplan`]: die/core geometry from target utilization.
//! - [`placement`]: legal slot-grid placements and HPWL wirelength.
//! - [`placer`]: random, partition-seeded and annealing placers, with an
//!   incremental-HPWL annealer.
//! - [`cts`]: clock-tree synthesis over the placed flops.
//! - [`guardband`]: the noise → margin → iterations model that the Fig 4
//!   harness sweeps.

pub mod cts;
pub mod floorplan;
pub mod guardband;
pub mod placement;
pub mod placer;

use std::error::Error;
use std::fmt;

/// Error type for placement operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// The floorplan cannot fit the netlist at the requested utilization.
    DoesNotFit {
        /// Required area (um^2).
        required_um2: f64,
        /// Available area (um^2).
        available_um2: f64,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::DoesNotFit {
                required_um2,
                available_um2,
            } => write!(
                f,
                "netlist needs {required_um2:.1} um^2 but floorplan provides {available_um2:.1}"
            ),
            PlaceError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
        }
    }
}

impl Error for PlaceError {}
