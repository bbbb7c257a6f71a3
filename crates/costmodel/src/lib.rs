//! `ideaflow-costmodel` — the ITRS Design Cost Model and Design Capability
//! Gap (paper Figs 1–2, footnote 1; refs \[31\]\[39\]\[41\]\[16\]).
//!
//! The Design Cost Model projects SOC design cost from (i) design size in
//! transistors, (ii) designer productivity — which is multiplied by each
//! design-technology (DT) innovation as it is delivered — and (iii) cost
//! components (salary, tools, servers) that inflate over time. Footnote 1
//! anchors the reproduction: with all DT innovations the ITRS consumer
//! portable SOC (SOC-CP) costs **$45.4M in 2013**; freezing DT at 2013
//! lets cost grow to **$3.4B by 2028**; freezing DT at 2000 would have
//! meant **~$1B in 2013 and ~$70B in 2028**.
//!
//! - [`cost`]: the cost model with its DT-innovation schedule.
//! - [`capability`]: the Design Capability Gap — available vs realized
//!   transistor-density scaling (Fig 1).

pub mod capability;
pub mod cost;

use std::error::Error;
use std::fmt;

/// Error type for cost-model configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
        }
    }
}

impl Error for CostError {}
