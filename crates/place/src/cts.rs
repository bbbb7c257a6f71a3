//! Clock-tree synthesis: recursive-bisection H-tree construction with
//! skew and insertion-delay estimation.
//!
//! The flow's CTS step (paper Fig 5's `cts_style` axis, and ref \[13\]'s
//! multi-corner skew optimization) needs a real substrate: given a
//! placement, build a balanced buffer tree from the clock root to every
//! flop, estimate per-sink insertion delay from buffer stages and wire
//! lengths, and report skew. Two styles are provided — `Balanced`
//! (H-tree-like recursive bisection, minimal skew) and `Aggressive`
//! (fewer levels, less buffer area, more skew) — matching the flow's
//! CTS-style option semantics.

use crate::floorplan::Floorplan;
use crate::placement::Placement;
use crate::PlaceError;
use ideaflow_netlist::cell::{CellKind, LibCell};
use ideaflow_netlist::graph::{InstId, Netlist};

/// CTS style (the flow-tree `cts_style` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtsStyle {
    /// Recursive bisection down to small leaf groups: minimum skew, more
    /// buffers.
    Balanced,
    /// Shallower tree with large leaf groups: fewer buffers, more skew.
    Aggressive,
}

impl CtsStyle {
    /// Maximum sinks a leaf buffer drives.
    fn leaf_capacity(self) -> usize {
        match self {
            CtsStyle::Balanced => 8,
            CtsStyle::Aggressive => 24,
        }
    }
}

/// One node of the synthesized clock tree.
#[derive(Debug, Clone)]
pub struct ClockNode {
    /// Buffer location (um).
    pub location: (f64, f64),
    /// Children (empty at leaves).
    pub children: Vec<ClockNode>,
    /// Sinks driven directly (non-empty only at leaves).
    pub sinks: Vec<InstId>,
}

/// The synthesized tree plus its quality metrics.
#[derive(Debug, Clone)]
pub struct ClockTree {
    /// Root node (at the die-center clock entry).
    pub root: ClockNode,
    /// Number of clock buffers inserted.
    pub buffer_count: usize,
    /// Total clock-wire length, um.
    pub wire_length_um: f64,
    /// Per-sink insertion delay, ps (indexed in `sink_order`).
    pub insertion_delays_ps: Vec<f64>,
    /// The sinks in delay-vector order.
    pub sink_order: Vec<InstId>,
    /// Buffer area added, um².
    pub buffer_area_um2: f64,
}

impl ClockTree {
    /// Global skew: max − min insertion delay, ps.
    #[must_use]
    pub fn skew_ps(&self) -> f64 {
        let max = self
            .insertion_delays_ps
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self
            .insertion_delays_ps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if self.insertion_delays_ps.is_empty() {
            0.0
        } else {
            max - min
        }
    }
}

/// Clock buffer electrical model.
const CLOCK_BUFFER: LibCell = LibCell {
    kind: CellKind::Buf,
    drive: 4,
    vt: ideaflow_netlist::cell::VtFlavor::StdVt,
};
/// Clock-wire delay per micron, ps (shielded clock routing is slower per
/// unit than signal routing in this model).
const CLOCK_PS_PER_UM: f64 = 0.18;

/// Synthesizes a clock tree for all flops of a placed design.
///
/// # Errors
///
/// Returns [`PlaceError::InvalidParameter`] if the design has no flops or
/// the placement is inconsistent with the netlist.
pub fn synthesize(
    netlist: &Netlist,
    fp: &Floorplan,
    placement: &Placement,
    style: CtsStyle,
) -> Result<ClockTree, PlaceError> {
    placement.validate(netlist, fp)?;
    let sinks: Vec<InstId> = netlist.sequential_instances().collect();
    if sinks.is_empty() {
        return Err(PlaceError::InvalidParameter {
            name: "netlist",
            detail: "clock tree needs at least one flop".into(),
        });
    }
    let root_loc = (fp.width_um() / 2.0, fp.height_um() / 2.0);
    let mut buffer_count = 0usize;
    let mut wire_length = 0.0f64;
    let root = build_node(
        fp,
        placement,
        root_loc,
        &sinks,
        style.leaf_capacity(),
        0,
        &mut buffer_count,
        &mut wire_length,
    );
    // Insertion delay per sink: walk the tree accumulating buffer + wire
    // delay.
    let mut insertion = Vec::with_capacity(sinks.len());
    let mut order = Vec::with_capacity(sinks.len());
    accumulate_delays(&root, fp, placement, 0.0, &mut order, &mut insertion);
    let buffer_area = buffer_count as f64 * CLOCK_BUFFER.area_um2();
    Ok(ClockTree {
        root,
        buffer_count,
        wire_length_um: wire_length,
        insertion_delays_ps: insertion,
        sink_order: order,
        buffer_area_um2: buffer_area,
    })
}

/// Manhattan distance.
fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// Geometric centroid of sinks.
fn centroid(fp: &Floorplan, placement: &Placement, sinks: &[InstId]) -> (f64, f64) {
    let mut x = 0.0;
    let mut y = 0.0;
    for &s in sinks {
        let (sx, sy) = placement.location(fp, s);
        x += sx;
        y += sy;
    }
    (x / sinks.len() as f64, y / sinks.len() as f64)
}

#[allow(clippy::too_many_arguments)]
fn build_node(
    fp: &Floorplan,
    placement: &Placement,
    at: (f64, f64),
    sinks: &[InstId],
    leaf_capacity: usize,
    depth: u32,
    buffer_count: &mut usize,
    wire_length: &mut f64,
) -> ClockNode {
    *buffer_count += 1;
    if sinks.len() <= leaf_capacity || depth > 16 {
        for &s in sinks {
            *wire_length += dist(at, placement.location(fp, s));
        }
        return ClockNode {
            location: at,
            children: Vec::new(),
            sinks: sinks.to_vec(),
        };
    }
    // Bisect along the wider spread axis at the median.
    let locs: Vec<((f64, f64), InstId)> = sinks
        .iter()
        .map(|&s| (placement.location(fp, s), s))
        .collect();
    let min_x = locs.iter().map(|(l, _)| l.0).fold(f64::INFINITY, f64::min);
    let max_x = locs
        .iter()
        .map(|(l, _)| l.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_y = locs.iter().map(|(l, _)| l.1).fold(f64::INFINITY, f64::min);
    let max_y = locs
        .iter()
        .map(|(l, _)| l.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let split_x = (max_x - min_x) >= (max_y - min_y);
    let mut keyed: Vec<(f64, InstId)> = locs
        .into_iter()
        .map(|(l, s)| (if split_x { l.0 } else { l.1 }, s))
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite coordinates"));
    let mid = keyed.len() / 2;
    let left: Vec<InstId> = keyed[..mid].iter().map(|&(_, s)| s).collect();
    let right: Vec<InstId> = keyed[mid..].iter().map(|&(_, s)| s).collect();
    let mut children = Vec::with_capacity(2);
    for half in [left, right] {
        if half.is_empty() {
            continue;
        }
        let c = centroid(fp, placement, &half);
        *wire_length += dist(at, c);
        children.push(build_node(
            fp,
            placement,
            c,
            &half,
            leaf_capacity,
            depth + 1,
            buffer_count,
            wire_length,
        ));
    }
    ClockNode {
        location: at,
        children,
        sinks: Vec::new(),
    }
}

fn accumulate_delays(
    node: &ClockNode,
    fp: &Floorplan,
    placement: &Placement,
    delay_in: f64,
    order: &mut Vec<InstId>,
    insertion: &mut Vec<f64>,
) {
    // Buffer stage delay: load is children count (or sinks) input caps
    // plus wire cap approximation via fanout.
    let fanout = node.children.len().max(node.sinks.len()).max(1);
    let load = fanout as f64 * CLOCK_BUFFER.input_cap();
    let here = delay_in + CLOCK_BUFFER.delay_ps(load);
    for child in &node.children {
        let wire = dist(node.location, child.location) * CLOCK_PS_PER_UM;
        accumulate_delays(child, fp, placement, here + wire, order, insertion);
    }
    for &s in &node.sinks {
        let wire = dist(node.location, placement.location(fp, s)) * CLOCK_PS_PER_UM;
        order.push(s);
        insertion.push(here + wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::partition_seeded_placement;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};

    fn placed(n: usize) -> (Netlist, Floorplan, Placement) {
        let nl = DesignSpec::new(DesignClass::Cpu, n).unwrap().generate(13);
        let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();
        let p = partition_seeded_placement(&nl, &fp, 2).unwrap();
        (nl, fp, p)
    }

    #[test]
    fn tree_covers_every_flop_exactly_once() {
        let (nl, fp, p) = placed(400);
        let tree = synthesize(&nl, &fp, &p, CtsStyle::Balanced).unwrap();
        let mut covered = tree.sink_order.clone();
        covered.sort();
        let mut expected: Vec<InstId> = nl.sequential_instances().collect();
        expected.sort();
        assert_eq!(covered, expected);
        assert_eq!(tree.insertion_delays_ps.len(), covered.len());
    }

    #[test]
    fn balanced_has_less_skew_but_more_buffers() {
        let (nl, fp, p) = placed(600);
        let balanced = synthesize(&nl, &fp, &p, CtsStyle::Balanced).unwrap();
        let aggressive = synthesize(&nl, &fp, &p, CtsStyle::Aggressive).unwrap();
        assert!(
            balanced.skew_ps() <= aggressive.skew_ps() + 1e-9,
            "balanced skew {} vs aggressive {}",
            balanced.skew_ps(),
            aggressive.skew_ps()
        );
        assert!(balanced.buffer_count > aggressive.buffer_count);
        assert!(balanced.buffer_area_um2 > aggressive.buffer_area_um2);
    }

    #[test]
    fn delays_are_positive_and_finite() {
        let (nl, fp, p) = placed(300);
        let tree = synthesize(&nl, &fp, &p, CtsStyle::Balanced).unwrap();
        assert!(tree
            .insertion_delays_ps
            .iter()
            .all(|d| d.is_finite() && *d > 0.0));
        assert!(tree.skew_ps() >= 0.0);
        assert!(tree.wire_length_um > 0.0);
    }

    #[test]
    fn no_flops_is_an_error() {
        use ideaflow_netlist::cell::{CellKind, LibCell};
        use ideaflow_netlist::graph::NetlistBuilder;
        let mut b = NetlistBuilder::new("comb_only");
        let a = b.add_primary_input();
        for _ in 0..40 {
            let _ = b.add_instance(LibCell::unit(CellKind::Inv), &[a]).unwrap();
        }
        let nl = b.finish().unwrap();
        let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();
        let p = crate::placer::random_placement(&nl, &fp, 0).unwrap();
        assert!(synthesize(&nl, &fp, &p, CtsStyle::Balanced).is_err());
    }

    #[test]
    fn deterministic() {
        let (nl, fp, p) = placed(300);
        let a = synthesize(&nl, &fp, &p, CtsStyle::Balanced).unwrap();
        let b = synthesize(&nl, &fp, &p, CtsStyle::Balanced).unwrap();
        assert_eq!(a.buffer_count, b.buffer_count);
        assert_eq!(a.insertion_delays_ps, b.insertion_delays_ps);
    }
}
