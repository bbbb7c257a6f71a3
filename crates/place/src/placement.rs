//! Legal placements and half-perimeter wirelength (HPWL).

use crate::floorplan::Floorplan;
use crate::PlaceError;
use ideaflow_netlist::graph::{Driver, InstId, Netlist};

/// An assignment of every instance to a distinct floorplan slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `slot[i]` is the flat slot id of instance `i`.
    pub slot: Vec<usize>,
}

impl Placement {
    /// Validates that the assignment is legal: in range and injective.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InvalidParameter`] describing the violation.
    pub fn validate(&self, netlist: &Netlist, fp: &Floorplan) -> Result<(), PlaceError> {
        if self.slot.len() != netlist.instance_count() {
            return Err(PlaceError::InvalidParameter {
                name: "slot",
                detail: format!(
                    "{} assignments for {} instances",
                    self.slot.len(),
                    netlist.instance_count()
                ),
            });
        }
        let mut used = vec![false; fp.site_count()];
        for (i, &s) in self.slot.iter().enumerate() {
            if s >= fp.site_count() {
                return Err(PlaceError::InvalidParameter {
                    name: "slot",
                    detail: format!("instance {i} assigned to out-of-range slot {s}"),
                });
            }
            if used[s] {
                return Err(PlaceError::InvalidParameter {
                    name: "slot",
                    detail: format!("slot {s} assigned twice"),
                });
            }
            used[s] = true;
        }
        Ok(())
    }

    /// Location (um) of an instance.
    #[must_use]
    pub fn location(&self, fp: &Floorplan, inst: InstId) -> (f64, f64) {
        fp.slot_center(self.slot[inst.0 as usize])
    }
}

/// Location of a primary input pin: spread along the left die edge.
#[must_use]
pub fn primary_input_location(fp: &Floorplan, index: u32, total: usize) -> (f64, f64) {
    let frac = (f64::from(index) + 0.5) / total.max(1) as f64;
    (0.0, frac * fp.height_um())
}

/// Half-perimeter wirelength of one net in microns.
#[must_use]
pub fn net_hpwl(netlist: &Netlist, fp: &Floorplan, placement: &Placement, net: usize) -> f64 {
    let n = &netlist.nets()[net];
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    let mut include = |p: (f64, f64)| {
        min_x = min_x.min(p.0);
        max_x = max_x.max(p.0);
        min_y = min_y.min(p.1);
        max_y = max_y.max(p.1);
    };
    match n.driver {
        Driver::PrimaryInput(i) => {
            include(primary_input_location(fp, i, netlist.primary_input_count()));
        }
        Driver::Instance(id) => include(placement.location(fp, id)),
    }
    for &s in &n.sinks {
        include(placement.location(fp, s));
    }
    if n.sinks.is_empty() && !matches!(n.driver, Driver::PrimaryInput(_)) {
        return 0.0; // single-pin net
    }
    if !min_x.is_finite() {
        return 0.0;
    }
    (max_x - min_x) + (max_y - min_y)
}

/// Total HPWL over all nets in microns.
#[must_use]
pub fn total_hpwl(netlist: &Netlist, fp: &Floorplan, placement: &Placement) -> f64 {
    (0..netlist.net_count())
        .map(|n| net_hpwl(netlist, fp, placement, n))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_netlist::cell::{CellKind, LibCell};
    use ideaflow_netlist::graph::NetlistBuilder;

    fn pair() -> Netlist {
        let mut b = NetlistBuilder::new("pair");
        let a = b.add_primary_input();
        let n1 = b.add_instance(LibCell::unit(CellKind::Inv), &[a]).unwrap();
        let _ = b.add_instance(LibCell::unit(CellKind::Inv), &[n1]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn validate_catches_double_booking() {
        let nl = pair();
        let fp = Floorplan::for_netlist(&nl, 0.5, 1.0).unwrap();
        let p = Placement { slot: vec![0, 0] };
        assert!(p.validate(&nl, &fp).is_err());
        let ok = Placement { slot: vec![0, 1] };
        assert!(ok.validate(&nl, &fp).is_ok());
    }

    #[test]
    fn validate_catches_out_of_range() {
        let nl = pair();
        let fp = Floorplan::for_netlist(&nl, 0.5, 1.0).unwrap();
        let p = Placement {
            slot: vec![0, fp.site_count()],
        };
        assert!(p.validate(&nl, &fp).is_err());
    }

    #[test]
    fn hpwl_of_adjacent_cells_is_one_pitch() {
        let nl = pair();
        let fp = Floorplan::for_netlist(&nl, 0.5, 1.0).unwrap();
        // Instances in slots 0 and 1 (same row, adjacent columns).
        let p = Placement { slot: vec![0, 1] };
        // Net 1 is inv0 -> inv1.
        let hp = net_hpwl(&nl, &fp, &p, 1);
        let pitch = fp.width_um() / fp.cols() as f64;
        assert!((hp - pitch).abs() < 1e-9, "hpwl {hp} pitch {pitch}");
    }

    #[test]
    fn total_hpwl_shrinks_when_cells_move_closer() {
        let nl = pair();
        let fp = Floorplan::for_netlist(&nl, 0.3, 1.0).unwrap();
        assert!(fp.site_count() >= 4);
        let near = Placement { slot: vec![0, 1] };
        let far = Placement {
            slot: vec![0, fp.site_count() - 1],
        };
        assert!(total_hpwl(&nl, &fp, &near) < total_hpwl(&nl, &fp, &far));
    }

    #[test]
    fn primary_inputs_pin_to_left_edge() {
        let nl = pair();
        let fp = Floorplan::for_netlist(&nl, 0.5, 1.0).unwrap();
        let (x, y) = primary_input_location(&fp, 0, 1);
        assert_eq!(x, 0.0);
        assert!(y > 0.0 && y < fp.height_um());
    }
}
