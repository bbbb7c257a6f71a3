//! Placement algorithms: random, partition-seeded, and simulated-annealing
//! with incremental HPWL.

use crate::floorplan::Floorplan;
use crate::placement::{net_hpwl, total_hpwl, Placement};
use crate::PlaceError;
use ideaflow_netlist::graph::Netlist;
use ideaflow_netlist::partition::{recursive_bisection, BlockNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random legal placement (uniform slot permutation).
///
/// # Errors
///
/// Returns [`PlaceError::DoesNotFit`] if there are fewer slots than
/// instances.
pub fn random_placement(
    netlist: &Netlist,
    fp: &Floorplan,
    seed: u64,
) -> Result<Placement, PlaceError> {
    let n = netlist.instance_count();
    if fp.site_count() < n {
        return Err(PlaceError::DoesNotFit {
            required_um2: netlist.total_area_um2(),
            available_um2: fp.width_um() * fp.height_um(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<usize> = (0..fp.site_count()).collect();
    for i in (1..slots.len()).rev() {
        let j = rng.gen_range(0..=i);
        slots.swap(i, j);
    }
    slots.truncate(n);
    Ok(Placement { slot: slots })
}

/// A partition-seeded placement: recursive bisection assigns blocks to
/// recursively split floorplan regions, giving a locality-preserving start
/// (the paper's "RTL partition and floorplan co-optimization" in miniature).
///
/// # Errors
///
/// Returns [`PlaceError::DoesNotFit`] on capacity problems or propagates
/// partitioner failures as [`PlaceError::InvalidParameter`].
pub fn partition_seeded_placement(
    netlist: &Netlist,
    fp: &Floorplan,
    seed: u64,
) -> Result<Placement, PlaceError> {
    let n = netlist.instance_count();
    if fp.site_count() < n {
        return Err(PlaceError::DoesNotFit {
            required_um2: netlist.total_area_um2(),
            available_um2: fp.width_um() * fp.height_um(),
        });
    }
    let leaf = (n / 64).clamp(4, 64);
    let tree =
        recursive_bisection(netlist, leaf, seed).map_err(|e| PlaceError::InvalidParameter {
            name: "netlist",
            detail: e.to_string(),
        })?;
    // Assign slots by in-order walk of the hierarchy: contiguous slot runs
    // per block keep partitions spatially coherent under row-major slots.
    let mut slot = vec![usize::MAX; n];
    let mut next = 0usize;
    fn walk(node: &BlockNode, slot: &mut [usize], next: &mut usize) {
        if node.children.is_empty() {
            for m in &node.members {
                slot[m.0 as usize] = *next;
                *next += 1;
            }
        } else {
            for c in &node.children {
                walk(c, slot, next);
            }
        }
    }
    walk(&tree, &mut slot, &mut next);
    Ok(Placement { slot })
}

/// Annealing parameters for [`anneal_placement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerConfig {
    /// Number of proposed moves.
    pub moves: usize,
    /// Initial temperature in microns of HPWL delta.
    pub t_initial: f64,
    /// Final temperature.
    pub t_final: f64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            moves: 50_000,
            t_initial: 200.0,
            t_final: 0.5,
        }
    }
}

/// Result of an annealing placement run.
#[derive(Debug, Clone)]
pub struct PlacerOutcome {
    /// Final placement.
    pub placement: Placement,
    /// Final total HPWL (um).
    pub hpwl_um: f64,
    /// HPWL before optimization (um).
    pub initial_hpwl_um: f64,
    /// Number of accepted moves.
    pub accepted: usize,
}

/// Simulated-annealing placement with incremental HPWL evaluation.
///
/// Moves are cell-to-empty-slot relocations or cell swaps; only the nets
/// incident to the touched instances are re-measured per move.
///
/// # Panics
///
/// Panics if `start` is illegal for `(netlist, fp)` (validated on entry) or
/// if the schedule is invalid.
#[must_use]
pub fn anneal_placement(
    netlist: &Netlist,
    fp: &Floorplan,
    start: Placement,
    cfg: PlacerConfig,
    seed: u64,
) -> PlacerOutcome {
    start
        .validate(netlist, fp)
        .expect("anneal_placement requires a legal start");
    assert!(
        cfg.t_final > 0.0 && cfg.t_final <= cfg.t_initial,
        "invalid annealing schedule"
    );
    let n = netlist.instance_count();
    // Incident nets per instance (inputs + output), deduplicated.
    let incident: Vec<Vec<u32>> = netlist
        .instances()
        .iter()
        .map(|inst| {
            let mut v: Vec<u32> = inst.inputs.iter().map(|n| n.0).collect();
            v.push(inst.output.0);
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();

    let mut placement = start;
    // slot -> instance map.
    let mut occupant: Vec<Option<u32>> = vec![None; fp.site_count()];
    for (i, &s) in placement.slot.iter().enumerate() {
        occupant[s] = Some(i as u32);
    }
    let initial_hpwl = total_hpwl(netlist, fp, &placement);
    let mut hpwl = initial_hpwl;
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = (cfg.t_final / cfg.t_initial).powf(1.0 / cfg.moves.max(1) as f64);
    let mut t = cfg.t_initial;
    let mut accepted = 0usize;

    let mut nets_scratch: Vec<u32> = Vec::new();
    for _ in 0..cfg.moves {
        let a = rng.gen_range(0..n);
        let target_slot = rng.gen_range(0..fp.site_count());
        let slot_a = placement.slot[a];
        if target_slot == slot_a {
            t *= alpha;
            continue;
        }
        let b = occupant[target_slot].map(|x| x as usize);
        // Affected nets: incident to a (and b if swap).
        nets_scratch.clear();
        nets_scratch.extend_from_slice(&incident[a]);
        if let Some(b) = b {
            nets_scratch.extend_from_slice(&incident[b]);
        }
        nets_scratch.sort_unstable();
        nets_scratch.dedup();
        let before: f64 = nets_scratch
            .iter()
            .map(|&ni| net_hpwl(netlist, fp, &placement, ni as usize))
            .sum();
        // Apply move.
        placement.slot[a] = target_slot;
        if let Some(b) = b {
            placement.slot[b] = slot_a;
        }
        let after: f64 = nets_scratch
            .iter()
            .map(|&ni| net_hpwl(netlist, fp, &placement, ni as usize))
            .sum();
        let delta = after - before;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / t).exp();
        if accept {
            occupant[slot_a] = b.map(|x| x as u32);
            occupant[target_slot] = Some(a as u32);
            hpwl += delta;
            accepted += 1;
        } else {
            // Revert.
            placement.slot[a] = slot_a;
            if let Some(b) = b {
                placement.slot[b] = target_slot;
            }
        }
        t *= alpha;
    }
    // Guard against float drift: recompute the final number exactly.
    let hpwl_exact = total_hpwl(netlist, fp, &placement);
    debug_assert!((hpwl - hpwl_exact).abs() < 1e-3 * hpwl_exact.max(1.0));
    PlacerOutcome {
        placement,
        hpwl_um: hpwl_exact,
        initial_hpwl_um: initial_hpwl,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};

    fn setup(n: usize) -> (Netlist, Floorplan) {
        let nl = DesignSpec::new(DesignClass::Cpu, n).unwrap().generate(3);
        let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();
        (nl, fp)
    }

    #[test]
    fn random_placement_is_legal() {
        let (nl, fp) = setup(300);
        let p = random_placement(&nl, &fp, 1).unwrap();
        p.validate(&nl, &fp).unwrap();
    }

    #[test]
    fn partition_seeded_placement_is_legal_and_better_than_random() {
        let (nl, fp) = setup(400);
        let seeded = partition_seeded_placement(&nl, &fp, 2).unwrap();
        seeded.validate(&nl, &fp).unwrap();
        let rand_p = random_placement(&nl, &fp, 2).unwrap();
        let h_seed = total_hpwl(&nl, &fp, &seeded);
        let h_rand = total_hpwl(&nl, &fp, &rand_p);
        assert!(
            h_seed < h_rand,
            "partition-seeded {h_seed} should beat random {h_rand}"
        );
    }

    #[test]
    fn annealing_reduces_hpwl_substantially() {
        let (nl, fp) = setup(300);
        let start = random_placement(&nl, &fp, 5).unwrap();
        let out = anneal_placement(
            &nl,
            &fp,
            start,
            PlacerConfig {
                moves: 30_000,
                t_initial: 50.0,
                t_final: 0.2,
            },
            7,
        );
        out.placement.validate(&nl, &fp).unwrap();
        assert!(
            out.hpwl_um < 0.8 * out.initial_hpwl_um,
            "final {} vs initial {}",
            out.hpwl_um,
            out.initial_hpwl_um
        );
        assert!(out.accepted > 0);
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let (nl, fp) = setup(120);
        let start = random_placement(&nl, &fp, 9).unwrap();
        let cfg = PlacerConfig {
            moves: 5_000,
            t_initial: 50.0,
            t_final: 0.5,
        };
        let a = anneal_placement(&nl, &fp, start.clone(), cfg, 11);
        let b = anneal_placement(&nl, &fp, start, cfg, 11);
        assert_eq!(a.hpwl_um, b.hpwl_um);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn undersized_floorplan_is_rejected() {
        let (nl, _) = setup(300);
        // Build a floorplan for a much smaller netlist and try to reuse it.
        let small = DesignSpec::new(DesignClass::Cpu, 64).unwrap().generate(1);
        let small_fp = Floorplan::for_netlist(&small, 0.7, 1.0).unwrap();
        assert!(matches!(
            random_placement(&nl, &small_fp, 0),
            Err(PlaceError::DoesNotFit { .. })
        ));
    }
}
