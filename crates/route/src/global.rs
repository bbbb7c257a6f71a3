//! A two-pass L-shaped global router over a bin grid.
//!
//! Each 2-pin connection (driver to each sink) is routed as an L through
//! the bin grid, choosing the elbow orientation with less congestion; a
//! second pass re-routes the most-overflowed nets. The result is per-bin
//! track usage — coarse, but it produces the congestion→DRV causality the
//! doomed-run experiment needs.

use ideaflow_netlist::graph::{Driver, Netlist};
use ideaflow_place::floorplan::Floorplan;
use ideaflow_place::placement::{primary_input_location, Placement};

/// Per-bin track usage produced by global routing.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRoute {
    cols: usize,
    usage: Vec<f64>,
    capacity: f64,
}

/// Routing grid and capacity parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Bin columns.
    pub cols: usize,
    /// Bin rows.
    pub rows: usize,
    /// Track capacity per bin (per direction, abstracted).
    pub capacity: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            cols: 16,
            rows: 16,
            capacity: 64.0,
        }
    }
}

impl GlobalRoute {
    /// Routes every driver→sink connection of `netlist` over the grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or capacity non-positive.
    #[must_use]
    pub fn run(netlist: &Netlist, fp: &Floorplan, placement: &Placement, cfg: RouteConfig) -> Self {
        assert!(cfg.cols > 0 && cfg.rows > 0, "grid must be non-empty");
        assert!(cfg.capacity > 0.0, "capacity must be positive");
        let mut gr = Self {
            cols: cfg.cols,
            usage: vec![0.0; cfg.cols * cfg.rows],
            capacity: cfg.capacity,
        };
        let bin_of = |p: (f64, f64)| -> (usize, usize) {
            let c = ((p.0 / fp.width_um() * cfg.cols as f64).floor() as isize)
                .clamp(0, cfg.cols as isize - 1) as usize;
            let r = ((p.1 / fp.height_um() * cfg.rows as f64).floor() as isize)
                .clamp(0, cfg.rows as isize - 1) as usize;
            (c, r)
        };
        // Collect 2-pin connections.
        let mut conns: Vec<((usize, usize), (usize, usize))> = Vec::new();
        for net in netlist.nets() {
            let src = match net.driver {
                Driver::PrimaryInput(i) => {
                    bin_of(primary_input_location(fp, i, netlist.primary_input_count()))
                }
                Driver::Instance(id) => bin_of(placement.location(fp, id)),
            };
            for &s in &net.sinks {
                conns.push((src, bin_of(placement.location(fp, s))));
            }
        }
        // Pass 1: route each connection greedily.
        let routes: Vec<bool> = conns
            .iter()
            .map(|&(a, b)| {
                let lower = gr.l_cost(a, b, true) <= gr.l_cost(a, b, false);
                gr.commit(a, b, lower, 1.0);
                lower
            })
            .collect();
        // Pass 2: rip-up-and-reroute connections through overflowed bins.
        for (i, &(a, b)) in conns.iter().enumerate() {
            if gr.path_max_utilization(a, b, routes[i]) > 1.0 {
                gr.commit(a, b, routes[i], -1.0);
                let lower = gr.l_cost(a, b, true) <= gr.l_cost(a, b, false);
                gr.commit(a, b, lower, 1.0);
            }
        }
        gr
    }

    fn idx(&self, c: usize, r: usize) -> usize {
        r * self.cols + c
    }

    /// Walks the L from `a` to `b`; `horizontal_first` selects the elbow.
    fn l_bins(&self, a: (usize, usize), b: (usize, usize), horizontal_first: bool) -> Vec<usize> {
        let mut bins = Vec::new();
        let (ac, ar) = a;
        let (bc, br) = b;
        if horizontal_first {
            let (lo, hi) = (ac.min(bc), ac.max(bc));
            for c in lo..=hi {
                bins.push(self.idx(c, ar));
            }
            let (lo, hi) = (ar.min(br), ar.max(br));
            for r in lo..=hi {
                bins.push(self.idx(bc, r));
            }
        } else {
            let (lo, hi) = (ar.min(br), ar.max(br));
            for r in lo..=hi {
                bins.push(self.idx(ac, r));
            }
            let (lo, hi) = (ac.min(bc), ac.max(bc));
            for c in lo..=hi {
                bins.push(self.idx(c, br));
            }
        }
        bins.sort_unstable();
        bins.dedup();
        bins
    }

    fn l_cost(&self, a: (usize, usize), b: (usize, usize), horizontal_first: bool) -> f64 {
        self.l_bins(a, b, horizontal_first)
            .iter()
            .map(|&i| {
                let u = self.usage[i] / self.capacity;
                // Congestion-aware cost: quadratic penalty past 80%.
                1.0 + if u > 0.8 {
                    (u - 0.8) * (u - 0.8) * 50.0
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn path_max_utilization(
        &self,
        a: (usize, usize),
        b: (usize, usize),
        horizontal_first: bool,
    ) -> f64 {
        self.l_bins(a, b, horizontal_first)
            .iter()
            .map(|&i| self.usage[i] / self.capacity)
            .fold(0.0, f64::max)
    }

    fn commit(&mut self, a: (usize, usize), b: (usize, usize), horizontal_first: bool, w: f64) {
        for i in self.l_bins(a, b, horizontal_first) {
            self.usage[i] += w;
        }
    }

    /// Maximum bin utilization (usage / capacity).
    #[must_use]
    pub fn max_utilization(&self) -> f64 {
        self.usage
            .iter()
            .fold(0.0f64, |m, &u| m.max(u / self.capacity))
    }

    /// Total overflow over all bins.
    #[must_use]
    pub fn total_overflow(&self) -> f64 {
        self.usage
            .iter()
            .map(|&u| (u - self.capacity).max(0.0))
            .sum()
    }

    /// Fraction of bins above `threshold` utilization.
    #[must_use]
    pub fn hot_fraction(&self, threshold: f64) -> f64 {
        let hot = self
            .usage
            .iter()
            .filter(|&&u| u / self.capacity > threshold)
            .count();
        hot as f64 / self.usage.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};
    use ideaflow_place::placer::{partition_seeded_placement, random_placement};

    fn setup() -> (Netlist, Floorplan, Placement) {
        let nl = DesignSpec::new(DesignClass::Cpu, 400).unwrap().generate(2);
        let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();
        let p = random_placement(&nl, &fp, 1).unwrap();
        (nl, fp, p)
    }

    #[test]
    fn routes_have_positive_usage() {
        let (nl, fp, p) = setup();
        let gr = GlobalRoute::run(&nl, &fp, &p, RouteConfig::default());
        assert!(gr.max_utilization() > 0.0);
    }

    #[test]
    fn better_placement_routes_with_less_overflow() {
        let nl = DesignSpec::new(DesignClass::Cpu, 600).unwrap().generate(4);
        let fp = Floorplan::for_netlist(&nl, 0.8, 1.0).unwrap();
        let cfg = RouteConfig {
            cols: 12,
            rows: 12,
            capacity: 24.0,
        };
        let rand_p = random_placement(&nl, &fp, 3).unwrap();
        let seeded = partition_seeded_placement(&nl, &fp, 3).unwrap();
        let gr_rand = GlobalRoute::run(&nl, &fp, &rand_p, cfg);
        let gr_seed = GlobalRoute::run(&nl, &fp, &seeded, cfg);
        assert!(
            gr_seed.total_overflow() <= gr_rand.total_overflow(),
            "seeded {} vs random {}",
            gr_seed.total_overflow(),
            gr_rand.total_overflow()
        );
    }

    #[test]
    fn tighter_capacity_means_more_overflow() {
        let (nl, fp, p) = setup();
        let loose = GlobalRoute::run(
            &nl,
            &fp,
            &p,
            RouteConfig {
                capacity: 1_000.0,
                ..RouteConfig::default()
            },
        );
        let tight = GlobalRoute::run(
            &nl,
            &fp,
            &p,
            RouteConfig {
                capacity: 4.0,
                ..RouteConfig::default()
            },
        );
        assert!(tight.total_overflow() > loose.total_overflow());
        assert_eq!(loose.total_overflow(), 0.0);
    }

    #[test]
    fn deterministic() {
        let (nl, fp, p) = setup();
        let a = GlobalRoute::run(&nl, &fp, &p, RouteConfig::default());
        let b = GlobalRoute::run(&nl, &fp, &p, RouteConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn hot_fraction_bounded() {
        let (nl, fp, p) = setup();
        let gr = GlobalRoute::run(&nl, &fp, &p, RouteConfig::default());
        let h = gr.hot_fraction(0.5);
        assert!((0.0..=1.0).contains(&h));
    }
}
