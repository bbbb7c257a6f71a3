//! The timing graph and the fast graph-based (GBA) engine.
//!
//! GBA makes one topological pass, propagating worst arrival times. Like a
//! P&R tool's internal timer it is cheap but approximate: it applies a
//! uniform slew-pessimism factor to every stage and ignores signal
//! integrity entirely. The signoff engine in [`crate::pba`] removes the
//! pessimism path-by-path and adds SI pushout — the two therefore
//! *miscorrelate* exactly the way the paper's §3.2 describes.

use crate::model::{Constraints, Corner, WireModel};
use crate::TimingError;
use ideaflow_netlist::graph::{Driver, InstId, NetId, Netlist};

/// Uniform slew-pessimism multiplier GBA applies to cell delays.
pub const GBA_SLEW_PESSIMISM: f64 = 1.08;

/// A timing endpoint: where setup checks happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The D pin of a flop.
    FlopD(InstId),
    /// A primary output net.
    PrimaryOutput(NetId),
}

/// The timing graph: a netlist plus electrical annotations.
#[derive(Debug, Clone)]
pub struct TimingGraph<'a> {
    netlist: &'a Netlist,
    wire: WireModel,
    /// Estimated (or placement-derived) length per net, um.
    net_length: Vec<f64>,
    /// Total load per net: sink input caps + wire cap.
    load: Vec<f64>,
    /// Whether each net is subject to SI coupling (set by [`crate::si`]).
    coupled: Vec<bool>,
}

impl<'a> TimingGraph<'a> {
    /// Builds the graph with fanout-estimated net lengths.
    #[must_use]
    pub fn build(netlist: &'a Netlist, wire: WireModel) -> Self {
        let lengths: Vec<f64> = netlist
            .nets()
            .iter()
            .map(|n| wire.estimated_length_um(n.sinks.len()))
            .collect();
        Self::build_with_lengths(netlist, wire, lengths)
    }

    /// Builds the graph with explicit per-net lengths (e.g. HPWL from a
    /// placement).
    ///
    /// # Panics
    ///
    /// Panics if `lengths.len() != netlist.net_count()`.
    #[must_use]
    pub fn build_with_lengths(netlist: &'a Netlist, wire: WireModel, lengths: Vec<f64>) -> Self {
        assert_eq!(
            lengths.len(),
            netlist.net_count(),
            "one length per net required"
        );
        let load: Vec<f64> = netlist
            .nets()
            .iter()
            .zip(&lengths)
            .map(|(n, &len)| {
                let sink_cap: f64 = n
                    .sinks
                    .iter()
                    .map(|&s| netlist.instance(s).cell.input_cap())
                    .sum();
                sink_cap + wire.wire_cap(len)
            })
            .collect();
        Self {
            netlist,
            wire,
            net_length: lengths,
            load,
            coupled: vec![false; netlist.net_count()],
        }
    }

    /// Marks the set of SI-coupled nets.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the net count.
    pub fn set_coupled(&mut self, coupled: Vec<bool>) {
        assert_eq!(coupled.len(), self.netlist.net_count());
        self.coupled = coupled;
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Per-net length (um).
    #[must_use]
    pub fn net_length(&self, net: NetId) -> f64 {
        self.net_length[net.0 as usize]
    }

    /// Per-net load (unit caps).
    #[must_use]
    pub fn net_load(&self, net: NetId) -> f64 {
        self.load[net.0 as usize]
    }

    /// Whether a net is SI-coupled.
    #[must_use]
    pub fn is_coupled(&self, net: NetId) -> bool {
        self.coupled[net.0 as usize]
    }

    /// GBA stage delay for an instance at a corner (cell + slew pessimism).
    #[must_use]
    pub fn gba_cell_delay_ps(&self, inst: InstId, corner: Corner) -> f64 {
        let i = self.netlist.instance(inst);
        i.cell.delay_ps(self.net_load(i.output)) * GBA_SLEW_PESSIMISM * corner.cell_derate
    }

    /// GBA wire delay for a net at a corner (SI-blind).
    #[must_use]
    pub fn gba_wire_delay_ps(&self, net: NetId, corner: Corner) -> f64 {
        self.wire.wire_delay_ps(self.net_length(net)) * corner.wire_derate
    }

    /// All timing endpoints.
    #[must_use]
    pub fn endpoints(&self) -> Vec<Endpoint> {
        let mut eps: Vec<Endpoint> = self
            .netlist
            .sequential_instances()
            .map(Endpoint::FlopD)
            .collect();
        for (i, n) in self.netlist.nets().iter().enumerate() {
            if n.is_primary_output {
                eps.push(Endpoint::PrimaryOutput(NetId(i as u32)));
            }
        }
        eps
    }
}

/// Result of a graph-based analysis pass.
#[derive(Debug, Clone)]
pub struct GbaReport {
    /// Arrival time at each net's driver pin, ps.
    pub arrival: Vec<f64>,
    /// For each instance, the index (into its inputs) of the arrival-
    /// determining pin — the backpointer PBA retraces.
    pub critical_input: Vec<Option<usize>>,
    /// Setup slack per endpoint, ps.
    pub endpoint_slacks: Vec<(Endpoint, f64)>,
    /// Worst negative slack (most negative endpoint slack; positive if all
    /// endpoints meet timing), ps.
    pub wns_ps: f64,
    /// Total negative slack (sum of negative endpoint slacks), ps.
    pub tns_ps: f64,
    /// Arc evaluations performed — the deterministic runtime proxy.
    pub arcs_evaluated: usize,
}

impl GbaReport {
    /// Whether every endpoint meets timing.
    #[must_use]
    pub fn meets_timing(&self) -> bool {
        self.wns_ps >= 0.0
    }

    /// Slack of a given endpoint, if present.
    #[must_use]
    pub fn slack_of(&self, ep: Endpoint) -> Option<f64> {
        self.endpoint_slacks
            .iter()
            .find(|(e, _)| *e == ep)
            .map(|(_, s)| *s)
    }
}

/// Runs graph-based analysis at one corner.
///
/// # Errors
///
/// Returns [`TimingError::NoEndpoints`] if the netlist has neither flops
/// nor primary outputs.
pub fn gba(
    graph: &TimingGraph<'_>,
    constraints: &Constraints,
    corner: Corner,
) -> Result<GbaReport, TimingError> {
    let nl = graph.netlist();
    let nets = nl.net_count();
    let mut arrival = vec![0.0f64; nets];
    let mut critical_input = vec![None; nl.instance_count()];
    let mut arcs = 0usize;

    // Startpoint arrivals.
    for (i, n) in nl.nets().iter().enumerate() {
        match n.driver {
            Driver::PrimaryInput(_) => arrival[i] = constraints.input_delay_ps,
            Driver::Instance(id) if nl.instance(id).cell.kind.is_sequential() => {
                arrival[i] = constraints.clk_to_q_ps * corner.cell_derate;
            }
            Driver::Instance(_) => {}
        }
    }

    // Topological propagation through combinational instances.
    for &iid in nl.topo_order() {
        let inst = nl.instance(iid);
        if inst.cell.kind.is_sequential() {
            continue;
        }
        let mut worst = f64::NEG_INFINITY;
        let mut worst_pin = 0usize;
        for (pin, &input) in inst.inputs.iter().enumerate() {
            let a = arrival[input.0 as usize] + graph.gba_wire_delay_ps(input, corner);
            arcs += 1;
            if a > worst {
                worst = a;
                worst_pin = pin;
            }
        }
        critical_input[iid.0 as usize] = Some(worst_pin);
        arrival[inst.output.0 as usize] = worst + graph.gba_cell_delay_ps(iid, corner);
    }

    // Endpoint slacks.
    let endpoints = graph.endpoints();
    if endpoints.is_empty() {
        return Err(TimingError::NoEndpoints);
    }
    let mut endpoint_slacks = Vec::with_capacity(endpoints.len());
    let mut wns = f64::INFINITY;
    let mut tns = 0.0;
    for ep in endpoints {
        let at = match ep {
            Endpoint::FlopD(id) => {
                let d_net = nl.instance(id).inputs[0];
                arrival[d_net.0 as usize]
                    + graph.gba_wire_delay_ps(d_net, corner)
                    + constraints.setup_ps
            }
            Endpoint::PrimaryOutput(net) => {
                arrival[net.0 as usize] + graph.gba_wire_delay_ps(net, corner)
            }
        };
        let slack = constraints.clock_period_ps - at;
        wns = wns.min(slack);
        if slack < 0.0 {
            tns += slack;
        }
        endpoint_slacks.push((ep, slack));
    }
    Ok(GbaReport {
        arrival,
        critical_input,
        endpoint_slacks,
        wns_ps: wns,
        tns_ps: tns,
        arcs_evaluated: arcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_netlist::cell::{CellKind, LibCell};
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};
    use ideaflow_netlist::graph::NetlistBuilder;

    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.add_primary_input();
        for _ in 0..n {
            net = b
                .add_instance(LibCell::unit(CellKind::Inv), &[net])
                .unwrap();
        }
        let q = b
            .add_instance(LibCell::unit(CellKind::Dff), &[net])
            .unwrap();
        b.mark_primary_output(q);
        b.finish().unwrap()
    }

    #[test]
    fn longer_chains_have_less_slack() {
        let wire = WireModel::default();
        let cons = Constraints::at_frequency_ghz(1.0).unwrap();
        let short = chain(4);
        let long = chain(16);
        let g_short = TimingGraph::build(&short, wire);
        let g_long = TimingGraph::build(&long, wire);
        let s = gba(&g_short, &cons, Corner::TYPICAL).unwrap();
        let l = gba(&g_long, &cons, Corner::TYPICAL).unwrap();
        assert!(l.wns_ps < s.wns_ps);
    }

    #[test]
    fn slow_corner_is_slower() {
        let nl = chain(10);
        let g = TimingGraph::build(&nl, WireModel::default());
        let cons = Constraints::at_frequency_ghz(1.0).unwrap();
        let tt = gba(&g, &cons, Corner::TYPICAL).unwrap();
        let ss = gba(&g, &cons, Corner::SLOW).unwrap();
        let ff = gba(&g, &cons, Corner::FAST).unwrap();
        assert!(ss.wns_ps < tt.wns_ps);
        assert!(ff.wns_ps > tt.wns_ps);
    }

    #[test]
    fn impossible_frequency_fails_timing() {
        let nl = chain(20);
        let g = TimingGraph::build(&nl, WireModel::default());
        let fast = Constraints::at_frequency_ghz(10.0).unwrap();
        let r = gba(&g, &fast, Corner::TYPICAL).unwrap();
        assert!(!r.meets_timing());
        assert!(r.tns_ps < 0.0);
        let slow = Constraints::at_frequency_ghz(0.05).unwrap();
        let r2 = gba(&g, &slow, Corner::TYPICAL).unwrap();
        assert!(r2.meets_timing());
        assert_eq!(r2.tns_ps, 0.0);
    }

    #[test]
    fn generated_design_analyzes() {
        let nl = DesignSpec::new(DesignClass::Cpu, 500).unwrap().generate(3);
        let g = TimingGraph::build(&nl, WireModel::default());
        let cons = Constraints::at_frequency_ghz(0.8).unwrap();
        let r = gba(&g, &cons, Corner::TYPICAL).unwrap();
        assert!(!r.endpoint_slacks.is_empty());
        assert!(r.arcs_evaluated > 0);
        // WNS must equal the min endpoint slack.
        let min = r
            .endpoint_slacks
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, r.wns_ps);
    }

    #[test]
    fn no_endpoints_is_an_error() {
        let mut b = NetlistBuilder::new("open");
        let a = b.add_primary_input();
        let _ = b.add_instance(LibCell::unit(CellKind::Inv), &[a]).unwrap();
        let nl = b.finish().unwrap();
        let g = TimingGraph::build(&nl, WireModel::default());
        let cons = Constraints::at_frequency_ghz(1.0).unwrap();
        assert_eq!(
            gba(&g, &cons, Corner::TYPICAL).unwrap_err(),
            TimingError::NoEndpoints
        );
    }

    #[test]
    fn backpointers_cover_combinational_instances() {
        let nl = DesignSpec::new(DesignClass::Dsp, 300).unwrap().generate(2);
        let g = TimingGraph::build(&nl, WireModel::default());
        let cons = Constraints::at_frequency_ghz(0.8).unwrap();
        let r = gba(&g, &cons, Corner::TYPICAL).unwrap();
        for (i, inst) in nl.instances().iter().enumerate() {
            if inst.cell.kind.is_sequential() {
                assert!(r.critical_input[i].is_none());
            } else {
                let pin = r.critical_input[i].expect("comb instance has critical pin");
                assert!(pin < inst.inputs.len());
            }
        }
    }

    #[test]
    fn explicit_lengths_override_estimates() {
        let nl = chain(5);
        let wire = WireModel::default();
        let long_lengths = vec![100.0; nl.net_count()];
        let g_long = TimingGraph::build_with_lengths(&nl, wire, long_lengths);
        let g_est = TimingGraph::build(&nl, wire);
        let cons = Constraints::at_frequency_ghz(1.0).unwrap();
        let r_long = gba(&g_long, &cons, Corner::TYPICAL).unwrap();
        let r_est = gba(&g_est, &cons, Corner::TYPICAL).unwrap();
        assert!(r_long.wns_ps < r_est.wns_ps);
    }
}
