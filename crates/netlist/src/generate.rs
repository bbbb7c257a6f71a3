//! Seeded synthetic design generation per "design driver class".
//!
//! Paper §5(2) proposes measuring progress against distinct design driver
//! classes (RF, GPU, CPU, DSP, NOC, PHY). We generate layered random logic
//! whose structural statistics (logic depth, flop ratio, fanout tail, mix of
//! cell kinds, locality) differ per class, so downstream tools see
//! class-dependent behaviour. The default CPU preset at ~20k instances
//! stands in for the paper's PULPino RISC-V testcase.

use crate::cell::{CellKind, LibCell};
use crate::graph::{NetId, Netlist, NetlistBuilder};
use crate::NetlistError;

/// Simple xorshift64* RNG so generation is deterministic without pulling a
/// dependency into hot construction paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed.max(1) }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f64 in [0, 1).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in 0..n (n > 0).
    pub(crate) fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper's design driver classes (§5(2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DesignClass {
    /// Control-dominated processor core (PULPino-like).
    Cpu,
    /// Arithmetic-heavy datapath.
    Dsp,
    /// Shallow, fanout-heavy interconnect fabric.
    Noc,
    /// Wide replicated compute arrays.
    Gpu,
    /// Mixed-signal-adjacent, small and buffer-rich.
    Phy,
    /// Small RF-adjacent control logic.
    Rf,
}

impl DesignClass {
    /// All classes, in a stable order.
    pub const ALL: [DesignClass; 6] = [
        DesignClass::Cpu,
        DesignClass::Dsp,
        DesignClass::Noc,
        DesignClass::Gpu,
        DesignClass::Phy,
        DesignClass::Rf,
    ];

    /// Target combinational depth between flop stages.
    fn logic_depth(self) -> usize {
        match self {
            DesignClass::Cpu => 14,
            DesignClass::Dsp => 22,
            DesignClass::Noc => 6,
            DesignClass::Gpu => 10,
            DesignClass::Phy => 5,
            DesignClass::Rf => 8,
        }
    }

    /// Fraction of instances that are flops.
    fn flop_ratio(self) -> f64 {
        match self {
            DesignClass::Cpu => 0.16,
            DesignClass::Dsp => 0.10,
            DesignClass::Noc => 0.25,
            DesignClass::Gpu => 0.14,
            DesignClass::Phy => 0.30,
            DesignClass::Rf => 0.20,
        }
    }

    /// Locality of connections: probability a gate input comes from the
    /// immediately preceding layer (vs a uniformly random earlier layer).
    /// Higher locality ⇒ lower Rent exponent.
    fn locality(self) -> f64 {
        match self {
            DesignClass::Cpu => 0.75,
            DesignClass::Dsp => 0.88,
            DesignClass::Noc => 0.45,
            DesignClass::Gpu => 0.80,
            DesignClass::Phy => 0.85,
            DesignClass::Rf => 0.70,
        }
    }

    /// Weighted combinational cell-kind mix `(kind, weight)`.
    fn kind_mix(self) -> &'static [(CellKind, f64)] {
        match self {
            DesignClass::Cpu => &[
                (CellKind::Nand2, 0.22),
                (CellKind::Nor2, 0.14),
                (CellKind::Inv, 0.18),
                (CellKind::And2, 0.10),
                (CellKind::Or2, 0.08),
                (CellKind::Xor2, 0.06),
                (CellKind::Mux2, 0.12),
                (CellKind::Aoi21, 0.08),
                (CellKind::Buf, 0.02),
            ],
            DesignClass::Dsp => &[
                (CellKind::Xor2, 0.24),
                (CellKind::And2, 0.16),
                (CellKind::Nand2, 0.16),
                (CellKind::Or2, 0.08),
                (CellKind::Inv, 0.12),
                (CellKind::Mux2, 0.10),
                (CellKind::Aoi21, 0.12),
                (CellKind::Buf, 0.02),
            ],
            DesignClass::Noc => &[
                (CellKind::Mux2, 0.30),
                (CellKind::Buf, 0.14),
                (CellKind::Inv, 0.14),
                (CellKind::Nand2, 0.16),
                (CellKind::Nor2, 0.10),
                (CellKind::And2, 0.08),
                (CellKind::Or2, 0.08),
            ],
            DesignClass::Gpu => &[
                (CellKind::Nand2, 0.20),
                (CellKind::And2, 0.14),
                (CellKind::Xor2, 0.14),
                (CellKind::Inv, 0.16),
                (CellKind::Mux2, 0.14),
                (CellKind::Aoi21, 0.12),
                (CellKind::Nor2, 0.10),
            ],
            DesignClass::Phy => &[
                (CellKind::Buf, 0.30),
                (CellKind::Inv, 0.25),
                (CellKind::Nand2, 0.15),
                (CellKind::Mux2, 0.15),
                (CellKind::And2, 0.15),
            ],
            DesignClass::Rf => &[
                (CellKind::Inv, 0.25),
                (CellKind::Nand2, 0.25),
                (CellKind::Nor2, 0.20),
                (CellKind::Buf, 0.15),
                (CellKind::And2, 0.15),
            ],
        }
    }
}

impl std::fmt::Display for DesignClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DesignClass::Cpu => "CPU",
            DesignClass::Dsp => "DSP",
            DesignClass::Noc => "NOC",
            DesignClass::Gpu => "GPU",
            DesignClass::Phy => "PHY",
            DesignClass::Rf => "RF",
        };
        f.write_str(s)
    }
}

/// A specification for synthetic design generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignSpec {
    /// Design driver class.
    pub class: DesignClass,
    /// Approximate instance count.
    pub instances: usize,
}

impl DesignSpec {
    /// Creates a spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidParameter`] if `instances < 32`.
    pub fn new(class: DesignClass, instances: usize) -> Result<Self, NetlistError> {
        if instances < 32 {
            return Err(NetlistError::InvalidParameter {
                name: "instances",
                detail: format!("need at least 32 instances, got {instances}"),
            });
        }
        Ok(Self { class, instances })
    }

    /// Generates the netlist deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Never panics for a spec built via [`DesignSpec::new`].
    #[must_use]
    pub fn generate(&self, seed: u64) -> Netlist {
        let mut rng = XorShift64::new(seed ^ 0xD1E5_16E5_EED5_0001);
        let mut b = NetlistBuilder::new(&format!("{}_{}", self.class, self.instances));
        let n_pi = (self.instances as f64).sqrt().ceil() as usize * 2;
        let pis: Vec<NetId> = (0..n_pi).map(|_| b.add_primary_input()).collect();

        let depth = self.class.logic_depth();
        let flop_ratio = self.class.flop_ratio();
        let locality = self.class.locality();
        let mix = self.class.kind_mix();
        let total_w: f64 = mix.iter().map(|(_, w)| w).sum();

        // Layered construction: layer 0 = primary inputs; each later layer
        // draws inputs from the previous layer with probability `locality`,
        // else from a random earlier layer (long connection).
        let mut layers: Vec<Vec<NetId>> = vec![pis];
        let n_comb = ((self.instances as f64) * (1.0 - flop_ratio)) as usize;
        let n_flops = self.instances - n_comb;
        let per_layer = (n_comb / depth).max(1);

        let mut built = 0usize;
        while built < n_comb {
            let width = per_layer.min(n_comb - built);
            let mut layer = Vec::with_capacity(width);
            for _ in 0..width {
                // Pick a kind by weight.
                let mut t = rng.next_f64() * total_w;
                let mut kind = mix[0].0;
                for &(k, w) in mix {
                    if t < w {
                        kind = k;
                        break;
                    }
                    t -= w;
                }
                let inputs: Vec<NetId> = (0..kind.input_count())
                    .map(|_| {
                        let src_layer = if rng.next_f64() < locality || layers.len() == 1 {
                            layers.len() - 1
                        } else {
                            rng.index(layers.len().saturating_sub(1))
                        };
                        let l = &layers[src_layer];
                        l[rng.index(l.len())]
                    })
                    .collect();
                let out = b
                    .add_instance(LibCell::unit(kind), &inputs)
                    .expect("generator produces valid arity");
                layer.push(out);
            }
            built += width;
            layers.push(layer);
            // Reset to a flop boundary when depth reached: handled below by
            // flop insertion which samples from the deepest layers.
        }

        // Flops capture signals from the deepest layers; their outputs are
        // primary outputs of the generated block (register boundary).
        let deepest: Vec<NetId> = layers
            .iter()
            .rev()
            .take(3)
            .flat_map(|l| l.iter().copied())
            .collect();
        for _ in 0..n_flops {
            let d = deepest[rng.index(deepest.len())];
            let q = b
                .add_instance(LibCell::unit(CellKind::Dff), &[d])
                .expect("dff arity is 1");
            if rng.next_f64() < 0.5 {
                b.mark_primary_output(q);
            }
        }
        b.finish().expect("layered generation is acyclic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DesignSpec::new(DesignClass::Cpu, 500).unwrap();
        let a = spec.generate(42);
        let b = spec.generate(42);
        assert_eq!(a.instance_count(), b.instance_count());
        assert_eq!(a.net_count(), b.net_count());
        assert_eq!(a.total_area_um2(), b.total_area_um2());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DesignSpec::new(DesignClass::Cpu, 500).unwrap();
        let a = spec.generate(1);
        let b = spec.generate(2);
        // Same instance count by construction, but different wiring.
        assert_eq!(a.instance_count(), b.instance_count());
        assert_ne!(a.fanouts(), b.fanouts());
    }

    #[test]
    fn instance_count_is_close_to_spec() {
        for &n in &[100usize, 1000, 5000] {
            let spec = DesignSpec::new(DesignClass::Dsp, n).unwrap();
            let nl = spec.generate(7);
            let got = nl.instance_count();
            assert!(
                got >= n * 95 / 100 && got <= n * 105 / 100,
                "asked {n}, got {got}"
            );
        }
    }

    #[test]
    fn flop_ratio_tracks_class() {
        let noc = DesignSpec::new(DesignClass::Noc, 2000).unwrap().generate(3);
        let dsp = DesignSpec::new(DesignClass::Dsp, 2000).unwrap().generate(3);
        let noc_ratio = noc.flop_count() as f64 / noc.instance_count() as f64;
        let dsp_ratio = dsp.flop_count() as f64 / dsp.instance_count() as f64;
        assert!(noc_ratio > dsp_ratio, "NOC {noc_ratio} vs DSP {dsp_ratio}");
    }

    #[test]
    fn all_classes_generate_valid_netlists() {
        for class in DesignClass::ALL {
            let nl = DesignSpec::new(class, 300).unwrap().generate(9);
            assert!(nl.instance_count() > 0, "{class} generated empty netlist");
            assert_eq!(nl.topo_order().len(), nl.instance_count());
        }
    }

    #[test]
    fn rejects_tiny_specs() {
        assert!(DesignSpec::new(DesignClass::Cpu, 10).is_err());
    }
}
