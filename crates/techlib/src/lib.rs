//! # isdc-techlib — synthetic technology library
//!
//! A SKY130-flavoured standard-cell library used by the logic-synthesis
//! simulator (`isdc-synth`) for gate-level timing. The paper characterizes op
//! delays and evaluates subgraph feedback with Yosys + OpenSTA against the
//! open-source SKY130 PDK; this crate plays the PDK role with a linear delay
//! model:
//!
//! ```text
//! delay(gate, fanout) = intrinsic(gate) + load_slope(gate) * (fanout - 1)
//! ```
//!
//! Absolute numbers are *inspired by* SKY130 high-density typical-corner
//! datasheet values (tens of picoseconds per stage); they are deliberately
//! simple so experiments are deterministic and portable.
//!
//! # Examples
//!
//! ```
//! use isdc_techlib::{TechLibrary, GateKind};
//!
//! let lib = TechLibrary::sky130();
//! let d1 = lib.gate_delay(GateKind::Nand2, 1);
//! let d4 = lib.gate_delay(GateKind::Nand2, 4);
//! assert!(d4 > d1, "higher fanout means more delay");
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Delay in picoseconds.
pub type Picos = f64;

/// The combinational and sequential cells the mapper may use.
///
/// The AIG-based flow maps onto `{Nand2, Inv}` plus registers, but richer
/// cells are characterized so alternative mappers and the op-delay
/// pre-characterization can use them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer.
    Mux2,
}

impl GateKind {
    /// Every combinational gate kind.
    pub const ALL: [GateKind; 9] = [
        GateKind::Inv,
        GateKind::Buf,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Inv => "inv",
            GateKind::Buf => "buf",
            GateKind::Nand2 => "nand2",
            GateKind::Nor2 => "nor2",
            GateKind::And2 => "and2",
            GateKind::Or2 => "or2",
            GateKind::Xor2 => "xor2",
            GateKind::Xnor2 => "xnor2",
            GateKind::Mux2 => "mux2",
        };
        f.write_str(s)
    }
}

/// Timing and area data for one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellTiming {
    /// Fixed propagation delay in picoseconds at fanout 1.
    pub intrinsic_ps: Picos,
    /// Additional delay per extra fanout, in picoseconds.
    pub load_slope_ps: Picos,
    /// Relative area in library units.
    pub area: f64,
}

/// Sequential (register) characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegisterTiming {
    /// Setup time in picoseconds.
    pub setup_ps: Picos,
    /// Clock-to-Q delay in picoseconds.
    pub clk_to_q_ps: Picos,
    /// Area of a 1-bit register in library units.
    pub area_per_bit: f64,
}

/// A complete technology library: combinational cells plus one register cell.
///
/// Constructed via [`TechLibrary::sky130`] (the default, SKY130-flavoured
/// numbers) or [`TechLibrary::uniform`] (every gate identical — useful for
/// tests where only structure should matter).
#[derive(Clone, Debug, PartialEq)]
pub struct TechLibrary {
    name: String,
    cells: Vec<(GateKind, CellTiming)>,
    register: RegisterTiming,
}

impl TechLibrary {
    /// The SKY130-flavoured default library.
    ///
    /// Relative gate speeds follow the usual CMOS ordering: NAND/NOR fastest,
    /// XOR/XNOR and MUX roughly two simple stages, inverter cheapest.
    pub fn sky130() -> Self {
        let cell = |intrinsic_ps: f64, load_slope_ps: f64, area: f64| CellTiming {
            intrinsic_ps,
            load_slope_ps,
            area,
        };
        Self {
            name: "sky130-like".to_string(),
            cells: vec![
                (GateKind::Inv, cell(22.0, 6.0, 1.0)),
                (GateKind::Buf, cell(38.0, 5.0, 2.0)),
                (GateKind::Nand2, cell(42.0, 8.0, 2.0)),
                (GateKind::Nor2, cell(48.0, 9.0, 2.0)),
                (GateKind::And2, cell(65.0, 8.0, 3.0)),
                (GateKind::Or2, cell(70.0, 8.0, 3.0)),
                (GateKind::Xor2, cell(95.0, 10.0, 4.0)),
                (GateKind::Xnor2, cell(98.0, 10.0, 4.0)),
                (GateKind::Mux2, cell(90.0, 9.0, 4.0)),
            ],
            register: RegisterTiming { setup_ps: 120.0, clk_to_q_ps: 320.0, area_per_bit: 8.0 },
        }
    }

    /// A library in which every combinational cell has identical timing.
    ///
    /// With a uniform library, STA delay is proportional to logic depth,
    /// which makes structural tests deterministic and easy to reason about.
    pub fn uniform(gate_delay_ps: Picos) -> Self {
        let cell = CellTiming { intrinsic_ps: gate_delay_ps, load_slope_ps: 0.0, area: 1.0 };
        Self {
            name: format!("uniform-{gate_delay_ps}ps"),
            cells: GateKind::ALL.iter().map(|&k| (k, cell)).collect(),
            register: RegisterTiming { setup_ps: 0.0, clk_to_q_ps: 0.0, area_per_bit: 1.0 },
        }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Timing data for a gate kind.
    ///
    /// # Panics
    ///
    /// Panics if the library was built without the given kind (cannot happen
    /// for the provided constructors).
    pub fn cell(&self, kind: GateKind) -> CellTiming {
        self.cells
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("library `{}` has no cell {kind}", self.name))
    }

    /// Propagation delay of `kind` driving `fanout` sinks, in picoseconds.
    ///
    /// Fanout 0 (dangling output) is treated as fanout 1. The load model is
    /// linear up to [`Self::MAX_DIRECT_FANOUT`] sinks; beyond that, the
    /// model assumes the synthesizer inserts a buffer tree (as real flows
    /// do), so the penalty grows logarithmically: one buffer level per
    /// doubling, each costing the buffer cell's intrinsic delay plus a full
    /// direct load.
    pub fn gate_delay(&self, kind: GateKind, fanout: usize) -> Picos {
        let t = self.cell(kind);
        let f = fanout.max(1);
        let direct = f.min(Self::MAX_DIRECT_FANOUT).saturating_sub(1) as f64;
        let mut delay = t.intrinsic_ps + t.load_slope_ps * direct;
        if f > Self::MAX_DIRECT_FANOUT {
            let buf = self.cell(GateKind::Buf);
            let levels = ((f as f64) / Self::MAX_DIRECT_FANOUT as f64).log2().ceil();
            delay += levels
                * (buf.intrinsic_ps + buf.load_slope_ps * (Self::MAX_DIRECT_FANOUT - 1) as f64);
        }
        delay
    }

    /// Sinks a cell drives directly before the model assumes buffering.
    pub const MAX_DIRECT_FANOUT: usize = 8;

    /// The register cell characteristics.
    pub fn register(&self) -> RegisterTiming {
        self.register
    }

    /// The clock-period budget available for combinational logic, i.e.
    /// `t_clk - setup - clk_to_q`.
    ///
    /// # Panics
    ///
    /// Panics if the sequential overhead exceeds the clock period.
    pub fn combinational_budget(&self, clock_period_ps: Picos) -> Picos {
        let overhead = self.register.setup_ps + self.register.clk_to_q_ps;
        assert!(
            clock_period_ps > overhead,
            "clock period {clock_period_ps}ps does not cover register overhead {overhead}ps"
        );
        clock_period_ps - overhead
    }
}

/// Process/voltage/temperature corner selector for [`TechLibrary::sky130_corner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Fast-fast, high voltage, low temperature: ~20% faster than typical.
    Fast,
    /// The typical corner ([`TechLibrary::sky130`]).
    Typical,
    /// Slow-slow, low voltage, high temperature: ~35% slower than typical.
    Slow,
}

impl Corner {
    /// The delay derating factor relative to the typical corner.
    pub fn derating(self) -> f64 {
        match self {
            Corner::Fast => 0.8,
            Corner::Typical => 1.0,
            Corner::Slow => 1.35,
        }
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Corner::Fast => "fast",
            Corner::Typical => "typical",
            Corner::Slow => "slow",
        })
    }
}

impl TechLibrary {
    /// The SKY130-flavoured library derated to a PVT corner.
    ///
    /// Signoff flows time against the slow corner; optimistic exploration
    /// can use the fast one. Areas are corner-independent.
    pub fn sky130_corner(corner: Corner) -> Self {
        let mut lib = Self::sky130();
        let k = corner.derating();
        lib.name = format!("sky130-like-{corner}");
        for (_, timing) in &mut lib.cells {
            timing.intrinsic_ps *= k;
            timing.load_slope_ps *= k;
        }
        lib.register.setup_ps *= k;
        lib.register.clk_to_q_ps *= k;
        lib
    }
}

impl Default for TechLibrary {
    fn default() -> Self {
        Self::sky130()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sky130_has_all_cells() {
        let lib = TechLibrary::sky130();
        for kind in GateKind::ALL {
            let t = lib.cell(kind);
            assert!(t.intrinsic_ps > 0.0, "{kind} must have positive delay");
            assert!(t.area > 0.0);
        }
    }

    #[test]
    fn relative_speed_ordering() {
        let lib = TechLibrary::sky130();
        // Inverter is the fastest cell; XOR slower than NAND; register
        // overhead dominates single gates.
        assert!(lib.cell(GateKind::Inv).intrinsic_ps < lib.cell(GateKind::Nand2).intrinsic_ps);
        assert!(lib.cell(GateKind::Nand2).intrinsic_ps < lib.cell(GateKind::Xor2).intrinsic_ps);
        assert!(lib.register().clk_to_q_ps > lib.cell(GateKind::Xor2).intrinsic_ps);
    }

    #[test]
    fn fanout_increases_delay_linearly() {
        let lib = TechLibrary::sky130();
        let d1 = lib.gate_delay(GateKind::Nand2, 1);
        let d2 = lib.gate_delay(GateKind::Nand2, 2);
        let d3 = lib.gate_delay(GateKind::Nand2, 3);
        assert!((d2 - d1 - (d3 - d2)).abs() < 1e-9);
        assert!(d2 > d1);
    }

    #[test]
    fn fanout_zero_equals_fanout_one() {
        let lib = TechLibrary::sky130();
        assert_eq!(lib.gate_delay(GateKind::Inv, 0), lib.gate_delay(GateKind::Inv, 1));
    }

    #[test]
    fn huge_fanout_grows_logarithmically() {
        let lib = TechLibrary::sky130();
        let d8 = lib.gate_delay(GateKind::Nand2, 8);
        let d16 = lib.gate_delay(GateKind::Nand2, 16);
        let d256 = lib.gate_delay(GateKind::Nand2, 256);
        assert!(d16 > d8, "buffer level adds delay");
        // 256 sinks = 5 buffer levels, not 255 direct loads.
        let unbuffered = lib.cell(GateKind::Nand2).intrinsic_ps
            + lib.cell(GateKind::Nand2).load_slope_ps * 255.0;
        assert!(d256 < unbuffered / 2.0, "buffered {d256} vs unbuffered {unbuffered}");
        // Doubling fanout past the cap adds exactly one buffer level.
        let level = lib.gate_delay(GateKind::Nand2, 32) - lib.gate_delay(GateKind::Nand2, 16);
        assert!(level > 0.0);
        assert!(
            (lib.gate_delay(GateKind::Nand2, 64) - lib.gate_delay(GateKind::Nand2, 32) - level)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn uniform_library_is_flat() {
        let lib = TechLibrary::uniform(10.0);
        for kind in GateKind::ALL {
            assert_eq!(lib.gate_delay(kind, 5), 10.0);
        }
        assert_eq!(lib.register().setup_ps, 0.0);
    }

    #[test]
    fn combinational_budget() {
        let lib = TechLibrary::sky130();
        let budget = lib.combinational_budget(2500.0);
        assert!((budget - (2500.0 - 120.0 - 320.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "does not cover register overhead")]
    fn budget_rejects_tiny_period() {
        TechLibrary::sky130().combinational_budget(100.0);
    }

    #[test]
    fn default_is_sky130() {
        assert_eq!(TechLibrary::default(), TechLibrary::sky130());
    }

    #[test]
    fn corners_scale_delays_not_area() {
        let typical = TechLibrary::sky130();
        let slow = TechLibrary::sky130_corner(Corner::Slow);
        let fast = TechLibrary::sky130_corner(Corner::Fast);
        for kind in GateKind::ALL {
            let t = typical.gate_delay(kind, 2);
            assert!(slow.gate_delay(kind, 2) > t, "{kind} slow must be slower");
            assert!(fast.gate_delay(kind, 2) < t, "{kind} fast must be faster");
            assert_eq!(slow.cell(kind).area, typical.cell(kind).area);
        }
        assert!(slow.register().setup_ps > typical.register().setup_ps);
    }

    #[test]
    fn typical_corner_is_the_default_library_timing() {
        let typical = TechLibrary::sky130_corner(Corner::Typical);
        for kind in GateKind::ALL {
            assert_eq!(typical.gate_delay(kind, 3), TechLibrary::sky130().gate_delay(kind, 3));
        }
        assert_eq!(Corner::Slow.to_string(), "slow");
    }
}
