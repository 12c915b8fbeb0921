//! Golden synthesis-oracle pins: the absolute numbers the downstream flow
//! reports, not a comparison of two code paths.
//!
//! For every Table I design at its own clock, each non-empty stage of the
//! baseline SDC schedule goes through `SynthesisOracle::evaluate`, and the
//! design's per-op characterization goes through
//! `OpDelayModel::all_node_delays`. Every reported `delay_ps`, `aig_depth`,
//! `and_count`, output arrival and node delay is folded by `to_bits()` into
//! one FNV-1a digest per design. The summed `and_count` is pinned in plain
//! text next to it, so a failure shows which way the netlists moved.
//!
//! Any change to lowering, the passes' structure (down to `balance`'s tie
//! order) or STA moves these pins; a pure speedup must leave them alone.

use isdc::core::run_sdc;
use isdc::synth::{DelayOracle, OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;

/// `(design, digest, summed and_count over the SDC stages)`, recorded on
/// the passes as they stood before their strash table, sweep and script
/// were made cheaper.
const PINS: [(&str, u64, usize); 17] = [
    ("ml_core_datapath1", 0xd3c8_8dc6_5b60_6c6c, 791),
    ("ml_core_datapath0_opcode4", 0x007e_d64e_58a8_a9b6, 1705),
    ("rrot", 0x5b3e_5c9e_fad8_1d37, 2922),
    ("ml_core_datapath0_opcode3", 0xe0fb_f1b4_e896_6d37, 1823),
    ("binary_divide", 0x372a_72cc_a7f6_2d63, 1054),
    ("hsv2rgb", 0x0894_5995_1b3a_1a44, 8917),
    ("ml_core_datapath0_opcode0", 0x51b5_3bfc_c1bd_1d68, 2750),
    ("crc32", 0xdd93_4f70_55bb_efe7, 15189),
    ("ml_core_datapath0_opcode1", 0x293e_f0ad_56af_8b75, 5652),
    ("ml_core_datapath0_opcode2", 0xf12f_1b01_a6e7_4fb3, 13024),
    ("ml_core_datapath0_all", 0x8486_0144_9128_47a6, 9725),
    ("ml_core_datapath2", 0x4545_975b_9b3d_0395, 4576),
    ("float32_fast_rsqrt", 0xe7ab_5bbc_cf5b_3ec5, 14968),
    ("video_core_datapath", 0x054f_b126_3e90_97a1, 4001),
    ("internal_datapath", 0x1ed2_4cc2_f8a6_1c41, 2590),
    ("sha256", 0xee39_96fc_da43_2021, 11318),
    ("fpexp_32", 0x6227_85ab_0d56_cc7d, 4590),
];

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn synthesis_oracle_matches_golden_pins_on_table1_sdc_stages() {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let suite = isdc::benchsuite::suite();
    assert_eq!(suite.len(), PINS.len());
    let mut got = Vec::new();
    for b in &suite {
        let mut digest = Digest::new();
        for d in model.all_node_delays(&b.graph) {
            digest.word(d.to_bits());
        }
        let (schedule, _) = run_sdc(&b.graph, &model, b.clock_period_ps).expect("feasible");
        let mut ands = 0;
        for stage in schedule.stages().iter().filter(|s| !s.is_empty()) {
            let report = oracle.evaluate(&b.graph, stage);
            digest.word(report.delay_ps.to_bits());
            digest.word(u64::from(report.aig_depth));
            digest.word(report.and_count as u64);
            for &(id, arrival) in &report.output_arrivals {
                digest.word(id.index() as u64);
                digest.word(arrival.to_bits());
            }
            ands += report.and_count;
        }
        got.push((b.name, digest.0, ands));
    }
    let table: Vec<String> =
        got.iter().map(|(name, d, ands)| format!("    (\"{name}\", {d:#018x}, {ands}),")).collect();
    assert_eq!(got, PINS, "oracle results moved; measured pins:\n{}", table.join("\n"));
}
