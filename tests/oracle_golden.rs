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
//!
//! The run pins go one layer up: one full ISDC run per design, pinning its
//! final delay matrix entry by entry, its register-bit history and its
//! Eq. 2 emission (`lp/*`) and SSP drain (`drain/*`) counters. A speedup of
//! delay-matrix maintenance or emission must leave them alone too.

use isdc::core::{run_isdc, run_sdc, IsdcConfig};
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

/// `(design, final-matrix digest, register bits of every record,
/// [lp/pairs_scanned, lp/constraints_emitted, lp/pruned],
/// [drain/dijkstras, drain/nodes_settled, drain/paths, drain/flow_pushed])`
/// of one ISDC run per Table I design at its own clock, 1 thread, paper
/// defaults. The digest folds every entry of `IsdcResult::delays`, row by
/// row, by `to_bits()`, with `u64::MAX` for an unconnected pair.
type RunPin = (&'static str, u64, &'static [u64], [u64; 3], [u64; 4]);

#[rustfmt::skip]
const RUN_PINS: [RunPin; 17] = [
    ("ml_core_datapath1", 0xb056_e9fe_6ca7_4bbe, &[24, 24, 24], [34, 3, 12], [0, 68, 13, 107]),
    ("ml_core_datapath0_opcode4", 0xec5b_44cb_9bbc_58e8, &[32, 32, 32], [184, 9, 0], [10, 319, 32, 279]),
    ("rrot", 0x41f9_b315_e048_4ade, &[69, 69, 69], [576, 30, 75], [1, 205, 38, 699]),
    ("ml_core_datapath0_opcode3", 0x8782_011b_e64d_59ed, &[32, 0], [60, 3, 6], [2, 114, 16, 197]),
    ("binary_divide", 0xc29c_a750_fb48_9af3, &[69, 69, 69], [5312, 343, 2392], [31, 2215, 130, 471]),
    ("hsv2rgb", 0xaee7_d949_016b_24b1, &[220, 166, 110, 110, 110], [2223, 160, 1203], [23, 1406, 98, 913]),
    ("ml_core_datapath0_opcode0", 0x199f_e345_3413_4041, &[0], [26, 0, 0], [0, 41, 10, 145]),
    ("crc32", 0x166b_1916_27a7_a855, &[1718, 1601, 1482, 1350, 1323, 1236, 1190, 1130, 1060, 1055, 1046, 1037, 960, 924, 916, 912], [703511, 19203, 504728], [306, 54304, 883, 9425]),
    ("ml_core_datapath0_opcode1", 0x5483_f4fe_5f82_b8ad, &[32, 16, 0], [322, 26, 110], [4, 259, 29, 381]),
    ("ml_core_datapath0_opcode2", 0x9111_3429_c4dd_9e34, &[144, 96, 96, 96], [1565, 149, 449], [22, 1377, 69, 712]),
    ("ml_core_datapath0_all", 0x7875_0111_759a_a8e7, &[113, 97, 97, 97], [1429, 77, 216], [21, 1580, 102, 889]),
    ("ml_core_datapath2", 0x60f7_2350_cba2_541b, &[768, 376, 320, 320, 320], [6491, 1090, 2513], [78, 3802, 140, 1143]),
    ("float32_fast_rsqrt", 0xbbfc_0d45_040f_d80f, &[254, 190, 190, 190], [363, 65, 168], [8, 276, 33, 590]),
    ("video_core_datapath", 0x66e2_a11b_2e3a_1811, &[268, 172, 160, 140, 140, 140], [6094, 1000, 3800], [46, 1530, 131, 1073]),
    ("internal_datapath", 0x7456_2d6e_e9f5_beea, &[280, 275, 275, 275], [38591, 2903, 27749], [37, 8185, 281, 1458]),
    ("sha256", 0x6dbf_f5f0_3d5d_4c12, &[5028, 4788, 4524, 4524, 4524], [199345, 23072, 165126], [113, 20323, 603, 5484]),
    ("fpexp_32", 0x68db_f89b_bec0_aa59, &[124, 76, 64, 56, 56, 56], [1476, 174, 684], [19, 775, 58, 548]),
];

#[test]
fn isdc_runs_match_golden_pins_on_table1() {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut got = Vec::new();
    for b in isdc::benchsuite::suite() {
        let config = IsdcConfig { threads: 1, ..IsdcConfig::paper_defaults(b.clock_period_ps) };
        let result = run_isdc(&b.graph, &model, &oracle, &config).expect("feasible");
        let mut digest = Digest::new();
        for u in b.graph.node_ids() {
            for v in b.graph.node_ids() {
                digest.word(result.delays.get(u, v).map_or(u64::MAX, f64::to_bits));
            }
        }
        let bits: Vec<u64> = result.history.iter().map(|r| r.register_bits).collect();
        let counter = |key: &str| result.metrics.counter(key).unwrap_or_else(|| panic!("{key}"));
        let lp = ["lp/pairs_scanned", "lp/constraints_emitted", "lp/pruned"].map(counter);
        let drain = ["drain/dijkstras", "drain/nodes_settled", "drain/paths", "drain/flow_pushed"]
            .map(counter);
        got.push((b.name, digest.0, bits, lp, drain));
    }
    let table: Vec<String> = got
        .iter()
        .map(|(name, d, bits, lp, drain)| {
            format!("    (\"{name}\", {d:#018x}, &{bits:?}, {lp:?}, {drain:?}),")
        })
        .collect();
    let want: Vec<_> = RUN_PINS
        .iter()
        .map(|&(name, d, bits, lp, drain)| (name, d, bits.to_vec(), lp, drain))
        .collect();
    assert_eq!(got, want, "ISDC runs moved; measured pins:\n{}", table.join("\n"));
}
