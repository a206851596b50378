//! Packing exactness pin: `pack` on the nine paper FF baselines must
//! reproduce, entity for entity, the packing recorded from the historical
//! packer, whose greedy clustering intersected every unclustered logic
//! element's net set with the CLB's for every slot. The packer now keeps
//! shared-net counters instead (`fpga::pack`'s unit tests compare the two
//! loops on random netlists); these rows hold it to the real netlists the
//! Table 2 FF columns are built from.

use romfsm::emb::baseline::ff_netlist;
use romfsm::fpga::pack::pack;
use romfsm::logic::synth::{synthesize, SynthOptions};

/// (benchmark, CLBs, FNV-1a digest of the packed design's debug text)
const EXPECTED: [(&str, usize, u64); 9] = [
    ("prep4", 30, 0xeab9_1079_5466_26a9),
    ("dk16", 16, 0xc5aa_0737_f903_a0eb),
    ("tbk", 296, 0x1057_f244_209a_5a97),
    ("keyb", 65, 0x0610_6218_a7cb_f1a3),
    ("donfile", 13, 0x286a_ae58_eb61_66e7),
    ("sand", 126, 0x20cf_d203_1ae7_134a),
    ("styr", 126, 0x6b88_c6c4_1ae8_daf0),
    ("ex1", 117, 0xfd49_d6c8_be23_c17d),
    ("planet", 121, 0xdbdf_97d8_7c54_78af),
];

#[test]
fn paper_ff_packings_are_pinned() {
    for (name, clbs, digest) in EXPECTED {
        let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
        let synth = synthesize(&stg, SynthOptions::default()).expect("synthesizes");
        let p = pack(&ff_netlist(&synth, false).0);
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}",
            p.clbs, p.brams, p.iobs, p.entity_of_cell
        );
        let got = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (p.clbs.len(), got),
            (clbs, digest),
            "{name}: FF packing moved"
        );
    }
}
