//! The bits of every benchmark gradient, pinned.
//!
//! One FNV-1a hash over `to_bits` of the output value and of every gradient
//! (in the order of their names) per program: the fifteen NPBench kernels
//! and Listing-1 (N = 96) at the bench preset, under store-all and under
//! recompute-all, which must agree.  A change that moves any bit of any of
//! them fails here and has to say so in its diff, by updating the table.
//!
//! The benchmark programs call no host libm function below `trig.rs`'s
//! reduction bound and the GEMM uses no FMA, so the hashes are the same on
//! every x86-64 host and at every vector width (CI runs this file again in
//! a build with AVX2 enabled).

use std::collections::HashMap;

use dace_ad_repro::npbench::{all_kernels, listing1, Preset};
use dace_ad_repro::prelude::*;

/// The hash of each program's output and gradients.
const PINNED: [(&str, u64); 16] = [
    ("atax", 0xE989_6012_AFCD_4945),
    ("bicg", 0x0935_20CD_553C_4CAA),
    ("gemm", 0x0008_28BA_1455_072B),
    ("gesummv", 0x24EA_7DAB_1039_37A4),
    ("k2mm", 0xBA1D_FEC3_CA4B_B557),
    ("k3mm", 0x5DF4_DB36_8B64_D1D3),
    ("mvt", 0x2F59_872A_DF27_D819),
    ("mlp", 0x3AC0_1A58_D755_44B0),
    ("jacobi1d", 0xA10F_56B4_1402_393D),
    ("seidel2d", 0x4CED_33A1_29C8_D91A),
    ("jacobi2d", 0x25E0_36F6_1D59_3310),
    ("syrk", 0x6FEE_8342_E896_1861),
    ("syr2k", 0xA8E4_CFD8_C0B4_4FF7),
    ("trmm", 0x538A_5604_773E_EE2D),
    ("conv2d", 0xBA6F_2A12_4AD4_5EF7),
    ("listing1", 0xC802_C80B_C82E_D51E),
];

fn fnv1a(hash: u64, value: f64) -> u64 {
    (hash ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
}

fn gradient_hash(
    fwd: &Sdfg,
    wrt: &[&str],
    symbols: &HashMap<String, i64>,
    inputs: &HashMap<String, Tensor>,
    strategy: CheckpointStrategy,
) -> u64 {
    let options = AdOptions { strategy };
    let mut engine = GradientEngine::new(fwd, "OUT", wrt, symbols, &options).unwrap();
    let result = engine.run(inputs).unwrap();
    let values = result.gradients.values().flat_map(|g| g.data().iter());
    std::iter::once(&result.output_value)
        .chain(values)
        .fold(0xCBF2_9CE4_8422_2325, |hash, v| fnv1a(hash, *v))
}

#[test]
fn every_benchmark_gradient_keeps_its_bits() {
    let n = 96usize;
    let fill = |seed: f64| {
        let data = (0..n * n).map(|k| (k as f64 * 0.37 + seed).sin());
        Tensor::from_vec(data.collect(), &[n, n]).unwrap()
    };
    let mut cases = vec![(
        "listing1",
        listing1(),
        vec!["C", "D"],
        HashMap::from([("N".to_string(), n as i64)]),
        HashMap::from([("C".to_string(), fill(0.1)), ("D".to_string(), fill(2.3))]),
    )];
    for kernel in all_kernels() {
        let sizes = kernel.sizes(Preset::Bench);
        cases.push((
            kernel.name(),
            kernel.build_dace(&sizes),
            kernel.wrt(),
            kernel.symbols(&sizes),
            kernel.inputs(&sizes),
        ));
    }
    assert_eq!(cases.len(), PINNED.len());
    let mut moved = Vec::new();
    for (name, fwd, wrt, symbols, inputs) in &cases {
        let hash = |strategy| gradient_hash(fwd, wrt, symbols, inputs, strategy);
        let store_all = hash(CheckpointStrategy::StoreAll);
        let recompute_all = hash(CheckpointStrategy::RecomputeAll);
        assert_eq!(store_all, recompute_all, "{name}: the strategies disagree");
        let pinned = PINNED.iter().find(|(p, _)| p == name).map(|(_, h)| *h);
        if pinned != Some(store_all) {
            moved.push(format!("(\"{name}\", {store_all:#018x})"));
        }
    }
    assert!(moved.is_empty(), "moved: {}", moved.join(", "));
}
