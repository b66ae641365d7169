//! Golden regression tests for the simulator.
//!
//! The simulator is the repo's ground truth: every dataset, trained model,
//! and autotuning result is derived from its kernel runtimes. A silent
//! change to its cost arithmetic would invalidate all of them without
//! failing any behavioural test. This snapshot pins the exact simulated
//! runtime of a spread of kernels (elementwise chains, matmuls,
//! convolutions, reductions, data movement, and tiled variants) to a
//! checked-in JSON file.
//!
//! If a simulator change is *intentional*, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p tpu-sim --test golden
//! ```
//!
//! and commit the updated `golden_runtimes.json` together with the change.

use tpu_hlo::{ConvAttrs, DType, GraphBuilder, Kernel, Shape, TileSize};
use tpu_sim::{kernel_time_ns, TpuConfig};

/// The pinned kernel set: (name, kernel) pairs, all built deterministically.
fn golden_kernels() -> Vec<(String, Kernel)> {
    let mut out: Vec<(String, Kernel)> = Vec::new();
    let mut push = |name: &str, k: Kernel| out.push((name.to_string(), k));

    // Elementwise chains at several sizes and dtypes.
    for &(rows, cols) in &[(64usize, 64usize), (256, 256), (512, 1024)] {
        let mut b = GraphBuilder::new("chain");
        let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        push(
            &format!("chain_tanh_exp_{rows}x{cols}"),
            Kernel::new(b.finish(e)),
        );
    }
    {
        let mut b = GraphBuilder::new("chain_bf16");
        let x = b.parameter("x", Shape::matrix(256, 256), DType::BF16);
        let r = b.relu(x);
        push("relu_bf16_256x256", Kernel::new(b.finish(r)));
    }

    // Matrix multiplies, plain and with a fused epilogue.
    for &n in &[128usize, 256, 512] {
        let mut b = GraphBuilder::new("matmul");
        let x = b.parameter("x", Shape::matrix(n, n), DType::F32);
        let w = b.parameter("w", Shape::matrix(n, n), DType::F32);
        let d = b.dot(x, w);
        push(&format!("dot_{n}x{n}"), Kernel::new(b.finish(d)));
    }
    {
        let mut b = GraphBuilder::new("matmul_relu");
        let x = b.parameter("x", Shape::matrix(256, 512), DType::F32);
        let w = b.parameter("w", Shape::matrix(512, 128), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        push("dot_relu_256x512x128", Kernel::new(b.finish(r)));
    }

    // Convolutions (SAME-padded 3x3 and strided 5x5).
    {
        let mut b = GraphBuilder::new("conv3");
        let x = b.parameter("x", Shape::new(vec![1, 28, 28, 32]), DType::F32);
        let f = b.parameter("f", Shape::new(vec![3, 3, 32, 64]), DType::F32);
        let c = b.convolution(x, f, ConvAttrs::same(3));
        push("conv3x3_28x28x32to64", Kernel::new(b.finish(c)));
    }
    {
        let mut b = GraphBuilder::new("conv5");
        let x = b.parameter("x", Shape::new(vec![1, 56, 56, 16]), DType::F32);
        let f = b.parameter("f", Shape::new(vec![5, 5, 16, 32]), DType::F32);
        let mut attrs = ConvAttrs::same(5);
        attrs.stride_h = 2;
        attrs.stride_w = 2;
        let c = b.convolution(x, f, attrs);
        push("conv5x5s2_56x56x16to32", Kernel::new(b.finish(c)));
    }

    // Reductions and normalization-style fusions.
    for &dim in &[0usize, 1] {
        let mut b = GraphBuilder::new("reduce");
        let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
        let r = b.reduce(x, vec![dim]);
        push(
            &format!("reduce_dim{dim}_512x512"),
            Kernel::new(b.finish(r)),
        );
    }
    {
        let mut b = GraphBuilder::new("softmax");
        let x = b.parameter("x", Shape::matrix(128, 1024), DType::F32);
        let s = b.softmax(x);
        push("softmax_128x1024", Kernel::new(b.finish(s)));
    }
    {
        let mut b = GraphBuilder::new("layer_norm");
        let x = b.parameter("x", Shape::matrix(64, 768), DType::F32);
        let s = b.layer_norm(x);
        push("layer_norm_64x768", Kernel::new(b.finish(s)));
    }

    // Data movement: transpose, concat, slice, broadcast.
    {
        let mut b = GraphBuilder::new("transpose");
        let x = b.parameter("x", Shape::matrix(512, 256), DType::F32);
        let t = b.transpose(x, vec![1, 0]);
        push("transpose_512x256", Kernel::new(b.finish(t)));
    }
    {
        let mut b = GraphBuilder::new("concat");
        let x = b.parameter("x", Shape::matrix(128, 256), DType::F32);
        let y = b.parameter("y", Shape::matrix(128, 256), DType::F32);
        let c = b.concatenate(&[x, y], 0);
        push("concat_dim0_2x128x256", Kernel::new(b.finish(c)));
    }
    {
        let mut b = GraphBuilder::new("slice");
        let x = b.parameter("x", Shape::matrix(1024, 1024), DType::F32);
        let s = b.slice_dim(x, 0, 128, 384);
        push("slice_rows_128to384", Kernel::new(b.finish(s)));
    }
    {
        let mut b = GraphBuilder::new("broadcast");
        let x = b.parameter("x", Shape::new(vec![256]), DType::F32);
        let y = b.broadcast(x, Shape::matrix(512, 256), vec![1]);
        push("broadcast_256_to_512x256", Kernel::new(b.finish(y)));
    }

    // The same computation at different tile sizes must snapshot
    // differently (tile-dependent cost is what the tile task learns).
    for &tile in &[16usize, 64, 128] {
        let mut b = GraphBuilder::new("tiled");
        let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
        let t = b.tanh(x);
        push(
            &format!("tanh_512x512_tile{tile}x64"),
            Kernel::new(b.finish(t)).with_tile(TileSize(vec![tile, 64])),
        );
    }

    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_runtimes.json")
}

fn simulate() -> Vec<(String, f64)> {
    let cfg = TpuConfig::default();
    golden_kernels()
        .into_iter()
        .map(|(name, k)| (name, kernel_time_ns(&k, &cfg)))
        .collect()
}

fn render(entries: &[(String, f64)]) -> String {
    // Stable hand-rendered JSON (one "name": ns per line); `{}` formatting
    // of an f64 round-trips exactly.
    let mut s = String::from("{\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("  \"{name}\": {ns}{comma}\n"));
    }
    s.push_str("}\n");
    s
}

#[test]
fn simulated_runtimes_match_golden_snapshot() {
    let entries = simulate();
    let path = golden_path();

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, render(&entries)).expect("write golden file");
        println!("regenerated {}", path.display());
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden: std::collections::HashMap<String, f64> =
        serde_json::from_str(&raw).expect("parse golden file");

    assert_eq!(
        golden.len(),
        entries.len(),
        "golden file and kernel set disagree; regenerate with REGEN_GOLDEN=1"
    );
    for (name, ns) in &entries {
        let expect = golden.get(name).unwrap_or_else(|| {
            panic!("kernel {name} missing from golden file; regenerate with REGEN_GOLDEN=1")
        });
        assert!(
            ns == expect,
            "simulated runtime changed for {name}: golden {expect} ns, now {ns} ns.\n\
             If intentional, regenerate with REGEN_GOLDEN=1 and commit the diff."
        );
    }
}

#[test]
fn golden_kernel_set_is_diverse_and_positive() {
    let entries = simulate();
    assert!(
        entries.len() >= 20,
        "want ~20 kernels, have {}",
        entries.len()
    );
    for (name, ns) in &entries {
        assert!(ns.is_finite() && *ns > 0.0, "{name}: bad runtime {ns}");
    }
    // Tiled variants must not collapse to one cost.
    let tiled: Vec<f64> = entries
        .iter()
        .filter(|(n, _)| n.starts_with("tanh_512x512_tile"))
        .map(|(_, ns)| *ns)
        .collect();
    assert!(
        tiled.windows(2).any(|w| w[0] != w[1]),
        "tile size should affect simulated cost: {tiled:?}"
    );
}
