//! Quickstart: build a tensor program, fuse it, predict kernel runtimes
//! with the learned model, and compare against the hardware simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tpu_repro::fusion::{apply_fusion, default_space_and_config};
use tpu_repro::hlo::{DType, GraphBuilder, Program, Shape};
use tpu_repro::learned::{CostModel, GnnConfig, GnnModel};
use tpu_repro::sim::{TpuConfig, TpuDevice};

fn main() {
    // 1. Build a small tensor program with the shape-inferring builder:
    //    a dense layer followed by a softmax, like one step of an MLP.
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 512), DType::F32);
    let w = b.parameter("w", Shape::matrix(512, 1024), DType::F32);
    let bias = b.parameter("bias", Shape::vector(1024), DType::F32);
    let h = b.dot(x, w);
    let bb = b.broadcast(bias, Shape::matrix(256, 1024), vec![1]);
    let z = b.add(h, bb);
    let act = b.relu(z);
    let out = b.softmax(act);
    let program = Program::new("quickstart", b.finish(out));
    println!(
        "program `{}`: {} primitive ops",
        program.name,
        program.num_nodes()
    );

    // 2. Run the compiler's default fusion heuristic: ops become kernels.
    let (space, config) = default_space_and_config(&program.computation);
    let fused = apply_fusion(&program, &space, &config);
    println!(
        "fusion: {} fusible edges, default config fuses {} -> {} kernels",
        space.num_edges(),
        config.num_fused(),
        fused.num_kernels()
    );

    // 3. Measure each kernel on the "hardware" (the TPU simulator), the
    //    paper's min-of-3 protocol.
    let device = TpuDevice::new(42);
    println!("\nper-kernel runtimes (simulated hardware, min of 3 runs):");
    for (i, kernel) in fused.kernels.iter().enumerate() {
        let measured = device.measure_kernel(kernel, 3);
        println!(
            "  kernel {i}: {:?} ops={} tile={} -> {:.2} us",
            kernel.kind,
            kernel.num_ops(),
            kernel
                .tile
                .as_ref()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "default".into()),
            measured / 1000.0
        );
    }

    // 4. Predict the same runtimes with the (untrained here — see the
    //    table2 binary for training) learned performance model.
    let model = GnnModel::new(GnnConfig::default());
    println!(
        "\nlearned model ({} parameters) predictions:",
        model.num_parameters()
    );
    let mut predicted_total = 0.0;
    let mut measured_total = 0.0;
    for kernel in &fused.kernels {
        let pred = model.predict_kernel_ns(kernel).unwrap();
        let truth = tpu_repro::sim::kernel_time_ns(kernel, &TpuConfig::default());
        predicted_total += pred;
        measured_total += truth;
        println!(
            "  predicted {:>10.2} us   actual {:>10.2} us",
            pred / 1000.0,
            truth / 1000.0
        );
    }

    // 5. Program runtime = sum of kernel runtimes (§3.3 of the paper).
    println!(
        "\nprogram total: predicted {:.2} us, actual {:.2} us",
        predicted_total / 1000.0,
        measured_total / 1000.0
    );
    println!("(an untrained model is a random guess — run the table2 binary to train one)");
}
