//! Convolutional model families: ResNet v1/v2, VGG, LeNet, Inception,
//! U-Net, SSD.

use super::common::{bn_relu, conv_layer, dense, flatten, max_pool};
use tpu_hlo::{DType, GraphBuilder, NodeId, Program, Shape};

/// ResNet v1: conv → bn → relu blocks with post-activation residual adds.
pub fn resnet_v1(name: &str, batch: usize, px: usize, width: usize, blocks: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let stem = conv_layer(&mut b, "stem", x, width, 3, 1);
    let mut h = bn_relu(&mut b, "stem_bn", stem);
    for i in 0..blocks {
        let c1 = conv_layer(&mut b, &format!("b{i}_c1"), h, width, 3, 1);
        let r1 = bn_relu(&mut b, &format!("b{i}_bn1"), c1);
        let c2 = conv_layer(&mut b, &format!("b{i}_c2"), r1, width, 3, 1);
        let ch = b.shape(c2).dim(3);
        let scale = b.parameter(&format!("b{i}_s"), Shape::vector(ch), DType::F32);
        let off = b.parameter(&format!("b{i}_o"), Shape::vector(ch), DType::F32);
        let n2 = b.batch_norm_inference(c2, scale, off);
        let sum = b.add(n2, h);
        h = b.relu(sum);
    }
    let pooled = global_pool(&mut b, h);
    let logits = dense(&mut b, "fc", pooled, 100, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// ResNet v2: pre-activation ordering (bn → relu → conv) inside blocks.
pub(crate) fn resnet_v2(
    name: &str,
    batch: usize,
    px: usize,
    width: usize,
    blocks: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let mut h = conv_layer(&mut b, "stem", x, width, 3, 1);
    for i in 0..blocks {
        let r1 = bn_relu(&mut b, &format!("b{i}_bn1"), h);
        let c1 = conv_layer(&mut b, &format!("b{i}_c1"), r1, width, 3, 1);
        let r2 = bn_relu(&mut b, &format!("b{i}_bn2"), c1);
        let c2 = conv_layer(&mut b, &format!("b{i}_c2"), r2, width, 3, 1);
        h = b.add(c2, h);
    }
    let act = bn_relu(&mut b, "final_bn", h);
    let pooled = global_pool(&mut b, act);
    let logits = dense(&mut b, "fc", pooled, 100, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// VGG-style plain conv stacks with pooling.
pub(crate) fn vgg(name: &str, batch: usize, px: usize, width: usize, stages: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let mut h = x;
    let mut w = width;
    for s in 0..stages {
        let c1 = conv_layer(&mut b, &format!("s{s}_c1"), h, w, 3, 1);
        let r1 = b.relu(c1);
        let c2 = conv_layer(&mut b, &format!("s{s}_c2"), r1, w, 3, 1);
        let r2 = b.relu(c2);
        h = max_pool(&mut b, r2);
        w *= 2;
    }
    let f = flatten(&mut b, h);
    let d1 = dense(&mut b, "fc1", f, 256, true);
    let logits = dense(&mut b, "fc2", d1, 100, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// LeNet: the classic small convnet.
pub(crate) fn lenet(name: &str, batch: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, 28, 28, 1]), DType::F32);
    let c1 = conv_layer(&mut b, "c1", x, 6, 5, 1);
    let r1 = b.relu(c1);
    let p1 = max_pool(&mut b, r1);
    let c2 = conv_layer(&mut b, "c2", p1, 16, 5, 1);
    let r2 = b.relu(c2);
    let p2 = max_pool(&mut b, r2);
    let f = flatten(&mut b, p2);
    let d1 = dense(&mut b, "fc1", f, 120, true);
    let d2 = dense(&mut b, "fc2", d1, 84, true);
    let logits = dense(&mut b, "fc3", d2, 10, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// Inception-style block: parallel 1×1 / 3×3 / 5×5 / pooled branches,
/// concatenated along channels.
pub(crate) fn inception(
    name: &str,
    batch: usize,
    px: usize,
    width: usize,
    blocks: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let mut h = conv_layer(&mut b, "stem", x, width, 3, 2);
    h = b.relu(h);
    for i in 0..blocks {
        let b1 = conv_layer(&mut b, &format!("i{i}_1x1"), h, width / 2, 1, 1);
        let b3a = conv_layer(&mut b, &format!("i{i}_3r"), h, width / 2, 1, 1);
        let b3 = conv_layer(&mut b, &format!("i{i}_3x3"), b3a, width / 2, 3, 1);
        let b5a = conv_layer(&mut b, &format!("i{i}_5r"), h, width / 4, 1, 1);
        let b5 = conv_layer(&mut b, &format!("i{i}_5x5"), b5a, width / 4, 5, 1);
        let bp = conv_layer(&mut b, &format!("i{i}_pool"), h, width / 4, 1, 1);
        let cat = b.concatenate(&[b1, b3, b5, bp], 3);
        h = b.relu(cat);
    }
    let pooled = global_pool(&mut b, h);
    let logits = dense(&mut b, "fc", pooled, 100, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// U-Net-lite: strided down-convs, cheap upsampling via channel reshape,
/// skip concatenations.
pub(crate) fn unet(name: &str, batch: usize, px: usize, width: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 4]), DType::F32);
    // Down path.
    let d1 = conv_layer(&mut b, "d1", x, width, 3, 1);
    let d1r = b.relu(d1);
    let d2 = conv_layer(&mut b, "d2", d1r, width * 2, 3, 2);
    let d2r = b.relu(d2);
    let d3 = conv_layer(&mut b, "d3", d2r, width * 4, 3, 2);
    let d3r = b.relu(d3);
    // Up path: pixel-shuffle-style upsample (channels → space via reshape).
    let up2 = upsample2x(&mut b, d3r);
    let cat2 = b.concatenate(&[up2, d2r], 3);
    let u2 = conv_layer(&mut b, "u2", cat2, width * 2, 3, 1);
    let u2r = b.relu(u2);
    let up1 = upsample2x(&mut b, u2r);
    let cat1 = b.concatenate(&[up1, d1r], 3);
    let u1 = conv_layer(&mut b, "u1", cat1, width, 3, 1);
    let u1r = b.relu(u1);
    let out = conv_layer(&mut b, "head", u1r, 4, 1, 1);
    Program::new(name, b.finish(out))
}

/// SSD-like detector: a conv backbone plus class/box heads at three
/// feature-map scales, concatenated.
pub(crate) fn ssd(name: &str, batch: usize, px: usize, width: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let c1 = conv_layer(&mut b, "bb1", x, width, 3, 2);
    let f1 = b.relu(c1);
    let c2 = conv_layer(&mut b, "bb2", f1, width * 2, 3, 2);
    let f2 = b.relu(c2);
    let c3 = conv_layer(&mut b, "bb3", f2, width * 4, 3, 2);
    let f3 = b.relu(c3);

    let mut head_outputs = Vec::new();
    for (i, fmap) in [f1, f2, f3].into_iter().enumerate() {
        let cls = conv_layer(&mut b, &format!("cls{i}"), fmap, 4 * 21, 3, 1);
        let box_ = conv_layer(&mut b, &format!("box{i}"), fmap, 4 * 4, 3, 1);
        let s = b.shape(cls).clone();
        let n = s.dim(0);
        let flat_c = b.reshape(cls, Shape::matrix(n, s.dims()[1..].iter().product()));
        let s2 = b.shape(box_).clone();
        let flat_b = b.reshape(box_, Shape::matrix(n, s2.dims()[1..].iter().product()));
        head_outputs.push(flat_c);
        head_outputs.push(flat_b);
    }
    let cat = b.concatenate(&head_outputs, 1);
    let out = b.logistic(cat);
    Program::new(name, b.finish(out))
}

/// Global average pool over the spatial dims of an NHWC tensor.
fn global_pool(b: &mut GraphBuilder, x: NodeId) -> NodeId {
    let s = b.shape(x).clone();
    let scale = 1.0 / (s.dim(1) * s.dim(2)) as f64;
    let _ = scale;
    let summed = b.reduce(x, vec![1, 2]);
    let denom = b.scalar_constant();
    b.multiply(summed, denom)
}

/// 2× spatial upsample by moving channels into space:
/// `[N,H,W,4C] → [N,2H,2W,C]` via reshape (cost-equivalent stand-in for a
/// transposed convolution's data movement).
fn upsample2x(b: &mut GraphBuilder, x: NodeId) -> NodeId {
    let s = b.shape(x).clone();
    let (n, h, w, c) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    assert!(c % 4 == 0, "upsample needs channels divisible by 4");
    b.reshape(x, Shape::new(vec![n, h * 2, w * 2, c / 4]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cnn_families_validate() {
        let programs = [
            resnet_v1("r1", 2, 14, 16, 2),
            resnet_v2("r2", 2, 14, 16, 2),
            vgg("v", 2, 16, 8, 2),
            lenet("l", 2),
            inception("i", 2, 16, 16, 2),
            unet("u", 1, 16, 8),
            ssd("s", 1, 32, 8),
        ];
        for p in &programs {
            assert!(
                p.computation.validate().is_ok(),
                "{} failed validation",
                p.name
            );
            assert!(p.num_nodes() > 10, "{} too small", p.name);
        }
    }

    #[test]
    fn resnet_variants_differ() {
        let a = resnet_v1("a", 2, 14, 16, 2);
        let c = resnet_v2("c", 2, 14, 16, 2);
        assert_ne!(
            tpu_hlo::canonical_hash(&a.computation),
            tpu_hlo::canonical_hash(&c.computation)
        );
    }

    #[test]
    fn block_count_scales_nodes() {
        let small = resnet_v1("s", 2, 14, 16, 2);
        let big = resnet_v1("b", 2, 14, 16, 6);
        assert!(big.num_nodes() > small.num_nodes() + 20);
    }
}
