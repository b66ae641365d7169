//! The layer arithmetic a frozen forward is generic over.
//!
//! Each architecture's dataflow is written once (`Gnn::forward`,
//! `Lstm::forward`) against [`Arith`], which supplies what differs
//! between number systems: the operand element type, the weight
//! container, the affine layer, and the *stage hook* called on every
//! activation about to feed a matmul. [`Int16`] serves: the hook
//! quantizes at the stage's scale. [`Calibrate`] is f32 over the training
//! store's weights: the hook records each calibrated stage's largest
//! magnitude. So `freeze_*` calibrates by running the very forward it is
//! about to freeze, and the two can only disagree by quantization error.

use crate::layers::Affine;
use crate::quant::{self, QTensor, S_UNIT};
use std::marker::PhantomData;

/// Where a staged activation's scale comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    /// Calibrated at freeze time: an index into the blob's activation
    /// scale list.
    Slot(usize),
    /// Bounded in `[-1, 1]` by construction (L2-normalized embeddings,
    /// the LSTM hidden state): the static unit scale, nothing to
    /// calibrate and nothing that can saturate.
    Unit,
}

/// One number system for the frozen dataflow. Operands travel as
/// `(elements, scale)`; `scale` maps the elements back to f32.
pub(crate) trait Arith {
    /// Matmul operand element: weights and staged activations.
    type Elem: Copy + Default;
    /// A row-major weight block.
    type Mat;

    /// Row `r` of a `cols`-wide table as an operand (the embedding lookup).
    fn row(table: &Self::Mat, r: usize, cols: usize) -> (&[Self::Elem], f32);

    /// The stage hook: `src` is about to feed a matmul. Writes the
    /// operand into `dst` and returns its scale.
    fn stage(&mut self, stage: Stage, src: &[f32], dst: &mut [Self::Elem]) -> f32;

    /// `out[j] = b[j] + Σ_s Σ_k input_s[k] · w_s[k][j]`: one operand per
    /// weight block of `layer`.
    fn affine<const N: usize>(
        &mut self,
        layer: &Affine<Self::Mat>,
        inputs: [(&[Self::Elem], f32); N],
        out: &mut [f32],
    );

    /// `Σ_k a[k] · w[k]` against an `H×1` head chunk.
    fn dot(a: &[Self::Elem], scale: f32, w: &Self::Mat) -> f32;
}

/// In-place ReLU.
pub(crate) fn relu(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

/// The serving arithmetic: [`QTensor`] weights, i16×i16→i32 matmuls with
/// one accumulator per input segment (each segment has its own scale).
pub(crate) struct Int16<'s> {
    scales: &'s [f32],
    /// One i32 accumulator per weight block, as wide as the widest layer.
    acc: [Vec<i32>; 2],
}

impl<'s> Int16<'s> {
    pub(crate) fn new(scales: &'s [f32], widest_layer: usize) -> Int16<'s> {
        Int16 {
            scales,
            acc: [vec![0; widest_layer], vec![0; widest_layer]],
        }
    }
}

impl Arith for Int16<'_> {
    type Elem = i16;
    type Mat = QTensor;

    fn row(table: &QTensor, r: usize, _cols: usize) -> (&[i16], f32) {
        (table.row(r), table.scale)
    }

    fn stage(&mut self, stage: Stage, src: &[f32], dst: &mut [i16]) -> f32 {
        let scale = match stage {
            Stage::Slot(i) => self.scales[i],
            Stage::Unit => S_UNIT,
        };
        quant::quantize_into(src, scale, dst);
        scale
    }

    fn affine<const N: usize>(
        &mut self,
        layer: &Affine<QTensor>,
        inputs: [(&[i16], f32); N],
        out: &mut [f32],
    ) {
        debug_assert_eq!(N, layer.w.len());
        let mut dequant = [0.0f32; N];
        for (s, ((a, scale), w)) in inputs.into_iter().zip(&layer.w).enumerate() {
            let acc = &mut self.acc[s][..out.len()];
            acc.fill(0);
            quant::matvec_accum(a, &w.data, acc);
            dequant[s] = scale * w.scale;
        }
        for (j, o) in out.iter_mut().enumerate() {
            let mut v = self.acc[0][j] as f32 * dequant[0];
            for (acc, d) in self.acc.iter().zip(&dequant).skip(1) {
                v += acc[j] as f32 * d;
            }
            *o = v + layer.b[j];
        }
    }

    fn dot(a: &[i16], scale: f32, w: &QTensor) -> f32 {
        quant::dot_i16(a, &w.data) as f32 * (scale * w.scale)
    }
}

/// The calibration arithmetic: f32 over slices of the training store.
pub(crate) struct Calibrate<'w> {
    /// Largest magnitude seen per calibrated slot, in blob scale order.
    max_abs: Vec<f32>,
    weights: PhantomData<&'w [f32]>,
}

impl Calibrate<'_> {
    pub(crate) fn new(slots: usize) -> Self {
        Calibrate {
            max_abs: vec![0.0; slots],
            weights: PhantomData,
        }
    }

    /// The activation scales the observed maxima call for.
    pub(crate) fn scales(&self) -> Vec<f32> {
        self.max_abs.iter().map(|&m| quant::act_scale(m)).collect()
    }
}

impl<'w> Arith for Calibrate<'w> {
    type Elem = f32;
    type Mat = &'w [f32];

    fn row<'a>(table: &'a &'w [f32], r: usize, cols: usize) -> (&'a [f32], f32) {
        (&table[r * cols..(r + 1) * cols], 1.0)
    }

    fn stage(&mut self, stage: Stage, src: &[f32], dst: &mut [f32]) -> f32 {
        if let Stage::Slot(i) = stage {
            self.max_abs[i] = src.iter().fold(self.max_abs[i], |m, &v| m.max(v.abs()));
        }
        dst.copy_from_slice(src);
        1.0
    }

    /// Bias first, then each segment in ascending `k`: f32 addition is
    /// not associative, and this is the order every calibrated scale in
    /// an existing blob was observed under.
    fn affine<const N: usize>(
        &mut self,
        layer: &Affine<&'w [f32]>,
        inputs: [(&[f32], f32); N],
        out: &mut [f32],
    ) {
        let m = out.len();
        out.copy_from_slice(&layer.b);
        for ((a, _), w) in inputs.into_iter().zip(&layer.w) {
            for (k, &av) in a.iter().enumerate() {
                for (o, &wv) in out.iter_mut().zip(&w[k * m..(k + 1) * m]) {
                    *o += av * wv;
                }
            }
        }
    }

    fn dot(a: &[f32], _scale: f32, w: &&'w [f32]) -> f32 {
        a.iter().zip(w.iter()).map(|(&av, &wv)| av * wv).sum()
    }
}
