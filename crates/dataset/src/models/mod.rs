//! Synthetic model-family generators standing in for the paper's corpus of
//! "104 XLA programs that implement either production models or common
//! models used in research" (§5).

mod attention;
mod cnn;
mod common;
mod fused;
mod misc;
mod rnn;

pub use attention::transformer;
pub use cnn::resnet_v1;
pub use misc::mlp;

pub(crate) use attention::{bert_lite, nmt};
pub(crate) use cnn::{inception, lenet, resnet_v2, ssd, unet, vgg};
pub(crate) use fused::{conv_dense_hybrid, multi_tower, stacked_pipeline};
pub(crate) use misc::{autoencoder, char2feats, convdraw, deep_and_wide, ncf, resnet_parallel};
pub(crate) use rnn::{gru_lm, lstm_lm, rnn_lm, wavernn};
