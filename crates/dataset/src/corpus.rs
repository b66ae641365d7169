//! The 104-program corpus and its train/validation/test splits (§5).

use crate::models;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tpu_hlo::Program;

/// One corpus entry: a program plus its model family.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The program.
    pub program: Program,
    /// Family label (e.g. `"resnet_v1"`), used by the manual split.
    pub family: &'static str,
}

/// The program corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All entries.
    pub entries: Vec<Entry>,
}

/// A dataset split: indices into [`Corpus::entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training program indices.
    pub train: Vec<usize>,
    /// Validation program indices.
    pub val: Vec<usize>,
    /// Test program indices.
    pub test: Vec<usize>,
}

/// The eight random-split test programs of Table 2.
pub const RANDOM_TEST_PROGRAMS: [&str; 8] = [
    "ConvDRAW",
    "WaveRNN",
    "NMT Model",
    "SSD",
    "RNN",
    "ResNet v1",
    "ResNet v2",
    "Translate",
];

/// Families entirely held out of training by the manual split ("manually
/// chosen to minimize their (subjective) similarity to programs in the
/// training set").
pub const HELD_OUT_FAMILIES: [&str; 4] = ["inception", "unet", "deep_and_wide", "ncf"];

/// Corpus size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusScale {
    /// The full 104-program corpus.
    Full,
    /// A small corpus for tests and quick runs (~14 programs).
    Tiny,
    /// TpuGraphs-scale: the full corpus plus ~10x sweeps of deeper/wider
    /// family parameterizations and fused multi-tower programs emitted as
    /// single large training graphs.
    Large,
}

impl Corpus {
    /// Build the corpus at the given scale.
    pub fn build(scale: CorpusScale) -> Corpus {
        let entries = match scale {
            CorpusScale::Full => full_corpus(),
            CorpusScale::Tiny => tiny_corpus(),
            CorpusScale::Large => large_corpus(),
        };
        Corpus { entries }
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find a program index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.program.name == name)
    }

    /// The random split: the 8 named Table-2 programs as test, 8 more
    /// seeded-random programs as validation, the rest as training.
    pub fn random_split(&self, seed: u64) -> Split {
        let mut test = Vec::new();
        for name in RANDOM_TEST_PROGRAMS {
            if let Some(i) = self.index_of(name) {
                test.push(i);
            }
        }
        let mut rest: Vec<usize> = (0..self.len()).filter(|i| !test.contains(i)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rest.shuffle(&mut rng);
        let n_val = 8.min(rest.len() / 4);
        let val = rest[..n_val].to_vec();
        let train = rest[n_val..].to_vec();
        Split { train, val, test }
    }

    /// The manual split: every program of a held-out family is test; six
    /// deterministic "least-similar-available" programs are validation;
    /// the rest train.
    pub fn manual_split(&self) -> Split {
        let test: Vec<usize> = (0..self.len())
            .filter(|&i| HELD_OUT_FAMILIES.contains(&self.entries[i].family))
            .collect();
        // Validation: the last variant of six diverse families (largest
        // configs, least similar to the bulk of their family).
        let mut val = Vec::new();
        for fam in [
            "lenet",
            "autoencoder",
            "char2feats",
            "mlp",
            "vgg",
            "bert_lite",
        ] {
            if let Some(i) =
                (0..self.len()).rfind(|&i| self.entries[i].family == fam && !test.contains(&i))
            {
                val.push(i);
            }
        }
        let train: Vec<usize> = (0..self.len())
            .filter(|i| !test.contains(i) && !val.contains(i))
            .collect();
        Split { train, val, test }
    }

    /// Indices of programs eligible for the fusion dataset. The paper's
    /// fusion data generation timed out on some programs; we mirror that
    /// by excluding the largest graphs from the fusion pipeline (they are
    /// still in the tile dataset).
    pub fn fusion_eligible(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.entries[i].program.num_nodes() <= FUSION_NODE_LIMIT)
            .collect()
    }
}

/// Programs above this node count are excluded from the fusion dataset
/// (the paper's four-hour-timeout analogue).
pub const FUSION_NODE_LIMIT: usize = 420;

fn e(program: Program, family: &'static str) -> Entry {
    Entry { program, family }
}

fn full_corpus() -> Vec<Entry> {
    let mut v: Vec<Entry> = Vec::with_capacity(104);

    // resnet_v1: 8 (includes the Table-2 test instance).
    v.push(e(models::resnet_v1("ResNet v1", 6, 22, 80, 5), "resnet_v1"));
    for (i, (batch, px, w, blk)) in [
        (2usize, 14usize, 32usize, 2usize),
        (4, 14, 64, 3),
        (4, 28, 32, 4),
        (8, 28, 32, 3),
        (8, 14, 96, 4),
        (16, 28, 32, 5),
        (4, 28, 96, 6),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::resnet_v1(&format!("resnet_v1_{i}"), batch, px, w, blk),
            "resnet_v1",
        ));
    }

    // resnet_v2: 8.
    v.push(e(models::resnet_v2("ResNet v2", 6, 22, 80, 5), "resnet_v2"));
    for (i, (batch, px, w, blk)) in [
        (2usize, 14usize, 32usize, 2usize),
        (4, 14, 64, 3),
        (4, 28, 32, 4),
        (8, 28, 32, 3),
        (8, 14, 96, 4),
        (16, 28, 32, 5),
        (4, 28, 96, 6),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::resnet_v2(&format!("resnet_v2_{i}"), batch, px, w, blk),
            "resnet_v2",
        ));
    }

    // vgg: 5.
    for (i, (batch, px, w, st)) in [
        (4usize, 32usize, 16usize, 2usize),
        (4, 32, 32, 3),
        (8, 32, 32, 2),
        (8, 64, 16, 3),
        (16, 32, 32, 2),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(models::vgg(&format!("vgg_{i}"), batch, px, w, st), "vgg"));
    }

    // lenet: 4.
    for (i, batch) in [16usize, 64, 128, 256].into_iter().enumerate() {
        v.push(e(models::lenet(&format!("lenet_{i}"), batch), "lenet"));
    }

    // ssd: 6.
    v.push(e(models::ssd("SSD", 3, 48, 40), "ssd"));
    for (i, (batch, px, w)) in [
        (2usize, 32usize, 16usize),
        (2, 32, 32),
        (4, 32, 24),
        (2, 64, 16),
        (8, 64, 32),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(models::ssd(&format!("ssd_{i}"), batch, px, w), "ssd"));
    }

    // convdraw: 6.
    v.push(e(models::convdraw("ConvDRAW", 6, 20, 6, 320), "convdraw"));
    for (i, (batch, px, steps, hidden)) in [
        (4usize, 16usize, 3usize, 128usize),
        (4, 16, 5, 192),
        (8, 16, 4, 256),
        (4, 24, 3, 256),
        (16, 16, 4, 192),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::convdraw(&format!("convdraw_{i}"), batch, px, steps, hidden),
            "convdraw",
        ));
    }

    // wavernn: 6.
    v.push(e(models::wavernn("WaveRNN", 9, 448), "wavernn"));
    for (i, (steps, hidden)) in [(6usize, 256usize), (8, 256), (6, 384), (12, 320), (8, 512)]
        .into_iter()
        .enumerate()
    {
        v.push(e(
            models::wavernn(&format!("wavernn_{i}"), steps, hidden),
            "wavernn",
        ));
    }

    // rnn_lm: 8.
    v.push(e(models::rnn_lm("RNN", 14, 640, 1792), "rnn_lm"));
    for (i, (steps, hidden, vocab)) in [
        (6usize, 256usize, 512usize),
        (8, 256, 1024),
        (10, 384, 1024),
        (12, 256, 2048),
        (16, 512, 1024),
        (8, 768, 2048),
        (20, 384, 1536),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::rnn_lm(&format!("rnn_lm_{i}"), steps, hidden, vocab),
            "rnn_lm",
        ));
    }

    // gru_lm: 5.
    for (i, (steps, hidden, vocab)) in [
        (5usize, 192usize, 384usize),
        (6, 256, 512),
        (8, 384, 1024),
        (10, 256, 1024),
        (6, 512, 1536),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::gru_lm(&format!("gru_lm_{i}"), steps, hidden, vocab),
            "gru_lm",
        ));
    }

    // lstm_lm: 5.
    for (i, (steps, hidden, vocab)) in [
        (5usize, 192usize, 384usize),
        (6, 256, 512),
        (8, 384, 1024),
        (10, 256, 1024),
        (6, 512, 1536),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::lstm_lm(&format!("lstm_lm_{i}"), steps, hidden, vocab),
            "lstm_lm",
        ));
    }

    // nmt: 7.
    v.push(e(models::nmt("NMT Model", 9, 11, 448, 1792), "nmt"));
    for (i, (es, ds, hidden, vocab)) in [
        (6usize, 6usize, 256usize, 1024usize),
        (8, 6, 256, 1024),
        (6, 8, 384, 1024),
        (10, 8, 256, 1536),
        (8, 8, 512, 1024),
        (12, 12, 384, 2048),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::nmt(&format!("nmt_{i}"), es, ds, hidden, vocab),
            "nmt",
        ));
    }

    // transformer: 8 (includes "Translate" and "Transformer").
    v.push(e(
        models::transformer("Translate", 3, 112, 320, 4),
        "transformer",
    ));
    v.push(e(
        models::transformer("Transformer", 2, 128, 256, 4),
        "transformer",
    ));
    for (i, (layers, seq, d, heads)) in [
        (1usize, 64usize, 128usize, 2usize),
        (2, 96, 192, 4),
        (2, 128, 128, 2),
        (3, 96, 256, 4),
        (1, 192, 256, 8),
        (4, 64, 192, 4),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::transformer(&format!("transformer_{i}"), layers, seq, d, heads),
            "transformer",
        ));
    }

    // bert_lite: 5.
    for (i, (layers, seq, d)) in [
        (2usize, 96usize, 192usize),
        (2, 128, 256),
        (3, 96, 192),
        (3, 128, 320),
        (4, 160, 256),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::bert_lite(&format!("bert_{i}"), layers, seq, d),
            "bert_lite",
        ));
    }

    // mlp: 6.
    for (i, (batch, widths)) in [
        (128usize, vec![512usize, 1024, 512]),
        (256, vec![1024, 2048, 1024]),
        (512, vec![2048, 2048, 2048, 1024]),
        (1024, vec![1024, 4096, 1024]),
        (256, vec![4096, 8192, 2048]),
        (2048, vec![2048, 4096, 4096, 2048]),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(models::mlp(&format!("mlp_{i}"), batch, &widths), "mlp"));
    }

    // autoencoder: 5.
    for (i, (batch, dim, code)) in [
        (64usize, 1024usize, 128usize),
        (128, 2048, 256),
        (256, 2048, 128),
        (256, 4096, 512),
        (512, 8192, 256),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::autoencoder(&format!("autoencoder_{i}"), batch, dim, code),
            "autoencoder",
        ));
    }

    // char2feats: 4 (includes the autotuning target "Char2Feats").
    v.push(e(models::char2feats("Char2Feats", 128, 256), "char2feats"));
    for (i, (chars, dim)) in [(64usize, 128usize), (96, 192), (192, 256)]
        .into_iter()
        .enumerate()
    {
        v.push(e(
            models::char2feats(&format!("char2feats_{i}"), chars, dim),
            "char2feats",
        ));
    }

    // resnet_parallel: 2 (includes the autotuning target).
    v.push(e(
        models::resnet_parallel("ResNet-parallel", 4, 28, 64, 3),
        "resnet_parallel",
    ));
    v.push(e(
        models::resnet_parallel("resnet_parallel_1", 8, 14, 48, 2),
        "resnet_parallel",
    ));

    // Held-out families (manual-split test): 6 programs.
    v.push(e(
        models::inception("inception_0", 4, 32, 64, 2),
        "inception",
    ));
    v.push(e(
        models::inception("inception_1", 4, 32, 96, 3),
        "inception",
    ));
    v.push(e(models::unet("unet_0", 2, 32, 32), "unet"));
    v.push(e(models::unet("unet_1", 4, 64, 32), "unet"));
    v.push(e(
        models::deep_and_wide("deep_and_wide_0", 512, 4096, &[1024, 512, 256]),
        "deep_and_wide",
    ));
    v.push(e(models::ncf("ncf_0", 512, 256), "ncf"));

    v
}

/// The TpuGraphs-scale corpus: every full-corpus program plus systematic
/// deeper/wider sweeps of each family and fused multi-tower programs —
/// roughly an order of magnitude more training examples than
/// [`CorpusScale::Full`] once the fusion pipeline expands each program
/// into kernels. The sweeps deliberately reach past [`FUSION_NODE_LIMIT`]
/// so the corpus contains whole-graph examples that only segment training
/// can fit in a step budget.
fn large_corpus() -> Vec<Entry> {
    let mut v = full_corpus();

    // Deeper/wider residual-CNN sweeps.
    for batch in [2usize, 4, 8, 16] {
        for px in [14usize, 28] {
            for w in [32usize, 64, 96] {
                for blk in [2usize, 3, 4, 6] {
                    v.push(e(
                        models::resnet_v1(
                            &format!("L_resnet_v1_b{batch}p{px}w{w}k{blk}"),
                            batch,
                            px,
                            w,
                            blk,
                        ),
                        "resnet_v1",
                    ));
                    v.push(e(
                        models::resnet_v2(
                            &format!("L_resnet_v2_b{batch}p{px}w{w}k{blk}"),
                            batch,
                            px,
                            w,
                            blk,
                        ),
                        "resnet_v2",
                    ));
                }
            }
        }
    }

    // VGG stacks.
    for batch in [4usize, 8, 16] {
        for px in [32usize, 64] {
            for w in [16usize, 32, 48] {
                for st in [2usize, 3] {
                    v.push(e(
                        models::vgg(&format!("L_vgg_b{batch}p{px}w{w}s{st}"), batch, px, w, st),
                        "vgg",
                    ));
                }
            }
        }
    }

    // LeNet batch ladder.
    for batch in [16usize, 32, 64, 128, 256, 512, 1024] {
        v.push(e(
            models::lenet(&format!("L_lenet_b{batch}"), batch),
            "lenet",
        ));
    }

    // SSD grid.
    for batch in [2usize, 4, 8] {
        for px in [32usize, 48, 64] {
            for w in [16usize, 24, 32] {
                v.push(e(
                    models::ssd(&format!("L_ssd_b{batch}p{px}w{w}"), batch, px, w),
                    "ssd",
                ));
            }
        }
    }

    // ConvDRAW step/width sweep.
    for batch in [4usize, 8, 16] {
        for px in [16usize, 24] {
            for steps in [3usize, 5, 7] {
                for hidden in [128usize, 256] {
                    v.push(e(
                        models::convdraw(
                            &format!("L_convdraw_b{batch}p{px}s{steps}h{hidden}"),
                            batch,
                            px,
                            steps,
                            hidden,
                        ),
                        "convdraw",
                    ));
                }
            }
        }
    }

    // Recurrent families: longer unrolls, wider cells.
    for steps in [6usize, 8, 12, 16, 24] {
        for hidden in [256usize, 384, 512, 768] {
            v.push(e(
                models::wavernn(&format!("L_wavernn_s{steps}h{hidden}"), steps, hidden),
                "wavernn",
            ));
        }
    }
    for steps in [6usize, 10, 16, 24] {
        for hidden in [256usize, 384, 512, 768] {
            for vocab in [512usize, 1024, 2048] {
                v.push(e(
                    models::rnn_lm(
                        &format!("L_rnn_lm_s{steps}h{hidden}v{vocab}"),
                        steps,
                        hidden,
                        vocab,
                    ),
                    "rnn_lm",
                ));
            }
        }
    }
    for steps in [5usize, 8, 12] {
        for hidden in [192usize, 384, 512] {
            for vocab in [384usize, 1024, 2048] {
                v.push(e(
                    models::gru_lm(
                        &format!("L_gru_lm_s{steps}h{hidden}v{vocab}"),
                        steps,
                        hidden,
                        vocab,
                    ),
                    "gru_lm",
                ));
                v.push(e(
                    models::lstm_lm(
                        &format!("L_lstm_lm_s{steps}h{hidden}v{vocab}"),
                        steps,
                        hidden,
                        vocab,
                    ),
                    "lstm_lm",
                ));
            }
        }
    }

    // Attention families.
    for es in [6usize, 10] {
        for ds in [6usize, 10] {
            for hidden in [256usize, 384, 512] {
                for vocab in [1024usize, 2048] {
                    v.push(e(
                        models::nmt(
                            &format!("L_nmt_e{es}d{ds}h{hidden}v{vocab}"),
                            es,
                            ds,
                            hidden,
                            vocab,
                        ),
                        "nmt",
                    ));
                }
            }
        }
    }
    for layers in [1usize, 2, 4, 6] {
        for seq in [64usize, 128, 192] {
            for d in [128usize, 256, 320] {
                v.push(e(
                    models::transformer(
                        &format!("L_transformer_l{layers}s{seq}d{d}"),
                        layers,
                        seq,
                        d,
                        4,
                    ),
                    "transformer",
                ));
            }
        }
    }
    for layers in [2usize, 4, 6] {
        for seq in [96usize, 128, 160] {
            for d in [192usize, 256, 320] {
                v.push(e(
                    models::bert_lite(&format!("L_bert_l{layers}s{seq}d{d}"), layers, seq, d),
                    "bert_lite",
                ));
            }
        }
    }

    // Dense families.
    for batch in [128usize, 256, 512, 1024, 2048] {
        for (wi, widths) in [
            vec![512usize, 1024, 512],
            vec![1024, 2048, 2048, 1024],
            vec![2048, 4096, 2048],
            vec![1024, 2048, 4096, 2048, 1024],
        ]
        .into_iter()
        .enumerate()
        {
            v.push(e(
                models::mlp(&format!("L_mlp_b{batch}w{wi}"), batch, &widths),
                "mlp",
            ));
        }
    }
    for batch in [64usize, 128, 256, 512] {
        for dim in [1024usize, 2048, 4096] {
            for code in [128usize, 256, 512] {
                v.push(e(
                    models::autoencoder(&format!("L_ae_b{batch}d{dim}c{code}"), batch, dim, code),
                    "autoencoder",
                ));
            }
        }
    }
    for chars in [64usize, 96, 128, 192, 256] {
        for dim in [128usize, 192, 256] {
            v.push(e(
                models::char2feats(&format!("L_c2f_c{chars}d{dim}"), chars, dim),
                "char2feats",
            ));
        }
    }
    for batch in [256usize, 512, 1024] {
        for wide in [2048usize, 4096] {
            v.push(e(
                models::deep_and_wide(
                    &format!("L_dw_b{batch}w{wide}"),
                    batch,
                    wide,
                    &[1024, 512, 256],
                ),
                "deep_and_wide",
            ));
        }
        for dim in [64usize, 128, 256] {
            v.push(e(
                models::ncf(&format!("L_ncf_b{batch}d{dim}"), batch, dim),
                "ncf",
            ));
        }
    }

    // Held-out-family variants.
    for (i, (batch, px, w, blk)) in [
        (8usize, 32usize, 64usize, 2usize),
        (4, 32, 96, 2),
        (2, 32, 128, 3),
    ]
    .into_iter()
    .enumerate()
    {
        v.push(e(
            models::inception(&format!("L_inception_{i}"), batch, px, w, blk),
            "inception",
        ));
    }
    for (i, (batch, px, w)) in [(2usize, 32usize, 48usize), (4, 32, 64), (2, 64, 32)]
        .into_iter()
        .enumerate()
    {
        v.push(e(
            models::unet(&format!("L_unet_{i}"), batch, px, w),
            "unet",
        ));
    }

    // Fused multi-kernel programs: single graphs far past
    // FUSION_NODE_LIMIT, only trainable via whole-graph records + segments.
    for towers in [2usize, 4, 6] {
        for depth in [2usize, 4, 8] {
            for w in [16usize, 32] {
                v.push(e(
                    models::multi_tower(
                        &format!("L_fused_mt_t{towers}d{depth}w{w}"),
                        2,
                        14,
                        w,
                        towers,
                        depth,
                    ),
                    "fused_multi_tower",
                ));
            }
        }
    }
    for stages in [8usize, 16, 32, 48] {
        for dim in [256usize, 512, 1024] {
            v.push(e(
                models::stacked_pipeline(&format!("L_fused_sp_s{stages}d{dim}"), 64, dim, stages),
                "fused_pipeline",
            ));
        }
    }
    for depth in [2usize, 4, 8] {
        for dim in [128usize, 256] {
            v.push(e(
                models::conv_dense_hybrid(
                    &format!("L_fused_cd_d{depth}w{dim}"),
                    2,
                    16,
                    16,
                    dim,
                    depth,
                ),
                "fused_hybrid",
            ));
        }
    }

    v
}

fn tiny_corpus() -> Vec<Entry> {
    vec![
        e(models::resnet_v1("ResNet v1", 4, 28, 32, 2), "resnet_v1"),
        e(models::resnet_v2("ResNet v2", 4, 28, 32, 2), "resnet_v2"),
        e(models::rnn_lm("RNN", 6, 256, 512), "rnn_lm"),
        e(models::wavernn("WaveRNN", 6, 256), "wavernn"),
        e(models::nmt("NMT Model", 4, 4, 256, 512), "nmt"),
        e(
            models::transformer("Translate", 1, 64, 128, 2),
            "transformer",
        ),
        e(models::ssd("SSD", 2, 32, 16), "ssd"),
        e(models::convdraw("ConvDRAW", 4, 16, 3, 128), "convdraw"),
        e(models::mlp("mlp_0", 128, &[512, 1024, 512]), "mlp"),
        e(
            models::autoencoder("autoencoder_0", 64, 1024, 128),
            "autoencoder",
        ),
        e(models::lenet("lenet_0", 32), "lenet"),
        e(models::inception("inception_0", 4, 32, 64, 2), "inception"),
        e(models::unet("unet_0", 2, 32, 32), "unet"),
        e(models::ncf("ncf_0", 256, 64), "ncf"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_builds_and_validates() {
        let c = Corpus::build(CorpusScale::Tiny);
        assert!(c.len() >= 10);
        for entry in &c.entries {
            assert!(
                entry.program.computation.validate().is_ok(),
                "{}",
                entry.program.name
            );
        }
    }

    #[test]
    fn tiny_splits_are_disjoint_and_cover() {
        let c = Corpus::build(CorpusScale::Tiny);
        for split in [c.random_split(0), c.manual_split()] {
            let mut all: Vec<usize> = split
                .train
                .iter()
                .chain(&split.val)
                .chain(&split.test)
                .copied()
                .collect();
            all.sort_unstable();
            let expected: Vec<usize> = (0..c.len()).collect();
            assert_eq!(all, expected, "{split:?}");
        }
    }

    #[test]
    fn random_split_tests_are_the_named_programs() {
        let c = Corpus::build(CorpusScale::Tiny);
        let s = c.random_split(0);
        for &i in &s.test {
            assert!(RANDOM_TEST_PROGRAMS.contains(&c.entries[i].program.name.as_str()));
        }
        assert_eq!(s.test.len(), 8);
    }

    #[test]
    fn manual_split_holds_out_families() {
        let c = Corpus::build(CorpusScale::Tiny);
        let s = c.manual_split();
        for &i in &s.test {
            assert!(HELD_OUT_FAMILIES.contains(&c.entries[i].family));
        }
        for &i in &s.train {
            assert!(!HELD_OUT_FAMILIES.contains(&c.entries[i].family));
        }
    }
}

#[cfg(test)]
mod full_tests {
    use super::*;

    #[test]
    #[ignore = "builds the ~900-program large corpus; run explicitly"]
    fn large_corpus_validates_and_scales() {
        let c = Corpus::build(CorpusScale::Large);
        let full = Corpus::build(CorpusScale::Full);
        assert!(
            c.len() >= 7 * full.len(),
            "large corpus has {} programs, full has {}",
            c.len(),
            full.len()
        );
        let mut names = std::collections::HashSet::new();
        let mut past_limit = 0usize;
        for entry in &c.entries {
            assert!(
                entry.program.computation.validate().is_ok(),
                "{} invalid",
                entry.program.name
            );
            assert!(
                names.insert(entry.program.name.clone()),
                "duplicate name {}",
                entry.program.name
            );
            if entry.program.num_nodes() > FUSION_NODE_LIMIT {
                past_limit += 1;
            }
        }
        // The large corpus must contain graphs only whole-graph records +
        // segment training can handle.
        assert!(
            past_limit >= 20,
            "only {past_limit} programs past the fusion limit"
        );
    }

    #[test]
    #[ignore = "builds the full 104-program corpus; run explicitly"]
    fn full_corpus_has_104_valid_programs() {
        let c = Corpus::build(CorpusScale::Full);
        assert_eq!(c.len(), 104);
        for entry in &c.entries {
            assert!(
                entry.program.computation.validate().is_ok(),
                "{} invalid",
                entry.program.name
            );
        }
        // Table-2 programs all present.
        for name in RANDOM_TEST_PROGRAMS {
            assert!(c.index_of(name).is_some(), "{name} missing");
        }
        let rs = c.random_split(0);
        assert_eq!(rs.test.len(), 8);
        assert_eq!(rs.val.len(), 8);
        assert_eq!(rs.train.len(), 88);
        let ms = c.manual_split();
        assert_eq!(ms.test.len(), 6);
        assert_eq!(ms.val.len(), 6);
        assert_eq!(ms.train.len(), 92);
    }
}
