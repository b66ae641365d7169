//! Primitive tensor operation opcodes and their categories.

use std::fmt;

/// A primitive tensor operation, modeled on XLA's HLO opcode set.
///
/// The set covers the operations emitted by the model-family generators in
/// `tpu-dataset` and is the vocabulary of the learned model's opcode
/// embedding table (§4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    // Leaves.
    Parameter,
    Constant,
    Iota,
    Rng,

    // Elementwise unary.
    Abs,
    Negate,
    Exp,
    Log,
    Sqrt,
    Rsqrt,
    Tanh,
    Logistic,
    Relu,
    Sign,
    Floor,
    Ceil,
    Cos,
    Sin,
    Not,
    Convert,
    Copy,

    // Elementwise binary.
    Add,
    Subtract,
    Multiply,
    Divide,
    Maximum,
    Minimum,
    Power,
    Remainder,
    And,
    Or,
    Xor,
    Compare,

    // Elementwise ternary.
    Select,
    Clamp,

    // Data movement / formatting.
    Reshape,
    Transpose,
    Broadcast,
    Slice,
    Concatenate,
    Pad,
    Reverse,
    DynamicSlice,
    DynamicUpdateSlice,
    Gather,
    Scatter,

    // Reductions.
    Reduce,
    ReduceWindow,

    // Heavy compute.
    Dot,
    Convolution,

    // Normalization (kept as a fused primitive like XLA's batch-norm HLOs).
    BatchNormInference,
}

/// Coarse category of an opcode; drives fusion legality, cost modeling, and
/// one-hot features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// Graph inputs ([`Opcode::Parameter`]).
    Parameter,
    /// Literals and generators with no tensor operands.
    Leaf,
    /// One-operand elementwise ops.
    ElementwiseUnary,
    /// Two-operand elementwise ops.
    ElementwiseBinary,
    /// Three-operand elementwise ops.
    ElementwiseTernary,
    /// Layout/shape manipulation without arithmetic.
    DataMovement,
    /// Reductions over one or more dimensions.
    Reduction,
    /// Matrix multiplication.
    Dot,
    /// Convolution.
    Convolution,
    /// Everything else (currently batch-norm inference).
    Other,
}

impl Opcode {
    /// The coarse [`OpCategory`] of this opcode.
    pub fn category(self) -> OpCategory {
        use Opcode::*;
        match self {
            Parameter => OpCategory::Parameter,
            Constant | Iota | Rng => OpCategory::Leaf,
            Abs | Negate | Exp | Log | Sqrt | Rsqrt | Tanh | Logistic | Relu | Sign | Floor
            | Ceil | Cos | Sin | Not | Convert | Copy => OpCategory::ElementwiseUnary,
            Add | Subtract | Multiply | Divide | Maximum | Minimum | Power | Remainder | And
            | Or | Xor | Compare => OpCategory::ElementwiseBinary,
            Select | Clamp => OpCategory::ElementwiseTernary,
            Reshape | Transpose | Broadcast | Slice | Concatenate | Pad | Reverse
            | DynamicSlice | DynamicUpdateSlice | Gather | Scatter => OpCategory::DataMovement,
            Reduce | ReduceWindow => OpCategory::Reduction,
            Dot => OpCategory::Dot,
            Convolution => OpCategory::Convolution,
            BatchNormInference => OpCategory::Other,
        }
    }

    /// Whether the op performs elementwise arithmetic (any arity).
    pub fn is_elementwise(self) -> bool {
        matches!(
            self.category(),
            OpCategory::ElementwiseUnary
                | OpCategory::ElementwiseBinary
                | OpCategory::ElementwiseTernary
        )
    }

    /// Expected number of tensor operands, or `None` if variadic
    /// ([`Opcode::Concatenate`]).
    pub fn arity(self) -> Option<usize> {
        use Opcode::*;
        match self {
            Parameter | Constant | Iota | Rng => Some(0),
            Concatenate => None,
            Add | Subtract | Multiply | Divide | Maximum | Minimum | Power | Remainder | And
            | Or | Xor | Compare | Dot | Convolution | Gather | ReduceWindow => Some(2),
            Select | Clamp | DynamicUpdateSlice | Scatter | BatchNormInference => Some(3),
            DynamicSlice => Some(2),
            Reduce => Some(1),
            _ if self.category() == OpCategory::ElementwiseUnary => Some(1),
            Reshape | Transpose | Broadcast | Slice | Pad | Reverse => Some(1),
            _ => Some(1),
        }
    }

    /// Approximate arithmetic cost, in vector-unit operations per output
    /// element, for elementwise ops. Transcendentals are more expensive on
    /// the TPU's vector unit.
    pub fn elementwise_cost(self) -> f64 {
        use Opcode::*;
        match self {
            Exp | Log | Tanh | Logistic | Power => 6.0,
            Sqrt | Rsqrt | Cos | Sin => 4.0,
            Divide | Remainder => 3.0,
            _ => 1.0,
        }
    }

    /// Number of distinct opcodes.
    pub fn count() -> usize {
        Opcode::all().len()
    }

    /// Stable index of this opcode within [`Opcode::all`].
    pub fn index(self) -> usize {
        Opcode::all()
            .iter()
            .position(|&o| o == self)
            .expect("opcode missing from Opcode::all()")
    }
}

/// The opcodes in their stable order, each with the lowercase mnemonic
/// of the text format: the one table [`Opcode::all`], [`Opcode::mnemonic`]
/// and [`Opcode::parse`] are generated from, so they cannot fall out of
/// step.
macro_rules! opcode_table {
    ($($op:ident => $text:literal,)*) => {
        impl Opcode {
            /// All opcodes in a stable order; the learned model's embedding
            /// table is indexed by position in this slice.
            pub fn all() -> &'static [Opcode] {
                &[$(Opcode::$op,)*]
            }

            /// Lowercase mnemonic used by the text format.
            pub(crate) fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$op => $text,)*
                }
            }

            /// Parse from the lowercase textual form produced by
            /// [`fmt::Display`].
            pub fn parse(s: &str) -> Option<Opcode> {
                match s {
                    $($text => Some(Opcode::$op),)*
                    _ => None,
                }
            }
        }
    };
}

opcode_table! {
    Parameter => "parameter",
    Constant => "constant",
    Iota => "iota",
    Rng => "rng",
    Abs => "abs",
    Negate => "negate",
    Exp => "exp",
    Log => "log",
    Sqrt => "sqrt",
    Rsqrt => "rsqrt",
    Tanh => "tanh",
    Logistic => "logistic",
    Relu => "relu",
    Sign => "sign",
    Floor => "floor",
    Ceil => "ceil",
    Cos => "cos",
    Sin => "sin",
    Not => "not",
    Convert => "convert",
    Copy => "copy",
    Add => "add",
    Subtract => "subtract",
    Multiply => "multiply",
    Divide => "divide",
    Maximum => "maximum",
    Minimum => "minimum",
    Power => "power",
    Remainder => "remainder",
    And => "and",
    Or => "or",
    Xor => "xor",
    Compare => "compare",
    Select => "select",
    Clamp => "clamp",
    Reshape => "reshape",
    Transpose => "transpose",
    Broadcast => "broadcast",
    Slice => "slice",
    Concatenate => "concatenate",
    Pad => "pad",
    Reverse => "reverse",
    DynamicSlice => "dynamic-slice",
    DynamicUpdateSlice => "dynamic-update-slice",
    Gather => "gather",
    Scatter => "scatter",
    Reduce => "reduce",
    ReduceWindow => "reduce-window",
    Dot => "dot",
    Convolution => "convolution",
    BatchNormInference => "batch-norm-inference",
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl OpCategory {
    /// All categories in a stable order (used to index feature one-hots and
    /// analytical-model coefficient tables).
    pub fn all() -> &'static [OpCategory] {
        &[
            OpCategory::Parameter,
            OpCategory::Leaf,
            OpCategory::ElementwiseUnary,
            OpCategory::ElementwiseBinary,
            OpCategory::ElementwiseTernary,
            OpCategory::DataMovement,
            OpCategory::Reduction,
            OpCategory::Dot,
            OpCategory::Convolution,
            OpCategory::Other,
        ]
    }

    /// Stable index within [`OpCategory::all`].
    pub fn index(self) -> usize {
        OpCategory::all()
            .iter()
            .position(|&c| c == self)
            .expect("category missing from OpCategory::all()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_opcodes_have_unique_indices() {
        let all = Opcode::all();
        for (i, &op) in all.iter().enumerate() {
            assert_eq!(op.index(), i, "{op} index mismatch");
        }
    }

    #[test]
    fn mnemonic_roundtrip() {
        for &op in Opcode::all() {
            assert_eq!(Opcode::parse(op.mnemonic()), Some(op), "{op}");
        }
        assert_eq!(Opcode::parse("nonsense"), None);
    }

    #[test]
    fn categories() {
        assert_eq!(Opcode::Add.category(), OpCategory::ElementwiseBinary);
        assert_eq!(Opcode::Tanh.category(), OpCategory::ElementwiseUnary);
        assert_eq!(Opcode::Select.category(), OpCategory::ElementwiseTernary);
        assert_eq!(Opcode::Dot.category(), OpCategory::Dot);
        assert_eq!(Opcode::Convolution.category(), OpCategory::Convolution);
        assert_eq!(Opcode::Reshape.category(), OpCategory::DataMovement);
        assert_eq!(Opcode::Reduce.category(), OpCategory::Reduction);
        assert_eq!(Opcode::Parameter.category(), OpCategory::Parameter);
        assert_eq!(Opcode::Constant.category(), OpCategory::Leaf);
    }

    #[test]
    fn elementwise_flag() {
        assert!(Opcode::Add.is_elementwise());
        assert!(Opcode::Tanh.is_elementwise());
        assert!(Opcode::Select.is_elementwise());
        assert!(!Opcode::Dot.is_elementwise());
        assert!(!Opcode::Reshape.is_elementwise());
    }

    #[test]
    fn arity() {
        assert_eq!(Opcode::Parameter.arity(), Some(0));
        assert_eq!(Opcode::Tanh.arity(), Some(1));
        assert_eq!(Opcode::Add.arity(), Some(2));
        assert_eq!(Opcode::Select.arity(), Some(3));
        assert_eq!(Opcode::Concatenate.arity(), None);
        assert_eq!(Opcode::Dot.arity(), Some(2));
        assert_eq!(Opcode::Reduce.arity(), Some(1));
    }

    #[test]
    fn transcendentals_cost_more() {
        assert!(Opcode::Exp.elementwise_cost() > Opcode::Add.elementwise_cost());
        assert!(Opcode::Tanh.elementwise_cost() > Opcode::Multiply.elementwise_cost());
    }

    #[test]
    fn category_indices_stable() {
        for (i, &c) in OpCategory::all().iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
