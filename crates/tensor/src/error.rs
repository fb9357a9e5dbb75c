//! Error type shared by all tensor operations.

use std::fmt;

/// Error returned by fallible tensor operations.
///
/// Every variant carries enough context to diagnose the failing call
/// without a debugger: offending shapes, axes, or element counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match (exactly or under
    /// broadcasting rules) did not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The raw buffer length does not match the number of elements implied
    /// by the requested shape.
    LengthMismatch {
        /// Number of elements provided.
        len: usize,
        /// Shape requested.
        shape: Vec<usize>,
    },
    /// An axis argument was out of range for the tensor's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// The tensor did not have the rank an operation requires
    /// (e.g. `matmul` requires rank 2).
    RankMismatch {
        /// Rank the operation expected.
        expected: usize,
        /// Rank it received.
        got: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A convolution/pooling geometry was invalid (e.g. kernel larger than
    /// the padded input).
    InvalidGeometry(String),
    /// An operation got a tensor in a storage layout it does not take,
    /// or two operands in different layouts (see
    /// [`Layout`](crate::Layout)).
    LayoutMismatch {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// Binary (de)serialisation failed.
    Io(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in `{op}`: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::LengthMismatch { len, shape } => {
                write!(
                    f,
                    "buffer of length {len} cannot be viewed as shape {shape:?}"
                )
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} tensor")
            }
            TensorError::RankMismatch { expected, got, op } => {
                write!(f, "`{op}` expects rank-{expected} tensors, got rank {got}")
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::LayoutMismatch { op } => {
                write!(f, "`{op}` got an operand in a layout it does not take")
            }
            TensorError::Io(msg) => write!(f, "tensor i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![4],
            op: "add",
        };
        let msg = e.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: TensorError = io.into();
        assert!(matches!(e, TensorError::Io(_)));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
