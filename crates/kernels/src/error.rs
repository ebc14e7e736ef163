//! Error type for kernel execution.

use std::fmt;

/// Errors produced by kernel entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Operand shapes are incompatible.
    Shape {
        /// Human-readable description of the mismatch.
        what: String,
    },
    /// A configuration value is invalid (e.g. zero threads).
    Config {
        /// Human-readable description of the invalid setting.
        what: String,
    },
}

impl KernelError {
    /// Convenience constructor for [`KernelError::Shape`].
    pub fn shape(what: impl Into<String>) -> Self {
        KernelError::Shape { what: what.into() }
    }

    /// Convenience constructor for [`KernelError::Config`].
    pub fn config(what: impl Into<String>) -> Self {
        KernelError::Config { what: what.into() }
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Shape { what } => write!(f, "shape mismatch: {what}"),
            KernelError::Config { what } => write!(f, "invalid config: {what}"),
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(KernelError::shape("a.cols != w.k")
            .to_string()
            .contains("a.cols"));
        assert!(KernelError::config("threads=0")
            .to_string()
            .contains("threads"));
    }
}
