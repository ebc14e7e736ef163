//! Error type for the engine.

use std::fmt;

/// Errors produced by the hybrid engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Invalid engine configuration.
    Config {
        /// Human-readable description.
        what: String,
    },
    /// Execution failure (propagated from model/kernel layers or the
    /// device runtime).
    Exec {
        /// Human-readable description.
        what: String,
    },
}

impl EngineError {
    /// Convenience constructor for [`EngineError::Config`].
    pub fn config(what: impl Into<String>) -> Self {
        EngineError::Config { what: what.into() }
    }

    /// Convenience constructor for [`EngineError::Exec`].
    pub fn exec(what: impl Into<String>) -> Self {
        EngineError::Exec { what: what.into() }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config { what } => write!(f, "invalid engine config: {what}"),
            EngineError::Exec { what } => write!(f, "engine execution error: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<kt_model::ModelError> for EngineError {
    fn from(e: kt_model::ModelError) -> Self {
        match e {
            kt_model::ModelError::Config { .. } => EngineError::config(e.to_string()),
            kt_model::ModelError::Exec { .. } => EngineError::exec(e.to_string()),
        }
    }
}

impl From<kt_kernels::KernelError> for EngineError {
    fn from(e: kt_kernels::KernelError) -> Self {
        EngineError::exec(e.to_string())
    }
}

impl From<kt_tensor::TensorError> for EngineError {
    fn from(e: kt_tensor::TensorError) -> Self {
        EngineError::exec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: EngineError = kt_model::ModelError::exec("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: EngineError = kt_kernels::KernelError::shape("bang").into();
        assert!(e.to_string().contains("bang"));
    }
}
