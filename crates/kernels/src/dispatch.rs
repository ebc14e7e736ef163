//! Arithmetic-intensity-aware kernel selection (§3.2, Figure 7).
//!
//! The paper's microbenchmarks show the lightweight vector kernel
//! outperforming the tiled AMX kernel "when ARI is four or fewer tokens
//! per expert"; above that, tile amortization wins. The hybrid backend
//! therefore switches on the number of activation rows each expert must
//! process.
//!
//! The paper picks the class by measured speed, and so does the default
//! here. This crate's tiled class is an AVX-512 FMA stand-in, not AMX
//! tiles, and on an AVX-512 host it loses to the vector class at every
//! bucket size the served model produces (EXPERIMENTS.md, Figure 7). The
//! class changes no bits, so [`Backend::default`] is the vector class;
//! the hybrid dispatch and [`ARI_CROSSOVER`] stay as the Figure 7 arm
//! and the ablation, and come back as the default with real AMX tiles.

/// Tokens-per-expert at or below which the vector kernel is selected.
///
/// Figure 7: "AVX-512 consistently outperforming AMX when ARI is four
/// or fewer tokens per expert."
pub const ARI_CROSSOVER: usize = 4;

/// The two kernel classes of the hybrid backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Tile-blocked high-throughput kernel (AMX-class) for prefill-like
    /// high arithmetic intensity.
    Tiled,
    /// Fine-grained vector kernel (AVX-512-class) for decode-like low
    /// arithmetic intensity.
    Vector,
}

/// Selects the kernel class for a task processing `tokens_per_expert`
/// activation rows.
pub fn select_kernel(tokens_per_expert: usize) -> KernelClass {
    if tokens_per_expert <= ARI_CROSSOVER {
        KernelClass::Vector
    } else {
        KernelClass::Tiled
    }
}

/// Backend selection for the fused MoE operator.
///
/// Every backend gives the same bits; the choice is speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// ARI-based hybrid dispatch (the paper's default with AMX tiles;
    /// here the Figure 7 arm).
    HybridAmxAvx512,
    /// Force the tiled kernel for all tasks (pure-AMX ablation).
    TiledOnly,
    /// Force the vector kernel for all tasks: the default, since the
    /// stand-in tiled kernel is the slower class at every served bucket
    /// (see the module doc).
    #[default]
    VectorOnly,
}

impl Backend {
    /// Resolves the kernel class for a given tokens-per-expert count.
    pub fn kernel_for(self, tokens_per_expert: usize) -> KernelClass {
        match self {
            Backend::HybridAmxAvx512 => select_kernel(tokens_per_expert),
            Backend::TiledOnly => KernelClass::Tiled,
            Backend::VectorOnly => KernelClass::Vector,
        }
    }

    /// Parses the configuration-string names used by the injection
    /// framework (Listing 1: `backend: "hybrid_AMX_AVX512"`).
    pub fn parse(name: &str) -> Option<Backend> {
        match name {
            "hybrid_AMX_AVX512" | "hybrid" => Some(Backend::HybridAmxAvx512),
            "AMX" | "tiled" => Some(Backend::TiledOnly),
            "AVX512" | "vector" => Some(Backend::VectorOnly),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_matches_paper() {
        assert_eq!(select_kernel(1), KernelClass::Vector);
        assert_eq!(select_kernel(4), KernelClass::Vector);
        assert_eq!(select_kernel(5), KernelClass::Tiled);
        assert_eq!(select_kernel(1024), KernelClass::Tiled);
    }

    #[test]
    fn forced_backends_ignore_ari() {
        assert_eq!(Backend::TiledOnly.kernel_for(1), KernelClass::Tiled);
        assert_eq!(Backend::VectorOnly.kernel_for(1000), KernelClass::Vector);
        assert_eq!(
            Backend::HybridAmxAvx512.kernel_for(1000),
            KernelClass::Tiled
        );
    }

    #[test]
    fn default_is_the_vector_class() {
        assert_eq!(Backend::default(), Backend::VectorOnly);
    }

    #[test]
    fn backend_names_parse() {
        assert_eq!(
            Backend::parse("hybrid_AMX_AVX512"),
            Some(Backend::HybridAmxAvx512)
        );
        assert_eq!(Backend::parse("AMX"), Some(Backend::TiledOnly));
        assert_eq!(Backend::parse("AVX512"), Some(Backend::VectorOnly));
        assert_eq!(Backend::parse("cuda"), None);
    }
}
