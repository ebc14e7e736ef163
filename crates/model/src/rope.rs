//! Rotary position embeddings (RoPE).
//!
//! Applied per attention head to queries and keys; pairs `(2i, 2i+1)` of
//! each head vector are rotated by an angle that grows with position and
//! shrinks with dimension index.

/// Precomputed RoPE rotation table.
#[derive(Debug, Clone)]
pub struct Rope {
    /// `cos[pos * half + i]`, `half = head_dim / 2`.
    cos: Vec<f32>,
    sin: Vec<f32>,
    head_dim: usize,
    max_seq: usize,
}

impl Rope {
    /// Precomputes rotations for positions `0..max_seq`.
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd or zero.
    pub fn new(head_dim: usize, max_seq: usize, theta: f32) -> Self {
        assert!(
            head_dim >= 2 && head_dim.is_multiple_of(2),
            "head_dim must be even"
        );
        let half = head_dim / 2;
        let mut cos = vec![0.0f32; max_seq * half];
        let mut sin = vec![0.0f32; max_seq * half];
        for pos in 0..max_seq {
            for i in 0..half {
                let freq = theta.powf(-2.0 * i as f32 / head_dim as f32);
                let angle = pos as f32 * freq;
                cos[pos * half + i] = angle.cos();
                sin[pos * half + i] = angle.sin();
            }
        }
        Rope {
            cos,
            sin,
            head_dim,
            max_seq,
        }
    }

    /// Head dimension this table was built for.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Maximum supported position (exclusive).
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Rotates one head vector in place for position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= max_seq` or the vector length differs from
    /// `head_dim`.
    pub fn apply(&self, v: &mut [f32], pos: usize) {
        assert_eq!(v.len(), self.head_dim, "vector length != head_dim");
        assert!(pos < self.max_seq, "position {pos} beyond RoPE table");
        let half = self.head_dim / 2;
        let cos = &self.cos[pos * half..(pos + 1) * half];
        let sin = &self.sin[pos * half..(pos + 1) * half];
        for i in 0..half {
            let (a, b) = (v[2 * i], v[2 * i + 1]);
            v[2 * i] = a * cos[i] - b * sin[i];
            v[2 * i + 1] = a * sin[i] + b * cos[i];
        }
    }

    /// Applies RoPE to every `head_dim`-sized chunk of `v` (a packed
    /// multi-head vector) at position `pos`.
    pub fn apply_multihead(&self, v: &mut [f32], pos: usize) {
        debug_assert_eq!(v.len() % self.head_dim, 0);
        for chunk in v.chunks_mut(self.head_dim) {
            self.apply(chunk, pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn position_zero_is_identity() {
        let rope = Rope::new(8, 16, 10_000.0);
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let orig = v.clone();
        rope.apply(&mut v, 0);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let rope = Rope::new(16, 64, 10_000.0);
        let mut v: Vec<f32> = (0..16).map(|i| (i as f32) - 7.5).collect();
        let norm0: f32 = v.iter().map(|x| x * x).sum();
        rope.apply(&mut v, 37);
        let norm1: f32 = v.iter().map(|x| x * x).sum();
        assert!((norm0 - norm1).abs() < 1e-3);
    }

    #[test]
    fn inner_product_depends_only_on_relative_position() {
        // The defining RoPE property: <R_m q, R_n k> depends on (m - n).
        let rope = Rope::new(8, 128, 10_000.0);
        let q0 = vec![0.3f32, -1.2, 0.7, 0.1, 1.0, -0.4, 0.2, 0.9];
        let k0 = vec![-0.5f32, 0.8, 0.2, -0.3, 0.6, 1.1, -0.7, 0.4];
        let pairs = [(3usize, 1usize), (10, 8), (50, 48)];
        let mut dots = Vec::new();
        for (m, n) in pairs {
            let mut q = q0.clone();
            let mut k = k0.clone();
            rope.apply(&mut q, m);
            rope.apply(&mut k, n);
            dots.push(dot(&q, &k));
        }
        assert!((dots[0] - dots[1]).abs() < 1e-4);
        assert!((dots[1] - dots[2]).abs() < 1e-4);
    }

    #[test]
    fn multihead_applies_per_chunk() {
        let rope = Rope::new(4, 16, 10_000.0);
        let mut packed = vec![1.0f32, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let mut single = vec![1.0f32, 0.0, 1.0, 0.0];
        rope.apply_multihead(&mut packed, 5);
        rope.apply(&mut single, 5);
        assert_eq!(&packed[..4], single.as_slice());
        assert_eq!(&packed[4..], single.as_slice());
    }

    #[test]
    #[should_panic(expected = "beyond RoPE table")]
    fn out_of_range_position_panics() {
        let rope = Rope::new(4, 8, 10_000.0);
        let mut v = vec![0.0f32; 4];
        rope.apply(&mut v, 8);
    }
}
