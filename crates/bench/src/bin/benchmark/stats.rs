//! Order statistics and the loss digest.

/// The `p`-quantile (`0 <= p <= 1`) of `samples` by linear interpolation
/// between closest ranks (rank `p * (n - 1)`), or NaN for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Interquartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    (percentile(samples, 0.75) - percentile(samples, 0.25)) / median(samples)
}
/// FNV-1a over the bit patterns of `losses`: two runs with equal digests
/// took bit-identical steps.
pub fn loss_digest(losses: &[f32]) -> u64 {
    losses
        .iter()
        .flat_map(|l| l.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.75), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[7.0], 0.75), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v = [8.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(iqr_share(&v), 0.2);
        assert_eq!(iqr_share(&[3.0; 6]), 0.0);
    }
    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let a = loss_digest(&[1.0, 2.0]);
        assert_eq!(a, loss_digest(&[1.0, 2.0]));
        assert_ne!(a, loss_digest(&[2.0, 1.0]));
        assert_ne!(a, loss_digest(&[1.0, f32::from_bits(2.0f32.to_bits() + 1)]));
        assert_ne!(loss_digest(&[0.0]), loss_digest(&[-0.0]));
    }
}
