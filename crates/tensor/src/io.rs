//! Minimal binary (de)serialisation for tensors, used by checkpointing.
//!
//! Format (little-endian): magic `b"CQT1"`, `u32` rank, `u64` per axis
//! length, then `f32` data. No external serialisation crate is needed.

use std::io::{Read, Write};

use crate::{Result, Tensor, TensorError};

const MAGIC: &[u8; 4] = b"CQT1";
/// Largest element count a header may claim.
const MAX_ELEMS: usize = 1 << 31;
/// Elements read per chunk.
const CHUNK_ELEMS: usize = 1 << 16;

/// Writes a tensor to `w` in the `CQT1` binary format.
///
/// A `&mut` reference can be passed as the writer. The elements are
/// written row-major, so a lane tensor is converted first.
///
/// # Errors
///
/// Propagates underlying I/O errors as [`TensorError::Io`].
pub fn write_tensor<W: Write>(mut w: W, t: &Tensor) -> Result<()> {
    let t = &t.to_nchw();
    w.write_all(MAGIC)?;
    w.write_all(&(t.rank() as u32).to_le_bytes())?;
    for &d in t.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    for &v in t.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a tensor from `r` in the `CQT1` binary format.
///
/// A `&mut` reference can be passed as the reader.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on malformed input (bad magic, truncated
/// data, or an absurd rank or shape).
pub fn read_tensor<R: Read>(mut r: R) -> Result<Tensor> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TensorError::Io(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let mut rank_buf = [0u8; 4];
    r.read_exact(&mut rank_buf)?;
    let rank = u32::from_le_bytes(rank_buf) as usize;
    if rank > 16 {
        return Err(TensorError::Io(format!("implausible rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        dims.push(u64::from_le_bytes(b) as usize);
    }
    let len = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .filter(|&n| n <= MAX_ELEMS)
        .ok_or_else(|| TensorError::Io(format!("implausible shape {dims:?}")))?;
    // Read in bounded chunks, so a header that claims more data than the
    // stream carries fails on the missing bytes instead of allocating
    // its claimed size up front.
    let mut data = Vec::new();
    let mut buf = vec![0u8; 4 * len.min(CHUNK_ELEMS)];
    while data.len() < len {
        let bytes = &mut buf[..4 * (len - data.len()).min(CHUNK_ELEMS)];
        r.read_exact(bytes)?;
        data.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }
    Tensor::from_vec(data, &dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_shape_and_data() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let t = Tensor::randn(&[2, 3, 4], 0.0, 1.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::scalar(4.25);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(buf.as_slice()).unwrap();
        assert_eq!(back.item(), 4.25);
        assert_eq!(back.rank(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x00\x00\x00\x00".to_vec();
        assert!(matches!(
            read_tensor(buf.as_slice()),
            Err(TensorError::Io(_))
        ));
    }

    #[test]
    fn truncated_data_rejected() {
        let t = Tensor::ones(&[4]);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_tensor(buf.as_slice()).is_err());
    }

    #[test]
    fn implausible_rank_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&100u32.to_le_bytes());
        assert!(read_tensor(buf.as_slice()).is_err());
    }

    fn header(dims: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for d in dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf
    }

    #[test]
    fn overflowing_shape_rejected() {
        let buf = header(&[1 << 32, 1 << 32]);
        assert!(matches!(
            read_tensor(buf.as_slice()),
            Err(TensorError::Io(_))
        ));
    }

    #[test]
    fn oversized_claim_fails_on_missing_data() {
        // 2^31 elements (8 GiB) claimed, 8 bytes carried.
        let mut buf = header(&[1 << 31]);
        buf.extend_from_slice(&[0u8; 8]);
        assert!(read_tensor(buf.as_slice()).is_err());
    }

    #[test]
    fn multi_chunk_round_trip() {
        let t = Tensor::from_vec(
            (0..CHUNK_ELEMS + 3).map(|i| i as f32).collect(),
            &[CHUNK_ELEMS + 3],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        assert_eq!(read_tensor(buf.as_slice()).unwrap(), t);
    }
}
