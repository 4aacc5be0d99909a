//! Model serialization: save trained parameters, reload into a freshly
//! constructed architecture.
//!
//! The workflow ships *pre-trained* CNNs to the inference tasks (Section
//! 5.4: "inference through the pre-trained CNNs"). Serialization covers the
//! parameter tensors plus an architecture fingerprint (the ordered layer
//! names) so a mismatched reload fails loudly instead of predicting garbage.
//!
//! Format: `TML1` magic, layer-name list, then per-parameter `(len, f32 LE
//! data)` records in [`Sequential::params`] order.

use crate::net::Sequential;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"TML1";

/// Errors from model save/load.
#[derive(Debug)]
pub enum ModelError {
    Io(std::io::Error),
    BadMagic,
    ArchitectureMismatch(String),
    Corrupt(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "i/o error: {e}"),
            ModelError::BadMagic => write!(f, "not a tinyml model file"),
            ModelError::ArchitectureMismatch(m) => write!(f, "architecture mismatch: {m}"),
            ModelError::Corrupt(m) => write!(f, "corrupt model file: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

/// Saves the model's parameters and architecture fingerprint to `path`.
pub fn save_model<P: AsRef<Path>>(net: &Sequential, path: P) -> Result<(), ModelError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;

    let names = net.layer_names();
    w.write_all(&(names.len() as u32).to_le_bytes())?;
    for n in &names {
        w.write_all(&(n.len() as u32).to_le_bytes())?;
        w.write_all(n.as_bytes())?;
    }

    let params = net.params();
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        w.write_all(&(p.len() as u64).to_le_bytes())?;
        for v in &p.data {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// A reader that knows how many bytes the file has left, so no length
/// read from the file can make the loader allocate past the file's end.
struct Input<R> {
    r: R,
    left: u64,
}

impl<R: Read> Input<R> {
    fn bytes(&mut self, n: usize, what: &str) -> Result<Vec<u8>, ModelError> {
        if n as u64 > self.left {
            return Err(ModelError::Corrupt(format!(
                "{what} needs {n} bytes, {} left in file",
                self.left
            )));
        }
        let mut buf = vec![0u8; n];
        self.r.read_exact(&mut buf)?;
        self.left -= n as u64;
        Ok(buf)
    }

    fn u32(&mut self, what: &str) -> Result<u32, ModelError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ModelError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Loads parameters from `path` into `net`. The file's layer-name list must
/// match the model's architecture exactly.
///
/// The file is untrusted: every count and length it declares is checked
/// against the target net and against the bytes left in the file before
/// anything is allocated for it, and trailing bytes are rejected. A
/// malformed file is an `Err`, never a panic or an abort.
pub fn load_model<P: AsRef<Path>>(net: &mut Sequential, path: P) -> Result<(), ModelError> {
    let file = File::open(path)?;
    let left = file.metadata()?.len();
    let mut r = Input { r: BufReader::new(file), left };
    if r.bytes(4, "magic")? != MAGIC {
        return Err(ModelError::BadMagic);
    }

    let n_names = r.u32("layer count")? as usize;
    if n_names > 10_000 || n_names as u64 * 4 > r.left {
        return Err(ModelError::Corrupt(format!("layer count {n_names} exceeds cap or file")));
    }
    let mut names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        let len = r.u32("layer name length")? as usize;
        if len > 256 {
            return Err(ModelError::Corrupt("layer name too long".into()));
        }
        let buf = r.bytes(len, "layer name")?;
        names.push(String::from_utf8(buf).map_err(|_| ModelError::Corrupt("bad name".into()))?);
    }
    let model_names: Vec<String> = net.layer_names().iter().map(|s| s.to_string()).collect();
    if names != model_names {
        return Err(ModelError::ArchitectureMismatch(format!(
            "file layers {names:?} vs model layers {model_names:?}"
        )));
    }

    let expected: Vec<usize> = net.params().iter().map(|t| t.len()).collect();
    let n_params = r.u32("parameter count")? as usize;
    if n_params != expected.len() {
        return Err(ModelError::Corrupt(format!(
            "file has {n_params} parameter tensors, model has {}",
            expected.len()
        )));
    }
    let mut flat = Vec::with_capacity(n_params);
    for (i, &want) in expected.iter().enumerate() {
        let len = r.u64("parameter length")?;
        if len != want as u64 {
            return Err(ModelError::Corrupt(format!(
                "parameter {i} has {len} values, model expects {want}"
            )));
        }
        let bytes = r.bytes(want * 4, "parameter data")?;
        flat.push(
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect(),
        );
    }
    if r.left != 0 {
        return Err(ModelError::Corrupt(format!("{} trailing bytes", r.left)));
    }
    net.load_params(&flat).map_err(ModelError::ArchitectureMismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid};
    use crate::tensor::Tensor;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tinyml-serialize");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn cnn(seed: u64) -> Sequential {
        Sequential::new()
            .add(Conv2d::new(2, 4, 3, 1, seed))
            .add(ReLU::new())
            .add(MaxPool2d::new(2))
            .add(Flatten::new())
            .add(Dense::new(4 * 4 * 4, 3, seed + 1))
            .add(Sigmoid::new())
    }

    #[test]
    fn save_load_reproduces_predictions() {
        let path = tmp("cnn.tml");
        let mut a = cnn(100);
        save_model(&a, &path).unwrap();

        let mut b = cnn(999); // different init
        load_model(&mut b, &path).unwrap();

        let x = Tensor::uniform(&[2, 8, 8], 1.0, 7);
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let path = tmp("arch.tml");
        let net = cnn(1);
        save_model(&net, &path).unwrap();
        let mut wrong = Sequential::new().add(Dense::new(4, 4, 2));
        assert!(matches!(load_model(&mut wrong, &path), Err(ModelError::ArchitectureMismatch(_))));
    }

    #[test]
    fn load_rejects_non_model_file() {
        let path = tmp("junk.tml");
        std::fs::write(&path, b"not a model").unwrap();
        let mut net = cnn(1);
        assert!(matches!(load_model(&mut net, &path), Err(ModelError::BadMagic)));
    }

    #[test]
    fn load_rejects_truncated_file() {
        let full = tmp("full.tml");
        let net = cnn(1);
        save_model(&net, &full).unwrap();
        let bytes = std::fs::read(&full).unwrap();
        let cut = tmp("cut.tml");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let mut target = cnn(2);
        assert!(load_model(&mut target, &cut).is_err());
    }

    /// Byte offsets of everything in a saved file except the f32 payloads
    /// (magic, counts, names, lengths), walked from the format itself.
    fn structural_offsets(net: &Sequential) -> Vec<usize> {
        let mut offs: Vec<usize> = (0..8).collect();
        let mut at = 8;
        for n in net.layer_names() {
            offs.extend(at..at + 4 + n.len());
            at += 4 + n.len();
        }
        offs.extend(at..at + 4);
        at += 4;
        for p in net.params() {
            offs.extend(at..at + 8);
            at += 8 + 4 * p.len();
        }
        offs
    }

    /// Seeded mutations of a saved model: flipped bytes, truncations and
    /// extensions. Loading must return `Err` (or, for a flip inside a
    /// weight payload, load other weights) and never panic or abort.
    #[test]
    fn mutated_files_fail_cleanly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let good = tmp("mut-good.tml");
        let net = cnn(3);
        save_model(&net, &good).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        let structural = structural_offsets(&net);
        let path = tmp("mut.tml");
        let mut rng = StdRng::seed_from_u64(0x70AD);
        let load = |data: &[u8]| {
            std::fs::write(&path, data).unwrap();
            let mut target = cnn(4);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                load_model(&mut target, &path)
            }))
            .expect("loader panicked")
        };
        for _ in 0..200 {
            let mut data = bytes.clone();
            // Half the flips target a header/length byte, where any change
            // must be rejected; the rest land anywhere.
            let at = if rng.gen_bool(0.5) {
                structural[rng.gen_range(0..structural.len())]
            } else {
                rng.gen_range(0..data.len())
            };
            data[at] ^= rng.gen_range(1..=255u8);
            let got = load(&data);
            if structural.contains(&at) {
                assert!(got.is_err(), "flip at structural byte {at} loaded");
            }
        }
        for _ in 0..50 {
            let cut = rng.gen_range(0..bytes.len());
            assert!(load(&bytes[..cut]).is_err(), "truncation to {cut} bytes loaded");
            let mut longer = bytes.clone();
            let extra = rng.gen_range(1..64);
            longer.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
            assert!(load(&longer).is_err(), "extension by {extra} bytes loaded");
        }
        // Huge declared sizes are rejected before allocation.
        let mut data = bytes.clone();
        data[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load(&data), Err(ModelError::Corrupt(_))));
        let n_params_at = 8 + net.layer_names().iter().map(|n| 4 + n.len()).sum::<usize>();
        data = bytes.clone();
        data[n_params_at..n_params_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load(&data), Err(ModelError::Corrupt(_))));
        assert!(load(&bytes).is_ok());
    }
}
