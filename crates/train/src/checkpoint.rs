//! Checkpointing: weight-only model snapshots (v1) and crash-safe full
//! training-state checkpoints (v2).
//!
//! Both versions share the same outer shape — a JSON metadata header
//! (magic, format version, [`ModelConfig`], [`LinearMode`], parameter
//! manifest) followed by raw little-endian f32 parameter data in manifest
//! order — read and written in bulk, never element-at-a-time.
//!
//! **v2** additionally carries everything needed to resume a run
//! *bit-exactly*: the full optimizer state (via
//! [`apollo_optim::Optimizer::state_save`]), the data-loader cursor, the
//! merge-RNG state, the LR backoff scale, the spike-detector window, and
//! the cumulative [`ResilienceReport`]. Every v2 section (header, params,
//! optimizer) ends with a CRC32, writes go through a temp file renamed
//! into place (crash-safe: a torn write never shadows a good checkpoint),
//! and [`latest_valid_checkpoint`] scans a directory skipping corrupt or
//! truncated files until it finds one that validates.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_optim::state::{extend_f32_le, f32_from_le};
use apollo_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::resilience::ResilienceReport;

const MAGIC: &str = "apollo-checkpoint";
const V1: u32 = 1;
const V2: u32 = 2;
/// No sane JSON header exceeds this.
const MAX_HEADER: u64 = 16 << 20;
/// Upper bound for param/optimizer sections (guards `vec![0; len]` on
/// garbage length prefixes).
const MAX_SECTION: u64 = 4 << 30;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial), table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Headers.

#[derive(Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    config: ModelConfig,
    mode: LinearMode,
    /// `(name, rows, cols)` in storage order.
    manifest: Vec<(String, usize, usize)>,
}

#[derive(Serialize, Deserialize)]
struct HeaderV2 {
    magic: String,
    version: u32,
    config: ModelConfig,
    mode: LinearMode,
    manifest: Vec<(String, usize, usize)>,
    train: TrainMeta,
}

/// Training-loop state carried by a v2 checkpoint alongside the weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainMeta {
    /// The next optimizer step to execute on resume.
    pub step: u64,
    /// Data-loader cursor ([`apollo_data::LmBatcher::cursor`]).
    pub data_cursor: u64,
    /// xoshiro256++ state words of the ReLoRA merge RNG.
    pub rng_state: Vec<u64>,
    /// Cached spare Gaussian of the merge RNG, as f32 bits.
    pub rng_spare: Option<u32>,
    /// Cumulative LR scale from `RollbackAndRetry` backoffs.
    pub lr_scale: f32,
    /// Spike-detector rolling window, oldest first.
    pub spike_window: Vec<f32>,
    /// Resilience counters accumulated so far.
    pub report: ResilienceReport,
}

/// A fully-loaded v2 checkpoint: model, topology mode, training metadata,
/// and the serialized optimizer state.
#[derive(Debug)]
pub struct TrainState {
    /// The reconstructed model with checkpointed weights.
    pub model: LlamaModel,
    /// Linear-layer mode the run was using.
    pub mode: LinearMode,
    /// Loop state (step, cursor, RNG, resilience counters).
    pub meta: TrainMeta,
    /// Opaque optimizer state for [`apollo_optim::Optimizer::state_load`].
    pub optimizer: Vec<u8>,
}

impl TrainState {
    /// Parses a v2 checkpoint blob produced by [`train_state_blob`] (or
    /// read verbatim from a [`save_train_state`] file), validating every
    /// section's framing and CRC against the blob's actual length.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if the blob is truncated, any section's
    /// checksum fails, the header is not v2, or the manifest is
    /// inconsistent.
    pub fn from_blob(bytes: &[u8]) -> io::Result<TrainState> {
        let mut remaining = bytes.len() as u64;
        let mut r = bytes;
        let head = read_section(&mut r, "header", MAX_HEADER, &mut remaining)?;
        let header: HeaderV2 = serde_json::from_slice(&head).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not a v2 checkpoint: {e}"),
            )
        })?;
        if header.magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a checkpoint",
            ));
        }
        if header.version != V2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a v2 checkpoint, found version {}", header.version),
            ));
        }
        let mut model = LlamaModel::new(&header.config, header.mode, &mut Rng::seed_from_u64(0));
        let body = read_section(&mut r, "params", MAX_SECTION, &mut remaining)?;
        fill_params(&mut model, &header.manifest, &body)?;
        let optimizer = read_section(&mut r, "optimizer", MAX_SECTION, &mut remaining)?;
        Ok(TrainState {
            model,
            mode: header.mode,
            meta: header.train,
            optimizer,
        })
    }
}

/// Serializes a full training state to the v2 framed byte format (header,
/// params, optimizer — each `u64 len | bytes | u32 crc`) without touching
/// disk. [`save_train_state`] writes exactly these bytes atomically.
///
/// # Errors
///
/// Returns an error if the header fails to serialize.
pub fn train_state_blob(
    model: &LlamaModel,
    mode: LinearMode,
    meta: &TrainMeta,
    optimizer: &[u8],
) -> io::Result<Vec<u8>> {
    let header = HeaderV2 {
        magic: MAGIC.to_string(),
        version: V2,
        config: model.config().clone(),
        mode,
        manifest: manifest_of(model),
        train: meta.clone(),
    };
    let head = serde_json::to_vec(&header).map_err(io::Error::other)?;
    let body = params_bytes(model);
    let mut out = Vec::with_capacity(head.len() + body.len() + optimizer.len() + 36);
    write_section(&mut out, &head)?;
    write_section(&mut out, &body)?;
    write_section(&mut out, optimizer)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Section framing (v2): u64 length | bytes | u32 crc.

fn write_section(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(&(bytes.len() as u64).to_le_bytes())?;
    w.write_all(bytes)?;
    w.write_all(&crc32(bytes).to_le_bytes())
}

/// Reads one framed section. `remaining` is the number of bytes left in
/// the file *before* this section's length prefix; it is decremented by
/// everything the section consumes. The length prefix is validated against
/// both the hard `max` and `remaining` **before** the payload buffer is
/// allocated, so a truncated or bit-flipped prefix can never demand an
/// allocation larger than the file itself — it routes to the
/// corrupt-checkpoint error path instead.
fn read_section(
    r: &mut impl Read,
    what: &str,
    max: u64,
    remaining: &mut u64,
) -> io::Result<Vec<u8>> {
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    let len = u64::from_le_bytes(len8);
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what} section claims {len} bytes (limit {max})"),
        ));
    }
    // 8-byte length prefix + payload + 4-byte CRC must fit in what's left.
    let budget = remaining.saturating_sub(8 + 4);
    if len > budget {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what} section claims {len} bytes but only {budget} remain in the file"),
        ));
    }
    *remaining -= 8 + len + 4;
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    let mut crc4 = [0u8; 4];
    r.read_exact(&mut crc4)?;
    let stored = u32::from_le_bytes(crc4);
    let computed = crc32(&bytes);
    if stored != computed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{what} section checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
        ));
    }
    Ok(bytes)
}

fn manifest_of(model: &LlamaModel) -> Vec<(String, usize, usize)> {
    model
        .params
        .iter()
        .map(|p| (p.name.clone(), p.value.rows(), p.value.cols()))
        .collect()
}

/// All parameters as one raw little-endian f32 buffer, manifest order.
fn params_bytes(model: &LlamaModel) -> Vec<u8> {
    let total: usize = model.params.iter().map(|p| p.value.len()).sum();
    let mut out = Vec::with_capacity(total * 4);
    for p in &model.params {
        extend_f32_le(&mut out, p.value.as_slice());
    }
    out
}

/// Fills `model`'s parameters from `bytes` in `manifest` order, validating
/// names and shapes.
fn fill_params(
    model: &mut LlamaModel,
    manifest: &[(String, usize, usize)],
    bytes: &[u8],
) -> io::Result<()> {
    let expected: usize = manifest.iter().map(|(_, r, c)| r * c * 4).sum();
    if bytes.len() != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "parameter payload is {} bytes, manifest expects {expected}",
                bytes.len()
            ),
        ));
    }
    let mut off = 0;
    for (name, rows, cols) in manifest {
        let n = rows * cols * 4;
        let data = f32_from_le(&bytes[off..off + n]).map_err(io::Error::other)?;
        off += n;
        let param = model
            .params
            .iter_mut()
            .find(|p| &p.name == name)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("unknown param {name}"))
            })?;
        if param.value.shape() != (*rows, *cols) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shape mismatch for {name}"),
            ));
        }
        param.value = Matrix::from_vec(*rows, *cols, data);
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: a sibling temp file is written,
/// flushed, and renamed into place, so a crash mid-write can never leave a
/// torn file under the final name.
fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut w = BufWriter::new(File::create(&tmp)?);
    write(&mut w)?;
    w.flush()?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// v1: weight-only snapshots.

/// Saves a weight-only (v1) model snapshot to `path`, atomically.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn save_model(model: &LlamaModel, mode: LinearMode, path: &Path) -> io::Result<()> {
    let header = Header {
        magic: MAGIC.to_string(),
        version: V1,
        config: model.config().clone(),
        mode,
        manifest: manifest_of(model),
    };
    let head = serde_json::to_vec(&header).map_err(io::Error::other)?;
    let body = params_bytes(model);
    atomic_write(path, |w| {
        w.write_all(&(head.len() as u64).to_le_bytes())?;
        w.write_all(&head)?;
        w.write_all(&body)
    })
}

/// Loads the model from a checkpoint saved by [`save_model`] (v1) **or**
/// [`save_train_state`] (v2, optimizer state ignored).
///
/// # Errors
///
/// Returns an error if the file is unreadable, the magic/version/checksum
/// mismatch, or any parameter is missing or has the wrong shape.
pub fn load_model(path: &Path) -> io::Result<LlamaModel> {
    let file_len = std::fs::metadata(path)?.len();
    let mut r = BufReader::new(File::open(path)?);
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    let head_len = u64::from_le_bytes(len8);
    if head_len > MAX_HEADER.min(file_len.saturating_sub(8)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a checkpoint",
        ));
    }
    let mut head = vec![0u8; head_len as usize];
    r.read_exact(&mut head)?;
    let header: Header = serde_json::from_slice(&head).map_err(io::Error::other)?;
    if header.magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a checkpoint",
        ));
    }
    let mut model = LlamaModel::new(&header.config, header.mode, &mut Rng::seed_from_u64(0));
    match header.version {
        V1 => {
            // Raw params follow the header directly, no framing. The total
            // comes from the (attacker-controllable) manifest, so cap it
            // against the bytes actually present before allocating.
            let total: usize = header.manifest.iter().map(|(_, r, c)| r * c * 4).sum();
            let body_budget = file_len.saturating_sub(8 + head_len);
            if total as u64 > body_budget {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("manifest expects {total} body bytes, file holds {body_budget}"),
                ));
            }
            let mut body = vec![0u8; total];
            r.read_exact(&mut body)?;
            fill_params(&mut model, &header.manifest, &body)?;
        }
        V2 => {
            // The v2 header is itself CRC-framed; skip its trailing CRC,
            // then read the checksummed params section.
            let mut crc4 = [0u8; 4];
            r.read_exact(&mut crc4)?;
            if u32::from_le_bytes(crc4) != crc32(&head) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "header section checksum mismatch",
                ));
            }
            let mut remaining = file_len.saturating_sub(8 + head_len + 4);
            let body = read_section(&mut r, "params", MAX_SECTION, &mut remaining)?;
            fill_params(&mut model, &header.manifest, &body)?;
        }
        v => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported checkpoint version {v}"),
            ));
        }
    }
    Ok(model)
}

// ---------------------------------------------------------------------------
// v2: full training state.

/// Saves a crash-safe full-state (v2) checkpoint: weights + optimizer
/// state + loop metadata, every section CRC32-checksummed, written
/// atomically via temp-file + rename.
///
/// # Errors
///
/// Returns any serialization or I/O error; on error the final `path` is
/// untouched.
pub fn save_train_state(
    model: &LlamaModel,
    mode: LinearMode,
    meta: &TrainMeta,
    optimizer: &[u8],
    path: &Path,
) -> io::Result<()> {
    let blob = train_state_blob(model, mode, meta, optimizer)?;
    atomic_write(path, |w| w.write_all(&blob))
}

/// Loads a full-state (v2) checkpoint saved by [`save_train_state`].
///
/// # Errors
///
/// Returns a descriptive error if the file is truncated, any section's
/// checksum fails, the header is not v2, or the manifest is inconsistent.
pub fn load_train_state(path: &Path) -> io::Result<TrainState> {
    TrainState::from_blob(&std::fs::read(path)?)
}

/// The canonical file name for the checkpoint taken before `step`.
pub fn checkpoint_file_name(step: u64) -> String {
    format!("step-{step:08}.ckpt")
}

fn checkpoint_step(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("step-")?.strip_suffix(".ckpt")?;
    digits.parse().ok()
}

/// Scans `dir` for `step-*.ckpt` files and loads the newest one that
/// validates end-to-end, skipping corrupt or truncated candidates. Returns
/// `Ok(None)` when the directory is missing or holds no valid checkpoint.
///
/// # Errors
///
/// Returns an error only when listing an *existing* directory fails.
pub fn latest_valid_checkpoint(dir: &Path) -> io::Result<Option<(PathBuf, TrainState)>> {
    if !dir.is_dir() {
        return Ok(None);
    }
    let mut candidates: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| checkpoint_step(&p).map(|s| (s, p)))
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, path) in candidates {
        match load_train_state(&path) {
            Ok(state) => return Ok(Some((path, state))),
            Err(_) => continue, // corrupt/truncated: fall back to an older one
        }
    }
    Ok(None)
}

/// Deletes the oldest `step-*.ckpt` files in `dir` so at most `keep`
/// remain. Returns how many were removed.
///
/// # Errors
///
/// Returns an error if the directory cannot be listed.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> io::Result<usize> {
    let mut candidates: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| checkpoint_step(&p).map(|s| (s, p)))
        .collect();
    if candidates.len() <= keep {
        return Ok(0);
    }
    candidates.sort_by_key(|(s, _)| *s);
    let excess = candidates.len() - keep;
    let mut removed = 0;
    for (_, path) in candidates.into_iter().take(excess) {
        if std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
    use apollo_optim::{AdamW, Optimizer};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("apollo-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("apollo-ckpt-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_meta(step: u64) -> TrainMeta {
        TrainMeta {
            step,
            data_cursor: 41,
            rng_state: vec![1, 2, 3, 4],
            rng_spare: Some(0x3F80_0000),
            lr_scale: 0.5,
            spike_window: vec![1.25, 2.5],
            report: ResilienceReport::default(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_model_exactly() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(200);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("dense.ckpt");
        save_model(&model, LinearMode::Dense, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        for (a, b) in model.params.iter().zip(&loaded.params) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.value, b.value, "{}", a.name);
            assert_eq!(a.trainable, b.trainable);
        }
    }

    #[test]
    fn loaded_model_evaluates_identically() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(201);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("eval.ckpt");
        save_model(&model, LinearMode::Dense, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
        let batcher = LmBatcher::new(corpus, 2, cfg.max_seq);
        let (tokens, targets, _) = batcher.validation_set(4);
        assert_eq!(
            model.eval_loss(&tokens, &targets, 2),
            loaded.eval_loss(&tokens, &targets, 2)
        );
    }

    #[test]
    fn lora_checkpoints_roundtrip() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(202);
        let mode = LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        };
        let model = LlamaModel::new(&cfg, mode, &mut rng);
        let path = tmp("lora.ckpt");
        save_model(&model, mode, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(model.params.len(), loaded.params.len());
        assert_eq!(model.num_trainable(), loaded.num_trainable());
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = tmp("garbage.ckpt");
        std::fs::write(&path, b"not a checkpoint at all............").unwrap();
        assert!(load_model(&path).is_err());
        assert!(load_train_state(&path).is_err());
    }

    #[test]
    fn train_state_roundtrips_bit_exactly() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(203);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let opt_bytes = AdamW::new().state_save().unwrap();
        let meta = test_meta(17);
        let path = tmp("full.ckpt");
        save_train_state(&model, LinearMode::Dense, &meta, &opt_bytes, &path).unwrap();
        let state = load_train_state(&path).unwrap();
        assert_eq!(state.meta, meta);
        assert_eq!(state.optimizer, opt_bytes);
        assert_eq!(state.mode, LinearMode::Dense);
        for (a, b) in model.params.iter().zip(&state.model.params) {
            assert_eq!(a.value, b.value, "{}", a.name);
        }
    }

    #[test]
    fn blob_roundtrip_is_bit_exact_and_matches_disk() {
        // blob → from_blob → blob must reproduce the same bytes, and the
        // blob must be byte-identical to what save_train_state puts on
        // disk (the in-memory path and the checkpoint path are one format).
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(212);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let opt_bytes = AdamW::new().state_save().unwrap();
        let meta = test_meta(23);
        let blob = train_state_blob(&model, LinearMode::Dense, &meta, &opt_bytes).unwrap();
        let state = TrainState::from_blob(&blob).unwrap();
        assert_eq!(state.meta, meta);
        assert_eq!(state.optimizer, opt_bytes);
        for (a, b) in model.params.iter().zip(&state.model.params) {
            assert_eq!(a.value, b.value, "{}", a.name);
        }
        assert_eq!(
            train_state_blob(&state.model, state.mode, &state.meta, &state.optimizer).unwrap(),
            blob,
            "re-serialization drifted"
        );
        let path = tmp("blob-vs-disk.ckpt");
        save_train_state(&model, LinearMode::Dense, &meta, &opt_bytes, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), blob);
    }

    #[test]
    fn from_blob_rejects_truncation_and_garbage() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(213);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let blob = train_state_blob(&model, LinearMode::Dense, &test_meta(1), &[7; 16]).unwrap();
        assert!(TrainState::from_blob(&blob[..blob.len() - 5]).is_err());
        assert!(TrainState::from_blob(b"definitely not a checkpoint").is_err());
        let mut flipped = blob.clone();
        flipped[blob.len() / 2] ^= 0x10;
        assert!(TrainState::from_blob(&flipped).is_err());
    }

    #[test]
    fn v1_loader_reads_v2_weights() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(204);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("v2-as-v1.ckpt");
        save_train_state(&model, LinearMode::Dense, &test_meta(3), &[], &path).unwrap();
        let loaded = load_model(&path).unwrap();
        for (a, b) in model.params.iter().zip(&loaded.params) {
            assert_eq!(a.value, b.value, "{}", a.name);
        }
    }

    #[test]
    fn v2_loader_rejects_v1_files_descriptively() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(205);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("v1-only.ckpt");
        save_model(&model, LinearMode::Dense, &path).unwrap();
        let err = load_train_state(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bit_flip_in_params_is_caught_by_checksum() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(206);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("flipped.ckpt");
        save_train_state(&model, LinearMode::Dense, &test_meta(5), &[1, 2, 3], &path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        // Flip a bit in the middle of the file (deep inside the params
        // section for any non-trivial model).
        crate::resilience::flip_bit(&path, len / 2, 3).unwrap();
        let err = load_train_state(&path).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(207);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("truncated.ckpt");
        save_train_state(&model, LinearMode::Dense, &test_meta(5), &[9; 64], &path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        crate::resilience::truncate_file(&path, len - 40).unwrap();
        assert!(load_train_state(&path).is_err());
    }

    #[test]
    fn scanner_skips_corrupt_and_returns_newest_valid() {
        let dir = tmp_dir("scan");
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(208);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        for step in [10u64, 20, 30] {
            let path = dir.join(checkpoint_file_name(step));
            save_train_state(&model, LinearMode::Dense, &test_meta(step), &[], &path).unwrap();
        }
        // Corrupt the newest, truncate the middle one: the scanner must
        // fall back to step 10.
        crate::resilience::flip_bit(&dir.join(checkpoint_file_name(30)), 100, 0).unwrap();
        crate::resilience::truncate_file(&dir.join(checkpoint_file_name(20)), 64).unwrap();
        let (path, state) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, dir.join(checkpoint_file_name(10)));
        assert_eq!(state.meta.step, 10);
    }

    #[test]
    fn scanner_handles_missing_dir_and_empty_dir() {
        let missing = std::env::temp_dir().join("apollo-ckpt-tests/definitely-not-here");
        assert!(latest_valid_checkpoint(&missing).unwrap().is_none());
        let empty = tmp_dir("empty");
        assert!(latest_valid_checkpoint(&empty).unwrap().is_none());
    }

    /// Byte offsets of every frame boundary in a v2 checkpoint: the start
    /// of each section's length prefix, payload, and CRC, plus EOF.
    fn frame_boundaries(bytes: &[u8]) -> Vec<u64> {
        let mut bounds = Vec::new();
        let mut off = 0u64;
        for _ in 0..3 {
            // header, params, optimizer
            bounds.push(off); // length prefix
            let len = u64::from_le_bytes(bytes[off as usize..off as usize + 8].try_into().unwrap());
            off += 8;
            bounds.push(off); // payload start
            off += len;
            bounds.push(off); // CRC start
            off += 4;
        }
        bounds.push(off); // EOF
        assert_eq!(off, bytes.len() as u64, "framing walk must cover the file");
        bounds
    }

    fn fuzz_fixture() -> (std::path::PathBuf, Vec<u8>) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(210);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let path = tmp("fuzz-base.ckpt");
        save_train_state(&model, LinearMode::Dense, &test_meta(7), &[42; 96], &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn truncation_at_every_frame_boundary_fails_gracefully() {
        let (_, bytes) = fuzz_fixture();
        let path = tmp("fuzz-trunc.ckpt");
        for &b in &frame_boundaries(&bytes) {
            // At the boundary and one byte to either side: every cut must
            // come back as a plain Err (never a panic, never an allocation
            // beyond what the truncated file can justify).
            for cut in [b.saturating_sub(1), b, b + 1] {
                let cut = cut.min(bytes.len() as u64);
                if cut == bytes.len() as u64 {
                    continue; // full file is the valid case
                }
                std::fs::write(&path, &bytes[..cut as usize]).unwrap();
                let err = load_train_state(&path).unwrap_err();
                assert!(
                    matches!(
                        err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "cut at {cut}: unexpected error kind {:?}",
                    err.kind()
                );
            }
        }
    }

    #[test]
    fn bit_flips_at_every_frame_boundary_fail_gracefully() {
        let (_, bytes) = fuzz_fixture();
        let path = tmp("fuzz-flip.ckpt");
        for &b in &frame_boundaries(&bytes) {
            let byte = b.min(bytes.len() as u64 - 1);
            for bit in [0u8, 7] {
                std::fs::write(&path, &bytes).unwrap();
                crate::resilience::flip_bit(&path, byte, bit).unwrap();
                // A flip in a length prefix lands in the cap or the CRC; a
                // flip in a payload or CRC lands in the checksum check.
                assert!(
                    load_train_state(&path).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_never_outallocates_the_file() {
        let (_, bytes) = fuzz_fixture();
        let path = tmp("fuzz-prefix.ckpt");
        let mut prefix_offsets = Vec::new();
        let mut off = 0usize;
        for _ in 0..3 {
            prefix_offsets.push(off);
            let len = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            off += 8 + len as usize + 4;
        }
        // 8 MiB: under every per-section cap (MAX_HEADER is the smallest
        // at 16 MiB), so only the remaining-bytes cap can reject it — and
        // it must, before any oversized buffer is allocated.
        let huge = (8u64 << 20).to_le_bytes();
        for &p in &prefix_offsets {
            let mut corrupt = bytes.clone();
            corrupt[p..p + 8].copy_from_slice(&huge);
            std::fs::write(&path, &corrupt).unwrap();
            let err = load_train_state(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix at {p}");
            assert!(
                err.to_string().contains("remain in the file"),
                "prefix at {p}: expected the remaining-bytes cap, got: {err}"
            );
        }
    }

    #[test]
    fn huge_v1_manifest_never_outallocates_the_file() {
        // A v1 header whose manifest claims gigabyte shapes on a tiny
        // file: the body allocation must be capped by the actual file size.
        let cfg = ModelConfig::test_tiny();
        let header = Header {
            magic: MAGIC.to_string(),
            version: V1,
            config: cfg.clone(),
            mode: LinearMode::Dense,
            manifest: vec![("tok_embedding".into(), 1 << 20, 1 << 10)],
        };
        let head = serde_json::to_vec(&header).unwrap();
        let path = tmp("fuzz-v1-manifest.ckpt");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(head.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&head);
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("file holds"), "{err}");
    }

    #[test]
    fn corrupt_files_still_fall_through_the_scanner() {
        // End-to-end: a directory of boundary-truncated checkpoints plus
        // one good old one must resolve to the good one.
        let dir = tmp_dir("fuzz-scan");
        let (_, bytes) = fuzz_fixture();
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(211);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let good = dir.join(checkpoint_file_name(1));
        save_train_state(&model, LinearMode::Dense, &test_meta(1), &[], &good).unwrap();
        for (i, &b) in frame_boundaries(&bytes).iter().enumerate() {
            if b == bytes.len() as u64 {
                continue;
            }
            let path = dir.join(checkpoint_file_name(10 + i as u64));
            std::fs::write(&path, &bytes[..b as usize]).unwrap();
        }
        let (path, state) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, good);
        assert_eq!(state.meta.step, 1);
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(209);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        for step in [1u64, 2, 3, 4, 5] {
            let path = dir.join(checkpoint_file_name(step));
            save_train_state(&model, LinearMode::Dense, &test_meta(step), &[], &path).unwrap();
        }
        assert_eq!(prune_checkpoints(&dir, 2).unwrap(), 3);
        let (path, _) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, dir.join(checkpoint_file_name(5)));
        assert!(!dir.join(checkpoint_file_name(3)).exists());
    }
}
