//! Checkpoints: one CRC-framed file format for weight-only snapshots, LoRA
//! adapters and crash-safe training checkpoints.
//!
//! A file is `section(header) | section(params) | section(optimizer) × N`,
//! each section `u64 len | bytes | u32 crc`. The header is JSON: magic,
//! format version, [`ModelConfig`], [`LinearMode`], the parameter manifest,
//! the loop state ([`TrainMeta`], absent from a weight-only snapshot) and
//! `N`. The params section is raw little-endian f32 in manifest order. The
//! optimizer sections are [`apollo_optim::Optimizer::state_save`] bytes:
//! one for a whole-model optimizer, one per trainable parameter for a
//! per-parameter (data-parallel) run — which is what lets a checkpoint
//! re-shard across replica counts — and none for a snapshot.
//!
//! One writer and one parser serve every file. `N` sits inside the CRC'd
//! header and trailing bytes are an error, so a file cut at any section
//! boundary is refused. The parser checks the header's geometry and sizes
//! the params section before anything is allocated, and requires the
//! manifest to be exactly the one the header's config builds: a damaged or
//! edited file is an `Err`, never a panic or a half-loaded model. Writes go
//! through a temp file renamed into place (a torn write never shadows a
//! good checkpoint), and [`latest_valid_checkpoint`] skips corrupt or
//! truncated files until it finds one that validates.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_optim::state::extend_f32_le;
use apollo_tensor::Rng;
use serde::{Deserialize, Serialize};

use crate::resilience::ResilienceReport;

const MAGIC: &str = "apollo-checkpoint";
/// Versions 1 (no CRCs) and 2 (one opaque optimizer section) are refused.
const VERSION: u32 = 3;

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
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// The header.

#[derive(Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    config: ModelConfig,
    mode: LinearMode,
    /// `(name, rows, cols)` in storage order.
    manifest: Vec<(String, usize, usize)>,
    /// The loop state of a training checkpoint; `None` in a snapshot.
    train: Option<TrainMeta>,
    /// How many optimizer sections follow the params section.
    optimizer_sections: usize,
}

/// The fields every version's header opens with, read first so that a file
/// of another version is named as such rather than misparsed.
#[derive(Deserialize)]
struct Tag {
    magic: String,
    version: u32,
}

/// Training-loop state carried by a training checkpoint alongside the
/// weights.
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

/// A fully-loaded training checkpoint: model, training metadata, and the
/// serialized optimizer state.
#[derive(Debug)]
pub struct TrainState {
    /// The reconstructed model with checkpointed weights.
    pub model: LlamaModel,
    /// Loop state (step, cursor, RNG, resilience counters).
    pub meta: TrainMeta,
    /// Opaque optimizer sections for
    /// [`apollo_optim::Optimizer::state_load`]: one for a whole-model
    /// optimizer, one per trainable parameter for a per-parameter run, none
    /// for fresh state.
    pub optimizer: Vec<Vec<u8>>,
}

impl TrainState {
    /// Parses a training checkpoint produced by [`train_state_blob`] (or
    /// read verbatim from a [`save_train_state`] file), validating every
    /// section's framing and CRC against the blob's actual length.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error unless the blob is a whole, intact
    /// training checkpoint of this version (see the module docs).
    pub fn from_blob(bytes: &[u8]) -> io::Result<TrainState> {
        let (model, train, optimizer) = parse(bytes)?;
        let meta = train.ok_or_else(|| {
            invalid("a weight-only snapshot, not a training checkpoint: it holds no loop state")
        })?;
        let optimizer = optimizer.into_iter().map(<[u8]>::to_vec).collect();
        Ok(TrainState {
            model,
            meta,
            optimizer,
        })
    }
}

/// Serializes a full training state with one optimizer section, without
/// touching disk. [`save_train_state`] writes the same bytes atomically.
///
/// # Errors
///
/// Returns an error if `mode` is not `model`'s (the header would contradict
/// its manifest) or the header fails to serialize.
pub fn train_state_blob(
    model: &LlamaModel,
    mode: LinearMode,
    meta: &TrainMeta,
    optimizer: &[u8],
) -> io::Result<Vec<u8>> {
    if mode != model.mode() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("mode {mode:?} is not the model's {:?}", model.mode()),
        ));
    }
    frame(model, Some(meta), &[optimizer])
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// The one writer and the one parser.

/// Appends one section whose payload `fill` writes to `out`.
fn put(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    fill(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[at + 8..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// `(name, rows, cols)` of every parameter, in storage order.
pub(crate) fn manifest_of(model: &LlamaModel) -> Vec<(String, usize, usize)> {
    model
        .params
        .iter()
        .map(|p| (p.name.clone(), p.value.rows(), p.value.cols()))
        .collect()
}

/// A whole file: `model`'s header and parameters, then one section per
/// entry of `optimizer`. The mode is `model`'s own, so the header cannot
/// contradict the manifest.
fn frame<S: AsRef<[u8]>>(
    model: &LlamaModel,
    train: Option<&TrainMeta>,
    optimizer: &[S],
) -> io::Result<Vec<u8>> {
    let header = Header {
        magic: MAGIC.to_string(),
        version: VERSION,
        config: model.config().clone(),
        mode: model.mode(),
        manifest: manifest_of(model),
        train: train.cloned(),
        optimizer_sections: optimizer.len(),
    };
    let head = serde_json::to_vec(&header).map_err(io::Error::other)?;
    let params: usize = model.params.iter().map(|p| p.value.len() * 4).sum();
    let opt: usize = optimizer.iter().map(|s| s.as_ref().len() + 12).sum();
    let mut out = Vec::with_capacity(head.len() + params + opt + 24);
    put(&mut out, |o| o.extend_from_slice(&head));
    put(&mut out, |o| {
        for p in &model.params {
            extend_f32_le(o, p.value.as_slice());
        }
    });
    for s in optimizer {
        put(&mut out, |o| o.extend_from_slice(s.as_ref()));
    }
    Ok(out)
}

/// Splits one section off the front of `rest`: its payload and the result
/// of its CRC check. The length prefix is checked against what is left
/// before anything is sliced, so a truncated or bit-flipped prefix is an
/// `Err`, never a panic or an allocation.
fn section<'a>(rest: &mut &'a [u8], what: &str) -> io::Result<(&'a [u8], io::Result<()>)> {
    let Some((len8, tail)) = rest.split_first_chunk::<8>() else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("the file ends before the {what} section"),
        ));
    };
    let len = u64::from_le_bytes(*len8);
    // Payload and 4-byte CRC must fit in what is left.
    if len.saturating_add(4) > tail.len() as u64 {
        let budget = tail.len().saturating_sub(4);
        return Err(invalid(format!(
            "{what} section claims {len} bytes but only {budget} remain in the file"
        )));
    }
    let (payload, tail) = tail.split_at(len as usize);
    let (crc4, tail) = tail.split_first_chunk::<4>().expect("budgeted above");
    *rest = tail;
    let (stored, computed) = (u32::from_le_bytes(*crc4), crc32(payload));
    let crc = if stored == computed {
        Ok(())
    } else {
        Err(invalid(format!(
            "{what} section checksum mismatch (stored {stored:08x}, computed {computed:08x})"
        )))
    };
    Ok((payload, crc))
}

/// What `LlamaModel::new` asserts of the head geometry and the linear
/// mode's rank, as an `Err`.
fn check_geometry(cfg: &ModelConfig, mode: LinearMode) -> io::Result<()> {
    let rank = match mode {
        LinearMode::Dense => 1,
        LinearMode::LoRa { rank, .. } | LinearMode::Factored { rank } => rank,
    };
    if cfg.n_heads == 0
        || !cfg.hidden.is_multiple_of(cfg.n_heads)
        || !cfg.head_dim().is_multiple_of(2)
        || rank == 0
    {
        return Err(invalid(format!(
            "header describes no buildable model (hidden {}, {} heads, {mode:?})",
            cfg.hidden, cfg.n_heads
        )));
    }
    Ok(())
}

/// Bytes of the params section of a `mode` model of `cfg`, from the
/// geometry alone — nothing is allocated — or `None` if it overflows.
fn params_len(cfg: &ModelConfig, mode: LinearMode) -> Option<u64> {
    let [v, h, i, layers] = [cfg.vocab_size, cfg.hidden, cfg.intermediate, cfg.n_layers];
    let linear = |r: usize, c: usize| match mode {
        LinearMode::Dense => r.checked_mul(c),
        LinearMode::LoRa { rank, .. } => r
            .checked_mul(c)?
            .checked_add(rank.checked_mul(r.checked_add(c)?)?),
        LinearMode::Factored { rank } => rank.checked_mul(r.checked_add(c)?),
    };
    // Per layer: two norm gains, q/k/v/o, gate/up and down.
    let layer = [
        h.checked_mul(2),
        linear(h, h)?.checked_mul(4),
        linear(h, i)?.checked_mul(2),
        linear(i, h),
    ];
    let layer = layer
        .into_iter()
        .try_fold(0usize, |a, b| a.checked_add(b?))?;
    // Embedding and head, final norm gain.
    let ends = v.checked_mul(h)?.checked_mul(2)?.checked_add(h)?;
    let total = layer.checked_mul(layers)?.checked_add(ends)?;
    u64::try_from(total).ok()?.checked_mul(4)
}

/// A parsed file: the model, its loop state, its optimizer sections.
type Parsed<'a> = (LlamaModel, Option<TrainMeta>, Vec<&'a [u8]>);

/// Parses a whole file: the model its header and params section build, its
/// loop state, and its optimizer sections. Every section is framed and
/// checksummed before a model is built.
fn parse(bytes: &[u8]) -> io::Result<Parsed<'_>> {
    let mut rest = bytes;
    let (head, crc) = section(&mut rest, "header")?;
    let tag = serde_json::from_slice::<Tag>(head)
        .ok()
        .filter(|t| t.magic == MAGIC);
    // Version 1 framed its header without a CRC: another version is named
    // before a checksum is blamed.
    if let Some(t) = tag.as_ref().filter(|t| t.version != VERSION) {
        return Err(invalid(format!(
            "unsupported checkpoint version {} (this build reads version {VERSION})",
            t.version
        )));
    }
    crc?;
    if tag.is_none() {
        return Err(invalid("not a checkpoint"));
    }
    let header: Header = serde_json::from_slice(head)
        .map_err(|e| invalid(format!("malformed checkpoint header: {e}")))?;
    let (params, crc) = section(&mut rest, "params")?;
    crc?;
    let mut optimizer = Vec::new();
    for i in 0..header.optimizer_sections {
        let (s, crc) = section(&mut rest, &format!("optimizer {i}"))?;
        crc?;
        optimizer.push(s);
    }
    if !rest.is_empty() {
        let n = rest.len();
        return Err(invalid(format!(
            "{n} trailing bytes after the last section"
        )));
    }

    let (cfg, mode) = (&header.config, header.mode);
    check_geometry(cfg, mode)?;
    if params_len(cfg, mode) != Some(params.len() as u64) {
        return Err(invalid(format!(
            "params section is {} bytes, not the size of a {mode:?} {}",
            params.len(),
            cfg.name
        )));
    }
    let mut model = LlamaModel::new(cfg, mode, &mut Rng::seed_from_u64(0));
    if manifest_of(&model) != header.manifest {
        return Err(invalid(format!(
            "the manifest is not the one a {mode:?} {} has (names, order and shapes)",
            cfg.name
        )));
    }
    let mut body = params;
    for p in &mut model.params {
        let (mine, tail) = body.split_at(4 * p.value.len());
        for (x, b) in p.value.as_mut_slice().iter_mut().zip(mine.chunks_exact(4)) {
            *x = f32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
        body = tail;
    }
    Ok((model, header.train, optimizer))
}

/// Writes `bytes` to `path` atomically: a sibling temp file is written,
/// synced, and renamed into place, so a crash mid-write can never leave a
/// torn file under the final name. The directory is synced last, so the
/// rename itself survives a crash.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

// ---------------------------------------------------------------------------
// Public entry points.

/// Saves a weight-only snapshot of `model` (no loop state, no optimizer
/// sections) to `path`, atomically.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn save_model(model: &LlamaModel, path: &Path) -> io::Result<()> {
    atomic_write(path, &frame::<&[u8]>(model, None, &[])?)
}

/// Loads the model from any checkpoint: a [`save_model`] snapshot or a
/// [`save_train_state`] file, whose loop state and optimizer sections are
/// validated and ignored.
///
/// # Errors
///
/// Returns an error if the file is unreadable, truncated or padded, any
/// checksum fails, the version is not this build's, or the header does not
/// describe a buildable model with this manifest.
pub fn load_model(path: &Path) -> io::Result<LlamaModel> {
    parse(&std::fs::read(path)?).map(|(model, _, _)| model)
}

/// Saves a crash-safe training checkpoint: weights, loop metadata and the
/// optimizer `sections`, every section CRC32-checksummed, written
/// atomically via temp-file + rename.
///
/// # Errors
///
/// Returns any serialization or I/O error; on error the final `path` is
/// untouched.
pub fn save_train_state(
    model: &LlamaModel,
    meta: &TrainMeta,
    sections: &[Vec<u8>],
    path: &Path,
) -> io::Result<()> {
    atomic_write(path, &frame(model, Some(meta), sections)?)
}

/// Loads a training checkpoint saved by [`save_train_state`].
///
/// # Errors
///
/// As [`TrainState::from_blob`], plus any error reading the file.
pub fn load_train_state(path: &Path) -> io::Result<TrainState> {
    TrainState::from_blob(&std::fs::read(path)?)
}

/// The canonical file name for the checkpoint taken before `step`.
pub fn checkpoint_file_name(step: u64) -> String {
    format!("step-{step:08}.ckpt")
}

/// `(step, path)` of every [`checkpoint_file_name`] file in `dir`.
fn step_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let step = |path: &Path| -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let digits = name.strip_prefix("step-")?.strip_suffix(".ckpt")?;
        digits.parse().ok()
    };
    let paths = std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path()));
    Ok(paths.filter_map(|p| step(&p).map(|s| (s, p))).collect())
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
    let mut candidates = step_files(dir)?;
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
    let mut candidates = step_files(dir)?;
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
    use apollo_obs::Obs;
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

    fn dense(seed: u64) -> LlamaModel {
        let cfg = ModelConfig::test_tiny();
        LlamaModel::new(&cfg, LinearMode::Dense, &mut Rng::seed_from_u64(seed))
    }

    fn adapter(seed: u64) -> LlamaModel {
        dense(seed).to_lora(4, 8.0, &mut Rng::seed_from_u64(seed))
    }

    fn snapshot(model: &LlamaModel) -> Vec<u8> {
        frame::<&[u8]>(model, None, &[]).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_linear_mode_roundtrips_exactly_at_its_computed_size() {
        let cfg = ModelConfig::test_tiny();
        let lora = LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        };
        for mode in [LinearMode::Dense, lora, LinearMode::Factored { rank: 3 }] {
            let model = LlamaModel::new(&cfg, mode, &mut Rng::seed_from_u64(202));
            let bytes: usize = model.params.iter().map(|p| 4 * p.value.len()).sum();
            assert_eq!(params_len(&cfg, mode), Some(bytes as u64), "{mode:?}");
            let path = tmp(&format!("mode-{bytes}.ckpt"));
            save_model(&model, &path).unwrap();
            let loaded = load_model(&path).unwrap();
            assert_eq!(loaded.mode(), mode);
            for (a, b) in model.params.iter().zip(&loaded.params) {
                assert_eq!((&a.name, a.trainable), (&b.name, b.trainable));
                assert_eq!(a.value, b.value, "{mode:?} {}", a.name);
            }
        }
    }

    #[test]
    fn loaded_model_evaluates_identically() {
        let cfg = ModelConfig::test_tiny();
        let model = dense(201);
        let path = tmp("eval.ckpt");
        save_model(&model, &path).unwrap();
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
    fn garbage_file_is_rejected() {
        let path = tmp("garbage.ckpt");
        std::fs::write(&path, b"not a checkpoint at all............").unwrap();
        assert!(load_model(&path).is_err());
        assert!(load_train_state(&path).is_err());
    }

    #[test]
    fn train_state_roundtrips_bit_exactly_in_memory_and_on_disk() {
        // blob → from_blob → blob must reproduce the same bytes, and the
        // blob must be byte-identical to what save_train_state puts on
        // disk (the in-memory path and the checkpoint path are one format).
        let model = dense(212);
        let opt_bytes = AdamW::new().state_save().unwrap();
        let meta = test_meta(23);
        let blob = train_state_blob(&model, LinearMode::Dense, &meta, &opt_bytes).unwrap();
        let state = TrainState::from_blob(&blob).unwrap();
        assert_eq!(state.meta, meta);
        assert_eq!(state.optimizer, vec![opt_bytes.clone()]);
        for (a, b) in model.params.iter().zip(&state.model.params) {
            assert_eq!(a.value, b.value, "{}", a.name);
        }
        let mode = state.model.mode();
        assert_eq!(
            train_state_blob(&state.model, mode, &state.meta, &state.optimizer[0]).unwrap(),
            blob,
            "re-serialization drifted"
        );
        let path = tmp("full.ckpt");
        save_train_state(&model, &meta, std::slice::from_ref(&opt_bytes), &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), blob);
        // Any number of sections, empty ones included.
        let sections = vec![opt_bytes, Vec::new(), vec![7; 5]];
        save_train_state(&model, &meta, &sections, &path).unwrap();
        assert_eq!(load_train_state(&path).unwrap().optimizer, sections);
        // A mode the model does not have would contradict the manifest.
        let lora = LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        };
        let err = train_state_blob(&model, lora, &meta, &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn load_model_reads_a_training_checkpoints_weights() {
        let model = dense(204);
        let path = tmp("train-as-model.ckpt");
        save_train_state(&model, &test_meta(3), &[vec![1, 2, 3]], &path).unwrap();
        let loaded = load_model(&path).unwrap();
        for (a, b) in model.params.iter().zip(&loaded.params) {
            assert_eq!(a.value, b.value, "{}", a.name);
        }
    }

    #[test]
    fn a_weight_only_snapshot_is_not_a_training_checkpoint() {
        let path = tmp("snapshot-only.ckpt");
        save_model(&dense(205), &path).unwrap();
        let err = load_train_state(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("weight-only snapshot"), "{err}");
    }

    #[test]
    fn versions_1_and_2_are_refused_by_name() {
        let header = |version: u32| format!(r#"{{"magic":"{MAGIC}","version":{version}}}"#);
        // Version 1: `u64 len | JSON | raw f32`, no CRC anywhere.
        let head = header(1);
        let mut v1 = (head.len() as u64).to_le_bytes().to_vec();
        v1.extend_from_slice(head.as_bytes());
        v1.extend_from_slice(&[0; 64]);
        // Version 2: CRC-framed header, params and one optimizer section.
        let mut v2 = Vec::new();
        put(&mut v2, |o| o.extend_from_slice(header(2).as_bytes()));
        put(&mut v2, |o| o.extend_from_slice(&[0; 64]));
        put(&mut v2, |_| {});
        for (version, bytes) in [(1, v1), (2, v2)] {
            let err = parse(&bytes).unwrap_err().to_string();
            let named = format!("unsupported checkpoint version {version} ");
            assert!(err.starts_with(&named), "{err}");
        }
    }

    #[test]
    fn bit_flip_in_params_is_caught_by_checksum() {
        let model = dense(206);
        let path = tmp("flipped.ckpt");
        save_train_state(&model, &test_meta(5), &[vec![1, 2, 3]], &path).unwrap();
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
    fn scanner_skips_corrupt_and_returns_newest_valid() {
        let dir = tmp_dir("scan");
        let model = dense(208);
        for step in [10u64, 20, 30] {
            let path = dir.join(checkpoint_file_name(step));
            save_train_state(&model, &test_meta(step), &[], &path).unwrap();
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

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        let model = dense(209);
        for step in [1u64, 2, 3, 4, 5] {
            let path = dir.join(checkpoint_file_name(step));
            save_train_state(&model, &test_meta(step), &[], &path).unwrap();
        }
        assert_eq!(prune_checkpoints(&dir, 2).unwrap(), 3);
        let (path, _) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, dir.join(checkpoint_file_name(5)));
        assert!(!dir.join(checkpoint_file_name(3)).exists());
    }

    // -----------------------------------------------------------------------
    // The frame battery: every fixture, every section boundary.

    /// `[length prefix, payload, CRC]` offsets of the header, the params
    /// and the `N` optimizer sections the header counts.
    fn sections_of(bytes: &[u8]) -> Vec<[usize; 3]> {
        let (head, _) = section(&mut &bytes[..], "header").unwrap();
        let header: Header = serde_json::from_slice(head).unwrap();
        let mut out = Vec::new();
        let mut off = 0;
        for _ in 0..2 + header.optimizer_sections {
            let len = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
            out.push([off, off + 8, off + 8 + len]);
            off += 8 + len + 4;
        }
        assert_eq!(off, bytes.len(), "framing walk must cover the file");
        out
    }

    /// Every frame boundary: each section's three offsets, plus EOF.
    fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut bounds: Vec<usize> = sections_of(bytes).into_iter().flatten().collect();
        bounds.push(bytes.len());
        bounds
    }

    /// A checkpoint a two-replica run wrote, with one optimizer section per
    /// trainable parameter. Made once, by whichever test asks first.
    fn per_param_checkpoint() -> Vec<u8> {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let run = || {
            let dir = tmp_dir("per-param-fixture");
            let mut model = dense(210);
            let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(64));
            let batcher = LmBatcher::new(corpus, 4, model.config().max_seq);
            let make = |_: usize| -> Box<dyn Optimizer> { Box::new(AdamW::new()) };
            let res = crate::ResilienceConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 1,
                ..crate::ResilienceConfig::default()
            };
            let (cfg, ddp) = (crate::TrainConfig::quick(2), crate::DdpConfig::new(2));
            crate::pretrain_ddp(
                &mut model,
                &make,
                &batcher,
                &cfg,
                &ddp,
                &res,
                &Obs::disabled(),
            );
            let bytes = std::fs::read(dir.join(checkpoint_file_name(1))).unwrap();
            let trainable = model.params.iter().filter(|p| p.trainable).count();
            assert_eq!(
                TrainState::from_blob(&bytes).unwrap().optimizer.len(),
                trainable
            );
            bytes
        };
        BYTES.get_or_init(run).clone()
    }

    /// A per-parameter checkpoint, a weight-only snapshot and an adapter.
    fn fixtures() -> [(&'static str, Vec<u8>); 3] {
        [
            ("per-parameter checkpoint", per_param_checkpoint()),
            ("snapshot", snapshot(&dense(211))),
            ("adapter", snapshot(&adapter(211))),
        ]
    }

    #[test]
    fn cuts_and_bit_flips_at_every_frame_boundary_fail_gracefully() {
        for (name, bytes) in fixtures() {
            for b in frame_boundaries(&bytes) {
                // At the boundary and one byte to either side: every cut
                // must come back as a plain Err (never a panic, never an
                // allocation beyond what the truncated file can justify).
                for cut in [b.saturating_sub(1), b, b + 1] {
                    if cut >= bytes.len() {
                        continue; // the full file is the valid case
                    }
                    let kind = parse(&bytes[..cut]).unwrap_err().kind();
                    let graceful = matches!(
                        kind,
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    );
                    assert!(
                        graceful,
                        "{name}, cut at {cut}: unexpected error kind {kind:?}"
                    );
                }
                // A flip in a length prefix lands in the length check or a
                // CRC; a flip in a payload or CRC lands in a CRC.
                let byte = b.min(bytes.len() - 1);
                for bit in [0u8, 7] {
                    let mut flipped = bytes.clone();
                    flipped[byte] ^= 1 << bit;
                    let caught = parse(&flipped).is_err();
                    assert!(
                        caught,
                        "{name}: flip at byte {byte} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_never_outallocates_the_file() {
        for (name, bytes) in fixtures() {
            for [prefix, _, _] in sections_of(&bytes) {
                // Only the remaining-bytes check can reject these, and it
                // must, before anything is sliced.
                for huge in [8u64 << 20, u64::MAX] {
                    let mut corrupt = bytes.clone();
                    corrupt[prefix..prefix + 8].copy_from_slice(&huge.to_le_bytes());
                    let err = parse(&corrupt).unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name} at {prefix}");
                    let msg = err.to_string();
                    assert!(
                        msg.contains("remain in the file"),
                        "{name} at {prefix}: {msg}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_file_cut_after_any_section_or_padded_is_refused() {
        let bytes = per_param_checkpoint();
        let sections = sections_of(&bytes);
        // Cut after the header, the params, and each optimizer section but
        // the last: every one ends exactly on a section boundary.
        for [_, _, crc] in &sections[..sections.len() - 1] {
            let err = parse(&bytes[..crc + 4]).unwrap_err();
            assert!(err.to_string().contains("ends before"), "{err}");
        }
        // One byte, or a whole extra section with its CRC, past the count.
        let mut padded = bytes.clone();
        padded.push(0);
        let mut extra = bytes;
        put(&mut extra, |o| o.extend_from_slice(&[1, 2, 3]));
        for bytes in [padded, extra] {
            assert!(parse(&bytes).unwrap_err().to_string().contains("trailing"));
        }
    }

    #[test]
    fn a_one_bit_rank_flip_in_an_adapter_is_a_checksum_error() {
        // Bit 2 turns `"rank":4` into `"rank":0`, which used to reach the
        // LoRA constructor's assertion.
        let mut bytes = snapshot(&adapter(216));
        let at = bytes.windows(8).position(|w| w == b"\"rank\":4");
        bytes[at.expect("the header names the rank") + 7] ^= 1 << 2;
        let path = tmp("rank-flip.ckpt");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn corrupt_files_still_fall_through_the_scanner() {
        // End-to-end: a directory of boundary-truncated checkpoints plus
        // one good old one must resolve to the good one.
        let dir = tmp_dir("fuzz-scan");
        let bytes = per_param_checkpoint();
        let good = dir.join(checkpoint_file_name(1));
        save_train_state(&dense(211), &test_meta(1), &[], &good).unwrap();
        for (i, b) in frame_boundaries(&bytes).into_iter().enumerate() {
            if b < bytes.len() {
                let path = dir.join(checkpoint_file_name(10 + i as u64));
                std::fs::write(&path, &bytes[..b]).unwrap();
            }
        }
        let (path, state) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, good);
        assert_eq!(state.meta.step, 1);
    }

    // -----------------------------------------------------------------------
    // A header with a valid CRC that describes something else.

    /// `bytes` with its header edited by `edit`, re-framed with a valid
    /// CRC, must be an `Err` (each of these used to panic or load).
    fn refused(bytes: &[u8], what: &str, edit: impl FnOnce(&mut Header)) {
        let mut rest = bytes;
        let (head, _) = section(&mut rest, "header").unwrap();
        let mut header: Header = serde_json::from_slice(head).unwrap();
        edit(&mut header);
        let head = serde_json::to_vec(&header).unwrap();
        let mut edited = Vec::new();
        put(&mut edited, |o| o.extend_from_slice(&head));
        edited.extend_from_slice(rest);
        let err = parse(&edited).expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }

    #[test]
    fn a_header_claiming_rank_zero_is_refused() {
        let rank0 = |h: &mut Header| {
            h.mode = LinearMode::LoRa {
                rank: 0,
                alpha: 8.0,
            }
        };
        refused(&snapshot(&adapter(217)), "an adapter at rank 0", rank0);
        // A dense model's size: only the rank check stands between this
        // header and the constructor's assertion.
        refused(
            &snapshot(&dense(217)),
            "dense weights at LoRA rank 0",
            rank0,
        );
    }

    #[test]
    fn a_header_with_zero_or_indivisible_heads_is_refused() {
        let bytes = snapshot(&dense(218));
        refused(&bytes, "0 heads", |h| h.config.n_heads = 0);
        refused(&bytes, "3 heads over 16", |h| h.config.n_heads = 3);
    }

    #[test]
    fn a_manifest_dimension_that_overflows_is_refused() {
        let bytes = snapshot(&dense(219));
        refused(&bytes, "a 2^62-row embedding", |h| {
            h.manifest[0].1 = 1 << 62
        });
    }

    #[test]
    fn a_manifest_naming_one_weight_twice_is_refused() {
        // `wq` twice and no `wk`: the old fill left `wk` at its seed-0 init.
        refused(&snapshot(&dense(220)), "wq listed twice", |h| {
            let wk = h.manifest.iter().position(|m| m.0 == "layers.0.attn.wk");
            h.manifest[wk.unwrap()].0 = "layers.0.attn.wq".into();
        });
    }

    #[test]
    fn a_header_claiming_a_huge_model_is_refused_before_allocating() {
        let bytes = snapshot(&dense(221));
        refused(&bytes, "vocab 2^40", |h| h.config.vocab_size = 1 << 40);
        refused(&bytes, "2^40 layers", |h| h.config.n_layers = 1 << 40);
        refused(&bytes, "hidden 2^62", |h| h.config.hidden = 1 << 62);
    }
}
