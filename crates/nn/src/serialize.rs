//! Plain-text weight serialisation.
//!
//! A deliberately simple, dependency-free format (one parameter per line):
//!
//! ```text
//! bikecap-params v3
//! meta config_hash=00000000deadbeef grid=16x12 history=8 horizon=4
//! body bytes=1234 crc32=9f0a3c11
//! <name> <d0>x<d1>x... <v0> <v1> ...
//! ```
//!
//! Floats are written with full round-trip precision via `{:?}` formatting.
//! Version 2 adds the optional `meta` line: a hash of the producing model's
//! configuration plus the grid/window shape, so a serving process can reject
//! a checkpoint that disagrees with the architecture it expects *before*
//! hitting a low-level tensor-shape mismatch. Version 3 adds the `body`
//! integrity line — the exact byte length of the parameter block (so a
//! truncated file is reported as [`LoadParamsError::Truncated`]) and a CRC32
//! over everything *except* the body line itself (so any bit flip in the
//! header, the meta line or the weights is reported as
//! [`LoadParamsError::ChecksumMismatch`], and a flip inside the body line
//! invalidates the declared length/CRC). Versions 1 and 2 still load,
//! without integrity checking.
//!
//! Version 4 adds per-tensor dtypes for quantized checkpoints (see
//! `bikecap-quant` and DESIGN.md Appendix J). Each parameter line becomes
//! `<name> <dtype> <shape> <payload>` where `dtype` is `f32` (payload:
//! decimal values as in v3), `f16` (payload: one hex token of
//! little-endian half bits), `q8_0` (natural-layout Q8_0 blocks) or
//! `q8_0t` (transposed-layout Q8_0 blocks, used for matmul weights). The
//! v3 `body` integrity line is retained unchanged, so truncation and bit
//! flips in quantized checkpoints surface the same typed errors. An
//! unknown dtype tag yields [`LoadParamsError::UnknownDtype`]; a binary
//! predating v4 rejects the unrecognised header with a typed
//! [`LoadParamsError::Parse`], never a garbled load.
//!
//! All writers are crash-atomic: content is rendered in memory, written to a
//! `<name>.<pid>.tmp` sibling, fsynced, and renamed over the destination, so
//! a kill at any instant leaves either the old file or the new file — never
//! a torn one. [`clean_stale_tmp`] sweeps orphaned temp files at startup.
//! The write path carries the `io.checkpoint.write` failpoint
//! (see `bikecap-faults`), which simulates a mid-write crash by leaving a
//! half-written temp file behind.
//!
//! Loading writes values **in place** through [`ParamStore::set_value`],
//! which is what lets a serving process hot-swap weights without
//! recompiling: `bikecap-ir` plans reference parameters by
//! [`bikecap_autograd::ParamId`] and
//! resolve them from the store at execution time, so a checkpoint load (or
//! an optimizer step) is immediately visible to every cached compiled plan
//! (DESIGN.md Appendix F).

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use bikecap_autograd::ParamStore;
use bikecap_quant::{F16Tensor, Q8Tensor, QuantEntry};
use bikecap_tensor::Tensor;

/// Magic header of the legacy (un-annotated) weight format.
const HEADER_V1: &str = "bikecap-params v1";

/// Magic header of the v2 weight format (adds the `meta` line).
const HEADER_V2: &str = "bikecap-params v2";

/// Magic header of the v3 weight format (adds the `body` integrity
/// line carrying the parameter-block byte length and content CRC32).
const HEADER_V3: &str = "bikecap-params v3";

/// Magic header of the quantized weight format (adds a per-tensor dtype
/// tag so f16/Q8_0 payloads can live beside f32 parameters).
const HEADER_V4: &str = "bikecap-params v4";

/// Lookup table for the IEEE 802.3 CRC32 polynomial (reflected 0xedb88320).
static CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) over a sequence of byte chunks, as if concatenated.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut c = !0u32;
    for chunk in chunks {
        for &b in *chunk {
            c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Versioned description of the model a checkpoint was saved from.
///
/// The `config_hash` is an opaque fingerprint computed by the model crate
/// over every architecture hyper-parameter; the remaining fields duplicate
/// the handful of values a server needs to rebuild a compatible model (and
/// to print actionable mismatch errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Fingerprint of the full model configuration.
    pub config_hash: u64,
    /// Grid extent `(rows, cols)`.
    pub grid: (usize, usize),
    /// Historical slots `h` consumed per window.
    pub history: usize,
    /// Future slots `p` predicted per window.
    pub horizon: usize,
}

impl fmt::Display for CheckpointMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config_hash={:016x} grid={}x{} history={} horizon={}",
            self.config_hash, self.grid.0, self.grid.1, self.history, self.horizon
        )
    }
}

impl CheckpointMeta {
    fn parse(line: &str, line_no: usize) -> Result<Self, LoadParamsError> {
        let mut hash = None;
        let mut grid = None;
        let mut history = None;
        let mut horizon = None;
        let bad = |message: String| LoadParamsError::Parse { line: line_no, message };
        for field in line.split_whitespace().skip(1) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("meta field '{field}' is not key=value")))?;
            match key {
                "config_hash" => {
                    hash = Some(u64::from_str_radix(value, 16).map_err(|_| {
                        bad(format!("invalid config_hash '{value}'"))
                    })?)
                }
                "grid" => {
                    let (h, w) = value
                        .split_once('x')
                        .ok_or_else(|| bad(format!("invalid grid '{value}'")))?;
                    grid = Some((
                        h.parse().map_err(|_| bad(format!("invalid grid rows '{h}'")))?,
                        w.parse().map_err(|_| bad(format!("invalid grid cols '{w}'")))?,
                    ));
                }
                "history" => {
                    history =
                        Some(value.parse().map_err(|_| bad(format!("invalid history '{value}'")))?)
                }
                "horizon" => {
                    horizon =
                        Some(value.parse().map_err(|_| bad(format!("invalid horizon '{value}'")))?)
                }
                // Unknown keys are ignored so future versions can extend the
                // meta line without breaking old readers.
                _ => {}
            }
        }
        let meta = CheckpointMeta {
            config_hash: hash.ok_or_else(|| bad("meta line missing config_hash".into()))?,
            grid: grid.ok_or_else(|| bad("meta line missing grid".into()))?,
            history: history.ok_or_else(|| bad("meta line missing history".into()))?,
            horizon: horizon.ok_or_else(|| bad("meta line missing horizon".into()))?,
        };
        meta.validate(line_no)?;
        Ok(meta)
    }

    /// Rejects headers declaring degenerate window extents: a grid below
    /// 2×2 or a zero history/horizon can never describe a constructible
    /// model, so the loader fails here — before any parameter data is read —
    /// instead of deep inside a tensor-shape mismatch.
    fn validate(&self, line_no: usize) -> Result<(), LoadParamsError> {
        let bad = |message: String| LoadParamsError::Parse { line: line_no, message };
        if self.grid.0 < 2 || self.grid.1 < 2 {
            return Err(bad(format!(
                "meta declares grid {}x{}, but a model grid must be at least 2x2",
                self.grid.0, self.grid.1
            )));
        }
        if self.history == 0 {
            return Err(bad("meta declares history=0, but history must be >= 1".into()));
        }
        if self.horizon == 0 {
            return Err(bad("meta declares horizon=0, but horizon must be >= 1".into()));
        }
        Ok(())
    }
}

/// Errors produced when loading weights.
#[derive(Debug)]
pub enum LoadParamsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not in the expected format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file's parameters do not match the store (missing name or wrong
    /// shape).
    Mismatch(String),
    /// The checkpoint's metadata disagrees with the configuration the caller
    /// expects (different architecture fingerprint or grid/window shape).
    ConfigMismatch {
        /// What the caller (e.g. a serving registry) expected.
        expected: CheckpointMeta,
        /// What the checkpoint file declares.
        found: CheckpointMeta,
    },
    /// The file ends before the parameter-block byte count its header
    /// declares — the classic signature of a crash mid-write or a partial
    /// copy.
    Truncated {
        /// Parameter-block bytes the `body` line declares.
        expected: u64,
        /// Parameter-block bytes actually present.
        found: u64,
    },
    /// The CRC32 stored in the header disagrees with the CRC32 computed over
    /// the file content — the file was corrupted after it was written.
    ChecksumMismatch {
        /// CRC32 declared in the `body` line.
        stored: u32,
        /// CRC32 computed over the file content.
        computed: u32,
    },
    /// A v4 parameter line carries a dtype tag this binary does not
    /// implement — the checkpoint was written by a newer producer.
    UnknownDtype {
        /// 1-based line number.
        line: usize,
        /// The unrecognised dtype tag.
        dtype: String,
    },
    /// A quantized parameter block failed to expand back to f32 — a corrupt
    /// payload, or the `quant.dequant.block` failpoint in chaos suites.
    Dequant {
        /// Name of the parameter that failed to expand.
        name: String,
        /// The underlying expansion error, rendered.
        message: String,
    },
}

impl fmt::Display for LoadParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadParamsError::Io(e) => write!(f, "i/o error reading parameters: {e}"),
            LoadParamsError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            LoadParamsError::Mismatch(msg) => write!(f, "parameter mismatch: {msg}"),
            LoadParamsError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config mismatch: expected [{expected}], checkpoint declares [{found}]"
            ),
            LoadParamsError::Truncated { expected, found } => write!(
                f,
                "checkpoint truncated: header declares {expected} parameter bytes, file has {found}"
            ),
            LoadParamsError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: header declares crc32={stored:08x}, content hashes to {computed:08x}"
            ),
            LoadParamsError::UnknownDtype { line, dtype } => write!(
                f,
                "unknown dtype '{dtype}' on line {line}: this binary understands f32, f16, q8_0 and q8_0t"
            ),
            LoadParamsError::Dequant { name, message } => {
                write!(f, "parameter '{name}' failed to dequantize: {message}")
            }
        }
    }
}

impl std::error::Error for LoadParamsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadParamsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadParamsError {
    fn from(e: io::Error) -> Self {
        LoadParamsError::Io(e)
    }
}

/// Writes every parameter of `store` to `path` (v1, no metadata).
///
/// Prefer [`save_params_with_meta`] for checkpoints that will be consumed by
/// a serving process; this bare variant remains for raw parameter dumps.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_params(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    write_params(store, None, path)
}

/// Writes every parameter of `store` to `path` as a v2 checkpoint carrying
/// `meta` so loaders can verify architecture compatibility up front.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_params_with_meta(
    store: &ParamStore,
    meta: &CheckpointMeta,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    write_params(store, Some(meta), path)
}

fn write_params(
    store: &ParamStore,
    meta: Option<&CheckpointMeta>,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let pairs: Vec<(&str, &Tensor)> =
        store.iter().map(|(_, name, value)| (name, value)).collect();
    atomic_write(path.as_ref(), &render_checkpoint(&pairs, meta))
}

/// Writes arbitrary named tensors (e.g. optimizer state) as a v3 checkpoint,
/// atomically. Loaded back with [`read_params`].
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_raw_params(pairs: &[(String, Tensor)], path: impl AsRef<Path>) -> io::Result<()> {
    let view: Vec<(&str, &Tensor)> = pairs.iter().map(|(n, t)| (n.as_str(), t)).collect();
    atomic_write(path.as_ref(), &render_checkpoint(&view, None))
}

/// Writes mixed-precision entries (see [`bikecap_quant::QuantEntry`]) as a
/// v4 checkpoint, atomically, carrying the same optional metadata and
/// `body` integrity line as v3. Loaded back with [`read_quant_params`]
/// (entries as stored) or any of the f32 loaders (entries dequantized).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_quant_params(
    pairs: &[(String, QuantEntry)],
    meta: Option<&CheckpointMeta>,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    atomic_write(path.as_ref(), &render_quant_checkpoint(pairs, meta))
}

/// Renders the v4 byte image: identical preamble machinery to
/// [`render_checkpoint`], parameter lines gaining a dtype tag and — for the
/// quantized dtypes — a single lowercase-hex payload token.
fn render_quant_checkpoint(
    pairs: &[(String, QuantEntry)],
    meta: Option<&CheckpointMeta>,
) -> Vec<u8> {
    use fmt::Write as _;
    let mut preamble = format!("{HEADER_V4}\n");
    if let Some(meta) = meta {
        let _ = writeln!(preamble, "meta {meta}");
    }
    let mut body = String::new();
    for (name, entry) in pairs {
        let dims: Vec<String> = entry.shape().iter().map(|d| d.to_string()).collect();
        let shape_txt =
            if dims.is_empty() { "scalar".to_string() } else { dims.join("x") };
        match entry {
            QuantEntry::F32(t) => {
                let _ = write!(body, "{name} f32 {shape_txt}");
                for v in t.as_slice() {
                    let _ = write!(body, " {v:?}");
                }
            }
            QuantEntry::F16(t) => {
                let _ = write!(body, "{name} f16 {shape_txt} ");
                hex_encode(&t.to_bytes(), &mut body);
            }
            QuantEntry::Q8(t) => {
                let tag = if t.transposed() { "q8_0t" } else { "q8_0" };
                let _ = write!(body, "{name} {tag} {shape_txt} ");
                hex_encode(&t.to_bytes(), &mut body);
            }
        }
        let _ = writeln!(body);
    }
    let crc = crc32(&[preamble.as_bytes(), body.as_bytes()]);
    let mut out = preamble.into_bytes();
    out.extend_from_slice(format!("body bytes={} crc32={crc:08x}\n", body.len()).as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Appends `bytes` as lowercase hex to `out`.
fn hex_encode(bytes: &[u8], out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0x0f) as usize] as char);
    }
}

/// Decodes a lowercase/uppercase hex token back to bytes.
fn hex_decode(token: &str, line_no: usize) -> Result<Vec<u8>, LoadParamsError> {
    let bad = |message: String| LoadParamsError::Parse { line: line_no, message };
    if !token.len().is_multiple_of(2) {
        return Err(bad(format!("hex payload has odd length {}", token.len())));
    }
    let digits = token.as_bytes();
    let mut out = Vec::with_capacity(token.len() / 2);
    let nib = |d: u8| -> Result<u8, LoadParamsError> {
        match d {
            b'0'..=b'9' => Ok(d - b'0'),
            b'a'..=b'f' => Ok(d - b'a' + 10),
            b'A'..=b'F' => Ok(d - b'A' + 10),
            _ => Err(bad(format!("invalid hex digit '{}'", d as char))),
        }
    };
    for pair in digits.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Ok(out)
}

/// Renders the full v3 checkpoint byte image: header (+ optional meta),
/// `body` integrity line, parameter block. The CRC32 covers every byte
/// except the body line itself, so no single-bit flip anywhere in the file
/// can go unnoticed.
fn render_checkpoint(pairs: &[(&str, &Tensor)], meta: Option<&CheckpointMeta>) -> Vec<u8> {
    use fmt::Write as _;
    let mut preamble = format!("{HEADER_V3}\n");
    if let Some(meta) = meta {
        let _ = writeln!(preamble, "meta {meta}");
    }
    let mut body = String::new();
    for (name, value) in pairs {
        let dims: Vec<String> = value.shape().iter().map(|d| d.to_string()).collect();
        let _ = write!(
            body,
            "{name} {}",
            if dims.is_empty() { "scalar".to_string() } else { dims.join("x") }
        );
        for v in value.as_slice() {
            let _ = write!(body, " {v:?}");
        }
        let _ = writeln!(body);
    }
    let crc = crc32(&[preamble.as_bytes(), body.as_bytes()]);
    let mut out = preamble.into_bytes();
    out.extend_from_slice(format!("body bytes={} crc32={crc:08x}\n", body.len()).as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// The sibling temp path a checkpoint write stages into before renaming.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Crash-atomically replaces `path` with `bytes`: write to a `.tmp`
/// sibling, fsync, rename over the destination, then best-effort fsync the
/// directory. A kill at any instant leaves either the previous file intact
/// or the complete new one — plus at worst an orphaned `.tmp` that
/// [`clean_stale_tmp`] sweeps on the next startup.
///
/// Carries the `io.checkpoint.write` failpoint: when it fires, half the
/// payload is written to the temp file and the injected error is returned,
/// emulating a crash mid-write (the destination is untouched).
///
/// # Errors
///
/// Returns any underlying I/O error; the temp file is removed on real
/// failures.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let mut out = fs::File::create(&tmp)?;
    if let Some(fault) = bikecap_faults::hit("io.checkpoint.write") {
        // Simulated crash: leave a torn temp file behind, exactly like a
        // real kill -9 would, and surface the injected error.
        let _ = out.write_all(&bytes[..bytes.len() / 2]);
        let _ = out.sync_all();
        return Err(fault.into_io());
    }
    let result = out
        .write_all(bytes)
        .and_then(|()| out.sync_all())
        .and_then(|()| fs::rename(&tmp, path));
    match result {
        Ok(()) => {
            // Persist the rename itself. Failure here is not fatal: the
            // data is durable, only the directory entry might replay.
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Removes orphaned checkpoint temp files (`*.tmp`) left in `dir` by a
/// crashed writer. Returns the paths removed. Call at process startup
/// before reading or writing checkpoints in `dir`.
///
/// # Errors
///
/// Returns an error only if `dir` cannot be listed; unremovable entries are
/// skipped.
pub fn clean_stale_tmp(dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let is_tmp = path
            .extension()
            .is_some_and(|e| e == "tmp")
            && entry.file_type().map(|t| t.is_file()).unwrap_or(false);
        if is_tmp && fs::remove_file(&path).is_ok() {
            removed.push(path);
        }
    }
    Ok(removed)
}

/// Reads the [`CheckpointMeta`] of the checkpoint at `path` without touching
/// any parameter data. Returns `None` for v1 files, which carry no metadata.
/// For v3 files the content CRC is verified first, so corruption is caught
/// here rather than at load time.
///
/// # Errors
///
/// Returns [`LoadParamsError`] on I/O failure, a malformed header, or a
/// failed integrity check.
pub fn read_meta(path: impl AsRef<Path>) -> Result<Option<CheckpointMeta>, LoadParamsError> {
    let data = fs::read(path)?;
    open_checkpoint(&data).map(|opened| opened.meta)
}

/// A checkpoint whose preamble has been parsed and (for v3) whose integrity
/// has been verified; `body` is the raw parameter block.
struct OpenedCheckpoint<'a> {
    meta: Option<CheckpointMeta>,
    body: &'a str,
    /// File lines preceding the parameter block (header, meta, body lines),
    /// so parse errors report absolute line numbers.
    preamble_lines: usize,
    /// True for v4 files, whose parameter lines carry per-tensor dtype tags.
    quantized: bool,
}

fn line_str(bytes: &[u8], line: usize) -> Result<&str, LoadParamsError> {
    std::str::from_utf8(bytes).map_err(|_| LoadParamsError::Parse {
        line,
        message: "line is not valid UTF-8".to_string(),
    })
}

/// Returns `(end_of_line, start_of_next_line)` byte offsets from `start`.
fn line_end(data: &[u8], start: usize) -> (usize, usize) {
    match data[start..].iter().position(|&b| b == b'\n') {
        Some(i) => (start + i, start + i + 1),
        None => (data.len(), data.len()),
    }
}

/// Parses the preamble of any supported version and, for v3, verifies the
/// declared byte length and CRC32 before exposing the parameter block.
fn open_checkpoint(data: &[u8]) -> Result<OpenedCheckpoint<'_>, LoadParamsError> {
    if data.is_empty() {
        return Err(LoadParamsError::Parse {
            line: 1,
            message: "empty file".to_string(),
        });
    }
    let (header_end, pos) = line_end(data, 0);
    let header = line_str(&data[..header_end], 1)?;
    match header.trim() {
        h if h == HEADER_V1 => Ok(OpenedCheckpoint {
            meta: None,
            body: line_str(&data[pos..], 2)?,
            preamble_lines: 1,
            quantized: false,
        }),
        h if h == HEADER_V2 => {
            let (meta_end, next) = line_end(data, pos);
            let meta_line = line_str(&data[pos..meta_end], 2)?;
            if pos >= data.len() || !meta_line.trim_start().starts_with("meta ") {
                return Err(LoadParamsError::Parse {
                    line: 2,
                    message: "v2 checkpoint missing 'meta' line".to_string(),
                });
            }
            Ok(OpenedCheckpoint {
                meta: Some(CheckpointMeta::parse(meta_line.trim(), 2)?),
                body: line_str(&data[next..], 3)?,
                preamble_lines: 2,
                quantized: false,
            })
        }
        h if h == HEADER_V3 => open_integrity(data, pos, false),
        h if h == HEADER_V4 => open_integrity(data, pos, true),
        other => Err(LoadParamsError::Parse {
            line: 1,
            message: format!(
                "expected header '{HEADER_V1}', '{HEADER_V2}', '{HEADER_V3}' or '{HEADER_V4}', found '{other}'"
            ),
        }),
    }
}

/// Shared v3/v4 preamble handling: optional `meta` line, mandatory `body`
/// integrity line, declared-length and CRC32 verification over everything
/// except the body line itself. `pos` is the byte offset just past the
/// header line.
fn open_integrity(
    data: &[u8],
    mut pos: usize,
    quantized: bool,
) -> Result<OpenedCheckpoint<'_>, LoadParamsError> {
    let mut line_no = 2;
    let (mut eol, mut next) = line_end(data, pos);
    let mut meta = None;
    if line_str(&data[pos..eol], line_no)?.trim_start().starts_with("meta ") {
        meta = Some(CheckpointMeta::parse(
            line_str(&data[pos..eol], line_no)?.trim(),
            line_no,
        )?);
        pos = next;
        line_no += 1;
        (eol, next) = line_end(data, pos);
    }
    // `pos` now marks the end of the CRC-covered preamble and the
    // start of the body line.
    let body_line = line_str(&data[pos..eol], line_no)?;
    let (expected_bytes, stored_crc) = parse_body_line(body_line, line_no)?;
    let payload = &data[next..];
    if (payload.len() as u64) < expected_bytes {
        return Err(LoadParamsError::Truncated {
            expected: expected_bytes,
            found: payload.len() as u64,
        });
    }
    if (payload.len() as u64) > expected_bytes {
        return Err(LoadParamsError::Parse {
            line: line_no,
            message: format!(
                "trailing data: body declares {expected_bytes} bytes, file has {}",
                payload.len()
            ),
        });
    }
    let computed = crc32(&[&data[..pos], payload]);
    if computed != stored_crc {
        return Err(LoadParamsError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok(OpenedCheckpoint {
        meta,
        body: line_str(payload, line_no + 1)?,
        preamble_lines: line_no,
        quantized,
    })
}

/// Parses `body bytes=N crc32=HEX` into `(N, crc)`.
fn parse_body_line(line: &str, line_no: usize) -> Result<(u64, u32), LoadParamsError> {
    let bad = |message: String| LoadParamsError::Parse { line: line_no, message };
    let trimmed = line.trim();
    if trimmed != "body" && !trimmed.starts_with("body ") {
        return Err(bad("v3 checkpoint missing 'body' line".to_string()));
    }
    let mut bytes = None;
    let mut crc = None;
    for field in trimmed.split_whitespace().skip(1) {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad(format!("body field '{field}' is not key=value")))?;
        match key {
            "bytes" => {
                bytes = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad(format!("invalid body byte count '{value}'")))?,
                )
            }
            "crc32" => {
                crc = Some(
                    u32::from_str_radix(value, 16)
                        .map_err(|_| bad(format!("invalid body crc32 '{value}'")))?,
                )
            }
            // Unknown keys are ignored so future versions can extend the
            // body line without breaking old readers.
            _ => {}
        }
    }
    Ok((
        bytes.ok_or_else(|| bad("body line missing bytes".to_string()))?,
        crc.ok_or_else(|| bad("body line missing crc32".to_string()))?,
    ))
}

/// Loads parameters from `path` into `store`, matching by name. Accepts both
/// v1 and v2 checkpoints; any v2 metadata is ignored (use
/// [`load_params_checked`] to enforce it).
///
/// Every parameter in the file must exist in the store with the same shape;
/// store parameters absent from the file are left untouched.
///
/// # Errors
///
/// Returns [`LoadParamsError`] on I/O failure, malformed input, unknown names
/// or shape mismatches.
pub fn load_params(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), LoadParamsError> {
    load_params_impl(store, path, None)
}

/// Like [`load_params`], but first verifies the checkpoint's metadata against
/// `expected`, failing with [`LoadParamsError::ConfigMismatch`] *before* any
/// parameter is modified if the architectures disagree. v1 checkpoints carry
/// no metadata and are loaded unchecked (per-parameter shape checks still
/// apply).
///
/// # Errors
///
/// Returns [`LoadParamsError`] on I/O failure, malformed input, metadata
/// disagreement, unknown names or shape mismatches.
pub fn load_params_checked(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
    expected: &CheckpointMeta,
) -> Result<(), LoadParamsError> {
    load_params_impl(store, path, Some(expected))
}

fn load_params_impl(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
    expected: Option<&CheckpointMeta>,
) -> Result<(), LoadParamsError> {
    let data = fs::read(path)?;
    let opened = open_checkpoint(&data)?;
    if let (Some(expected), Some(found)) = (expected, opened.meta) {
        if *expected != found {
            return Err(LoadParamsError::ConfigMismatch {
                expected: *expected,
                found,
            });
        }
    }
    for (name, entry) in parse_entries(&opened)? {
        let id = store
            .iter()
            .find(|(_, n, _)| *n == name)
            .map(|(id, _, _)| id)
            .ok_or_else(|| {
                LoadParamsError::Mismatch(format!("store has no parameter named '{name}'"))
            })?;
        if store.value(id).shape() != entry.shape() {
            return Err(LoadParamsError::Mismatch(format!(
                "parameter '{name}': file shape {:?} vs store shape {:?}",
                entry.shape(),
                store.value(id).shape()
            )));
        }
        store.set_value(id, expand_entry(&name, entry)?);
    }
    Ok(())
}

/// Parses the parameter block of an opened checkpoint into mixed-precision
/// entries; legacy (v1–v3) bodies come back wrapped as [`QuantEntry::F32`].
fn parse_entries(opened: &OpenedCheckpoint<'_>) -> Result<Vec<(String, QuantEntry)>, LoadParamsError> {
    if opened.quantized {
        parse_quant_params(opened.body, opened.preamble_lines)
    } else {
        Ok(parse_params(opened.body, opened.preamble_lines)?
            .into_iter()
            .map(|(n, t)| (n, QuantEntry::F32(t)))
            .collect())
    }
}

/// Widens one entry to f32, mapping dequantization failures (corrupt
/// payloads, the `quant.dequant.block` failpoint) to the typed
/// [`LoadParamsError::Dequant`].
fn expand_entry(name: &str, entry: QuantEntry) -> Result<Tensor, LoadParamsError> {
    entry.dequantize().map_err(|e| LoadParamsError::Dequant {
        name: name.to_string(),
        message: e.to_string(),
    })
}

/// Everything a checkpoint holds: the optional config header and the named
/// tensors in file order.
pub type RawCheckpoint = (Option<CheckpointMeta>, Vec<(String, Tensor)>);

/// Reads every named tensor in the checkpoint at `path`, without needing a
/// pre-populated [`ParamStore`] — used for optimizer-state files whose
/// entries (slot names, step scalars) are not model parameters.
///
/// # Errors
///
/// Returns [`LoadParamsError`] on I/O failure, malformed input, or a failed
/// integrity check.
pub fn read_params(path: impl AsRef<Path>) -> Result<RawCheckpoint, LoadParamsError> {
    let data = fs::read(path)?;
    let opened = open_checkpoint(&data)?;
    let params = parse_entries(&opened)?
        .into_iter()
        .map(|(name, entry)| expand_entry(&name, entry).map(|t| (name, t)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((opened.meta, params))
}

/// Everything a quantized checkpoint holds: the optional config header and
/// the named mixed-precision entries in file order.
pub type QuantCheckpoint = (Option<CheckpointMeta>, Vec<(String, QuantEntry)>);

/// Reads every entry in the checkpoint at `path` *as stored*: v4 files come
/// back with their quantized tensors intact (so a loader can dequantize
/// them and still report the storage precision), older versions come back as
/// [`QuantEntry::F32`].
///
/// # Errors
///
/// Returns [`LoadParamsError`] on I/O failure, malformed input, an unknown
/// dtype tag, or a failed integrity check.
pub fn read_quant_params(path: impl AsRef<Path>) -> Result<QuantCheckpoint, LoadParamsError> {
    let data = fs::read(path)?;
    let opened = open_checkpoint(&data)?;
    let entries = parse_entries(&opened)?;
    Ok((opened.meta, entries))
}

/// Parses the parameter block. `preamble_lines` is how many file lines
/// precede it, so errors report absolute line numbers.
fn parse_params(
    body: &str,
    preamble_lines: usize,
) -> Result<Vec<(String, Tensor)>, LoadParamsError> {
    let mut out = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let line_no = preamble_lines + idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().ok_or_else(|| LoadParamsError::Parse {
            line: line_no,
            message: "missing parameter name".to_string(),
        })?;
        let shape_txt = parts.next().ok_or_else(|| LoadParamsError::Parse {
            line: line_no,
            message: "missing shape".to_string(),
        })?;
        let shape: Vec<usize> = if shape_txt == "scalar" {
            vec![]
        } else {
            shape_txt
                .split('x')
                .map(|d| {
                    d.parse::<usize>().map_err(|_| LoadParamsError::Parse {
                        line: line_no,
                        message: format!("invalid dimension '{d}'"),
                    })
                })
                .collect::<Result<_, _>>()?
        };
        let values: Vec<f32> = parts
            .map(|v| {
                v.parse::<f32>().map_err(|_| LoadParamsError::Parse {
                    line: line_no,
                    message: format!("invalid value '{v}'"),
                })
            })
            .collect::<Result<_, _>>()?;
        let expected: usize = shape.iter().product();
        if values.len() != expected {
            return Err(LoadParamsError::Parse {
                line: line_no,
                message: format!(
                    "shape {shape_txt} implies {expected} values, found {}",
                    values.len()
                ),
            });
        }
        out.push((name.to_string(), Tensor::from_vec(values, &shape)));
    }
    Ok(out)
}

/// Parses a v4 parameter block: `<name> <dtype> <shape> <payload>` per line,
/// with `f32` payloads in the v3 decimal grammar and the quantized dtypes
/// carrying one hex token of their `to_bytes` serialisation.
fn parse_quant_params(
    body: &str,
    preamble_lines: usize,
) -> Result<Vec<(String, QuantEntry)>, LoadParamsError> {
    let mut out = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let line_no = preamble_lines + idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let bad = |message: String| LoadParamsError::Parse { line: line_no, message };
        let mut parts = line.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| bad("missing parameter name".to_string()))?;
        let dtype = parts.next().ok_or_else(|| bad("missing dtype".to_string()))?;
        let shape_txt = parts.next().ok_or_else(|| bad("missing shape".to_string()))?;
        let shape: Vec<usize> = if shape_txt == "scalar" {
            vec![]
        } else {
            shape_txt
                .split('x')
                .map(|d| {
                    d.parse::<usize>()
                        .map_err(|_| bad(format!("invalid dimension '{d}'")))
                })
                .collect::<Result<_, _>>()?
        };
        let entry = match dtype {
            "f32" => {
                let values: Vec<f32> = parts
                    .map(|v| {
                        v.parse::<f32>().map_err(|_| bad(format!("invalid value '{v}'")))
                    })
                    .collect::<Result<_, _>>()?;
                let expected: usize = shape.iter().product();
                if values.len() != expected {
                    return Err(bad(format!(
                        "shape {shape_txt} implies {expected} values, found {}",
                        values.len()
                    )));
                }
                QuantEntry::F32(Tensor::from_vec(values, &shape))
            }
            "f16" | "q8_0" | "q8_0t" => {
                let token = parts
                    .next()
                    .ok_or_else(|| bad(format!("{dtype} entry missing its hex payload")))?;
                if parts.next().is_some() {
                    return Err(bad(format!("{dtype} entry has trailing tokens")));
                }
                let bytes = hex_decode(token, line_no)?;
                match dtype {
                    "f16" => QuantEntry::F16(
                        F16Tensor::from_bytes(&shape, &bytes).map_err(bad)?,
                    ),
                    tag => QuantEntry::Q8(
                        Q8Tensor::from_bytes(&shape, tag == "q8_0t", &bytes).map_err(bad)?,
                    ),
                }
            }
            other => {
                return Err(LoadParamsError::UnknownDtype {
                    line: line_no,
                    dtype: other.to_string(),
                })
            }
        };
        out.push((name.to_string(), entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bikecap-serialize-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip_exact() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let a = store.add("layer.weight", Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng));
        let b = store.add("layer.bias", Tensor::randn(&[4], 0.0, 1.0, &mut rng));
        let path = tmp("roundtrip");
        save_params(&store, &path).unwrap();

        let mut restored = ParamStore::new();
        let a2 = restored.add("layer.weight", Tensor::zeros(&[3, 4]));
        let b2 = restored.add("layer.bias", Tensor::zeros(&[4]));
        load_params(&mut restored, &path).unwrap();
        assert_eq!(restored.value(a2), store.value(a));
        assert_eq!(restored.value(b2), store.value(b));
        fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_wrong_header() {
        let path = tmp("badheader");
        fs::write(&path, "something else\n").unwrap();
        let mut store = ParamStore::new();
        let err = load_params(&mut store, &path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Parse { line: 1, .. }));
        fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_unknown_parameter() {
        let path = tmp("unknown");
        fs::write(&path, format!("{HEADER_V1}\nmystery 2 1.0 2.0\n")).unwrap();
        let mut store = ParamStore::new();
        let err = load_params(&mut store, &path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Mismatch(_)));
        fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let path = tmp("shape");
        fs::write(&path, format!("{HEADER_V1}\np 3 1.0 2.0 3.0\n")).unwrap();
        let mut store = ParamStore::new();
        store.add("p", Tensor::zeros(&[2]));
        let err = load_params(&mut store, &path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Mismatch(_)));
        fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_value_count_mismatch() {
        let path = tmp("count");
        fs::write(&path, format!("{HEADER_V1}\np 3 1.0 2.0\n")).unwrap();
        let mut store = ParamStore::new();
        store.add("p", Tensor::zeros(&[3]));
        let err = load_params(&mut store, &path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Parse { .. }));
        fs::remove_file(path).ok();
    }

    #[test]
    fn scalar_parameters_roundtrip() {
        let mut store = ParamStore::new();
        let s = store.add("temperature", Tensor::scalar(2.5));
        let path = tmp("scalar");
        save_params(&store, &path).unwrap();
        let mut restored = ParamStore::new();
        let s2 = restored.add("temperature", Tensor::scalar(0.0));
        load_params(&mut restored, &path).unwrap();
        assert_eq!(restored.value(s2).item(), store.value(s).item());
        fs::remove_file(path).ok();
    }

    fn sample_meta() -> CheckpointMeta {
        CheckpointMeta {
            config_hash: 0xdead_beef_cafe_f00d,
            grid: (16, 12),
            history: 8,
            horizon: 4,
        }
    }

    #[test]
    fn v2_meta_roundtrips() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![1.5, -2.5], &[2]));
        let path = tmp("v2meta");
        let meta = sample_meta();
        save_params_with_meta(&store, &meta, &path).unwrap();
        assert_eq!(read_meta(&path).unwrap(), Some(meta));

        let mut restored = ParamStore::new();
        let id = restored.add("w", Tensor::zeros(&[2]));
        load_params_checked(&mut restored, &path, &meta).unwrap();
        assert_eq!(restored.value(id).as_slice(), &[1.5, -2.5]);
        fs::remove_file(path).ok();
    }

    #[test]
    fn v1_files_have_no_meta_and_load_unchecked() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![3.0], &[1]));
        let path = tmp("v1nometa");
        save_params(&store, &path).unwrap();
        assert_eq!(read_meta(&path).unwrap(), None);
        // Checked load of a v1 file skips the meta check entirely.
        let mut restored = ParamStore::new();
        restored.add("w", Tensor::zeros(&[1]));
        load_params_checked(&mut restored, &path, &sample_meta()).unwrap();
        fs::remove_file(path).ok();
    }

    #[test]
    fn checked_load_rejects_config_mismatch_before_mutating() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![7.0], &[1]));
        let path = tmp("cfgmismatch");
        save_params_with_meta(&store, &sample_meta(), &path).unwrap();

        let mut restored = ParamStore::new();
        let id = restored.add("w", Tensor::zeros(&[1]));
        let expected = CheckpointMeta {
            horizon: 8,
            ..sample_meta()
        };
        let err = load_params_checked(&mut restored, &path, &expected).unwrap_err();
        assert!(
            matches!(err, LoadParamsError::ConfigMismatch { .. }),
            "expected ConfigMismatch, got {err}"
        );
        let text = err.to_string();
        assert!(text.contains("horizon=8") && text.contains("horizon=4"), "{text}");
        // The store must be untouched: the meta gate fires before any write.
        assert_eq!(restored.value(id).as_slice(), &[0.0]);
        fs::remove_file(path).ok();
    }

    #[test]
    fn v2_without_meta_line_is_rejected() {
        let path = tmp("v2nometa");
        fs::write(&path, format!("{HEADER_V2}\np scalar 1.0\n")).unwrap();
        let mut store = ParamStore::new();
        store.add("p", Tensor::scalar(0.0));
        let err = load_params(&mut store, &path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Parse { line: 2, .. }));
        fs::remove_file(path).ok();
    }

    #[test]
    fn meta_line_ignores_unknown_keys() {
        let line = "meta config_hash=00000000000000ff grid=4x5 history=8 horizon=2 sharding=none";
        let meta = CheckpointMeta::parse(line, 2).unwrap();
        assert_eq!(meta.config_hash, 0xff);
        assert_eq!(meta.grid, (4, 5));
    }

    #[test]
    fn meta_with_degenerate_extents_is_rejected() {
        for bad in [
            "meta config_hash=ff grid=0x8 history=8 horizon=4",
            "meta config_hash=ff grid=8x1 history=8 horizon=4",
            "meta config_hash=ff grid=8x8 history=0 horizon=4",
            "meta config_hash=ff grid=8x8 history=8 horizon=0",
        ] {
            let err = CheckpointMeta::parse(bad, 2).unwrap_err();
            assert!(
                matches!(err, LoadParamsError::Parse { line: 2, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn load_rejects_degenerate_meta_before_mutating() {
        let path = tmp("degenerate-meta");
        fs::write(
            &path,
            format!("{HEADER_V2}\nmeta config_hash=ff grid=8x8 history=8 horizon=0\np scalar 1.0\n"),
        )
        .unwrap();
        let mut store = ParamStore::new();
        let id = store.add("p", Tensor::scalar(0.0));
        let err = load_params(&mut store, &path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Parse { line: 2, .. }), "{err}");
        assert_eq!(store.value(id).item(), 0.0);
        fs::remove_file(path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let err = LoadParamsError::Parse {
            line: 7,
            message: "boom".into(),
        };
        let text = err.to_string();
        assert!(text.contains("line 7") && text.contains("boom"));
        let err = LoadParamsError::Truncated { expected: 100, found: 64 };
        let text = err.to_string();
        assert!(text.contains("100") && text.contains("64"), "{text}");
        let err = LoadParamsError::ChecksumMismatch { stored: 0xdead, computed: 0xbeef };
        let text = err.to_string();
        assert!(text.contains("0000dead") && text.contains("0000beef"), "{text}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        // Chunked input hashes identically to concatenated input.
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xcbf4_3926);
    }

    fn sample_file(name: &str) -> std::path::PathBuf {
        let mut store = ParamStore::new();
        store.add("layer.weight", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        store.add("layer.bias", Tensor::from_vec(vec![-0.5, 0.5], &[2]));
        let path = tmp(name);
        save_params_with_meta(&store, &sample_meta(), &path).unwrap();
        path
    }

    #[test]
    fn v3_truncation_yields_truncated_error() {
        let path = sample_file("trunc");
        let full = fs::read(&path).unwrap();
        // Cut inside the parameter block: must be Truncated, never a load.
        let cut = full.len() - 10;
        fs::write(&path, &full[..cut]).unwrap();
        let err = read_meta(&path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Truncated { .. }), "{err}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn v3_truncation_at_every_64_byte_boundary_yields_typed_error() {
        let path = sample_file("trunc-sweep");
        let full = fs::read(&path).unwrap();
        let mut store = ParamStore::new();
        store.add("layer.weight", Tensor::zeros(&[2, 2]));
        store.add("layer.bias", Tensor::zeros(&[2]));
        // Cut the file at every 64-byte boundary (and the final partial
        // block): a torn write of any length must surface a typed error,
        // never a panic and never a silent partial load.
        for cut in (0..full.len()).step_by(64).chain([full.len() - 1]) {
            fs::write(&path, &full[..cut]).unwrap();
            let err = load_params(&mut store, &path).unwrap_err();
            assert!(
                matches!(
                    err,
                    LoadParamsError::Truncated { .. }
                        | LoadParamsError::Parse { .. }
                        | LoadParamsError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
        fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_yields_typed_error_not_panic() {
        let path = tmp("empty");
        fs::write(&path, b"").unwrap();
        let err = read_meta(&path).unwrap_err();
        assert!(
            matches!(err, LoadParamsError::Truncated { .. } | LoadParamsError::Parse { .. }),
            "{err}"
        );
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]));
        assert!(load_params(&mut store, &path).is_err());
        fs::remove_file(path).ok();
    }

    #[test]
    fn v3_bit_flip_anywhere_yields_typed_error() {
        let path = sample_file("bitflip");
        let full = fs::read(&path).unwrap();
        for byte in 0..full.len() {
            let mut corrupt = full.clone();
            corrupt[byte] ^= 0x01;
            fs::write(&path, &corrupt).unwrap();
            let mut store = ParamStore::new();
            store.add("layer.weight", Tensor::zeros(&[2, 2]));
            store.add("layer.bias", Tensor::zeros(&[2]));
            // Every flip must surface a typed error — a flip can never
            // produce a silent, successful load of different content.
            let err = load_params(&mut store, &path);
            assert!(err.is_err(), "flip at byte {byte} loaded silently");
        }
        fs::remove_file(path).ok();
    }

    #[test]
    fn v3_trailing_garbage_is_rejected() {
        let path = sample_file("trailing");
        let mut full = fs::read(&path).unwrap();
        full.extend_from_slice(b"extra 2 9.0 9.0\n");
        fs::write(&path, &full).unwrap();
        let err = read_meta(&path).unwrap_err();
        assert!(matches!(err, LoadParamsError::Parse { .. }), "{err}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn writes_are_atomic_and_leave_no_tmp() {
        let path = tmp("atomic");
        let dir = path.parent().unwrap();
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![1.0], &[1]));
        save_params(&store, &path).unwrap();
        let stale: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().to_string();
                n.starts_with("bikecap-serialize-atomic") && n.ends_with(".tmp")
            })
            .collect();
        assert!(stale.is_empty(), "temp file left behind: {stale:?}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn clean_stale_tmp_removes_only_tmp_files() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("bikecap-stale-tmp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("model.ckpt"), b"keep").unwrap();
        fs::write(dir.join(format!("model.ckpt.{}.tmp", std::process::id())), b"stale").unwrap();
        let removed = clean_stale_tmp(&dir).unwrap();
        assert_eq!(removed.len(), 1);
        assert!(dir.join("model.ckpt").exists());
        assert!(!removed[0].exists());
        fs::remove_dir_all(dir).ok();
    }

    fn sample_quant_entries() -> Vec<(String, QuantEntry)> {
        use bikecap_quant::{quantize_pairs, QuantFormat};
        let mut rng = StdRng::seed_from_u64(41);
        let pairs = vec![
            (
                "enc.conv.weight".to_string(),
                Tensor::randn(&[4, 3, 3, 3, 3], 0.0, 0.4, &mut rng),
            ),
            ("enc.conv.bias".to_string(), Tensor::randn(&[1, 4, 1, 1, 1], 0.0, 0.1, &mut rng)),
            ("head.weight".to_string(), Tensor::randn(&[6, 5], 0.0, 0.3, &mut rng)),
        ];
        quantize_pairs(&pairs, QuantFormat::Q8_0)
    }

    fn sample_quant_file(name: &str) -> std::path::PathBuf {
        let path = tmp(name);
        save_quant_params(&sample_quant_entries(), Some(&sample_meta()), &path).unwrap();
        path
    }

    #[test]
    fn v4_entries_roundtrip_exactly() {
        let entries = sample_quant_entries();
        let path = sample_quant_file("v4roundtrip");
        let (meta, loaded) = read_quant_params(&path).unwrap();
        assert_eq!(meta, Some(sample_meta()));
        assert_eq!(loaded, entries);
        // The conv weight must be Q8, the bias f16, the matmul weight
        // transposed Q8 — the on-disk dtype tags carry the full policy.
        assert!(matches!(&loaded[0].1, QuantEntry::Q8(q) if !q.transposed()));
        assert!(matches!(&loaded[1].1, QuantEntry::F16(_)));
        assert!(matches!(&loaded[2].1, QuantEntry::Q8(q) if q.transposed()));
        fs::remove_file(path).ok();
    }

    #[test]
    fn v4_loads_into_store_via_dequantized_shadows() {
        let entries = sample_quant_entries();
        let path = sample_quant_file("v4shadow");
        let mut store = ParamStore::new();
        let w = store.add("enc.conv.weight", Tensor::zeros(&[4, 3, 3, 3, 3]));
        store.add("enc.conv.bias", Tensor::zeros(&[1, 4, 1, 1, 1]));
        store.add("head.weight", Tensor::zeros(&[6, 5]));
        load_params_checked(&mut store, &path, &sample_meta()).unwrap();
        let want = entries[0].1.dequantize().unwrap();
        assert_eq!(store.value(w).as_slice(), want.as_slice());
        fs::remove_file(path).ok();
    }

    #[test]
    fn v4_truncation_and_bit_flips_yield_typed_errors() {
        let path = sample_quant_file("v4corrupt");
        let full = fs::read(&path).unwrap();
        for cut in (0..full.len()).step_by(64).chain([full.len() - 1]) {
            fs::write(&path, &full[..cut]).unwrap();
            let err = read_quant_params(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    LoadParamsError::Truncated { .. }
                        | LoadParamsError::Parse { .. }
                        | LoadParamsError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
        for byte in (0..full.len()).step_by(7) {
            let mut corrupt = full.clone();
            corrupt[byte] ^= 0x01;
            fs::write(&path, &corrupt).unwrap();
            assert!(
                read_quant_params(&path).is_err(),
                "flip at byte {byte} loaded silently"
            );
        }
        fs::remove_file(path).ok();
    }

    #[test]
    fn v4_unknown_dtype_yields_typed_error() {
        // Hand-build a v4 file whose single entry uses a dtype this binary
        // does not implement, with a valid integrity line.
        let body = "w q4_k 2x2 00000000\n";
        let preamble = format!("{HEADER_V4}\n");
        let crc = crc32(&[preamble.as_bytes(), body.as_bytes()]);
        let path = tmp("v4unknown");
        fs::write(
            &path,
            format!("{preamble}body bytes={} crc32={crc:08x}\n{body}", body.len()),
        )
        .unwrap();
        let err = read_quant_params(&path).unwrap_err();
        assert!(
            matches!(err, LoadParamsError::UnknownDtype { line: 3, ref dtype } if dtype == "q4_k"),
            "{err}"
        );
        assert!(err.to_string().contains("q4_k"), "{err}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn f32_loaders_widen_v4_files() {
        let entries = sample_quant_entries();
        let path = sample_quant_file("v4widen");
        let (_, widened) = read_params(&path).unwrap();
        for ((name, entry), (wname, tensor)) in entries.iter().zip(&widened) {
            assert_eq!(name, wname);
            assert_eq!(entry.dequantize().unwrap().as_slice(), tensor.as_slice());
        }
        fs::remove_file(path).ok();
    }

    #[test]
    fn q8_checkpoint_is_a_fraction_of_f32_size() {
        use bikecap_quant::{quantize_pairs, QuantFormat};
        let mut rng = StdRng::seed_from_u64(17);
        let pairs = vec![(
            "enc.conv.weight".to_string(),
            Tensor::randn(&[8, 4, 3, 5, 5], 0.0, 0.5, &mut rng),
        )];
        let f32_path = tmp("sizef32");
        save_raw_params(&pairs, &f32_path).unwrap();
        let q8_path = tmp("sizeq8");
        save_quant_params(&quantize_pairs(&pairs, QuantFormat::Q8_0), None, &q8_path).unwrap();
        let f32_len = fs::metadata(&f32_path).unwrap().len();
        let q8_len = fs::metadata(&q8_path).unwrap().len();
        assert!(
            (q8_len as f64) <= 0.30 * f32_len as f64,
            "q8 checkpoint is {q8_len} bytes, f32 is {f32_len}"
        );
        fs::remove_file(f32_path).ok();
        fs::remove_file(q8_path).ok();
    }

    #[test]
    fn raw_params_roundtrip_dynamically() {
        let pairs = vec![
            ("adam.t".to_string(), Tensor::scalar(17.0)),
            ("adam.m.w".to_string(), Tensor::from_vec(vec![0.25, -0.75], &[2])),
        ];
        let path = tmp("raw");
        save_raw_params(&pairs, &path).unwrap();
        let (meta, loaded) = read_params(&path).unwrap();
        assert_eq!(meta, None);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, "adam.t");
        assert_eq!(loaded[0].1.item(), 17.0);
        assert_eq!(loaded[1].1.as_slice(), &[0.25, -0.75]);
        fs::remove_file(path).ok();
    }
}
