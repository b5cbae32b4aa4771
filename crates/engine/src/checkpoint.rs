//! Checkpoint / resume for recorded sweeps (`vc-engine-checkpoint/v4`).
//!
//! Long sweeps die: machines reboot, CI jobs hit wall-clock limits,
//! operators hit Ctrl-C. A checkpointed run
//! ([`Engine::with_checkpoint`](crate::Engine::with_checkpoint)) makes a
//! sweep resumable by persisting the per-chunk [`ExecutionRecord`]s it
//! completes. A resumed run executes only the remainder — and because
//! chunk contents, chunk order and the record encoding are all
//! deterministic, the final file and report are **byte-identical** to
//! what one unbroken run would have produced.
//!
//! The file is LDJSON, read back with the dependency-free `vc-json`
//! (DESIGN.md §11.2): a **header** line (`schema`, `instance_id`,
//! `sweep_id`, `num_chunks` and a chunk-restricted writer's `partition`),
//! one **chunk** line per completed chunk (its index, start count, roots
//! and one integer column per record field; consecutive roots are written
//! as the first, a constant column as its one value) and, once every
//! chunk is present, a **seal** line: an [`IdHasher`] digest of every
//! byte before it. [`sealed_identity`] checks a sealed file by its header
//! and seal alone, without decoding a chunk line. An unrestricted run
//! writes its file whole through [`write_atomically`], in chunk order and
//! sealed once complete, so sealed and spliced files are a pure function
//! of the sweep. Only a run restricted to a chunk set (a fleet worker)
//! appends, one line per chunk as it lands, so its partial file is not
//! canonical; once complete it too is rewritten whole. A resume of a
//! sealed file runs nothing and leaves its bytes alone.
//!
//! Only the last line may be torn, and a last line without its newline
//! is: a chunk never committed, which the loader drops. Any other damage
//! is refused: a complete line that does not parse, a duplicate or
//! out-of-range chunk, a torn header, a seal that does not match the
//! bytes before it, a line after the seal. The chunk table is bounded by
//! `MAX_CHUNKS` and a line's records by [`MAX_CHUNK_STARTS`] before
//! either is allocated.
//!
//! A checkpoint is only valid for the exact sweep that produced it: the
//! file carries the content-addressed [`SweepIdentity`] — an
//! [`InstanceId`] over the full CSR adjacency and every node label, and a
//! [`SweepId`] additionally folding the algorithm identity (including any
//! fault plan), run configuration, start set and chunk size (DESIGN.md
//! §12). A mismatch is a loud [`EngineError::BadCheckpoint`], never a
//! silent mixing of two different sweeps' records. Files of the retired
//! `v1` (size-keyed), `v2` (per-start objects) and `v3` (a seal folded
//! over the decoded records) schemas are refused with a migration
//! message: delete the file and rerun the sweep (README "Checkpoint
//! compatibility").
//!
//! Checkpoints store *costs*, not *outputs*: `A::Output` is generic and has
//! no serial form offline. Sweeps that need the labeling itself (e.g. the
//! validity checks in `tests/`) must run unbroken; the checkpoint path is
//! for the cost-summary sweeps behind `BENCH_*.json` baselines, where the
//! records are the product.

use crate::partition::{ChunkSet, RangeError};
use crate::{plan_chunks, write_atomically, ChunkPlan, MAX_CHUNK_STARTS};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use vc_graph::Instance;
use vc_ident::{IdHasher, InstanceId, SweepId};
use vc_json::{self as json, Column, Value};
use vc_model::cost::{CostAccumulator, ExecutionRecord};
use vc_model::run::{QueryAlgorithm, RunConfig, StartError};

/// Schema identifier written into every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "vc-engine-checkpoint/v4";

/// The migration message for a file of a retired schema, if `schema`
/// names one.
fn retired(schema: &str) -> Option<String> {
    let old = ["v1", "v2", "v3"];
    let version = schema.strip_prefix("vc-engine-checkpoint/")?;
    old.contains(&version).then(|| {
        format!(
            "schema is {schema:?}, retired (v1 is pre-identity and hashes only the instance \
             size; v2 holds per-start objects; v3 folds its seal over the decoded records) — \
             delete the file and rerun the sweep (README \"Checkpoint compatibility\")"
        )
    })
}

/// Reads one column's value off a record.
type Field = fn(&ExecutionRecord) -> Option<u64>;

/// A chunk line's record columns, in line order, each with its field.
const COLUMNS: [(&str, Field); 6] = [
    ("volume", |r| Some(r.volume as u64)),
    ("distance", |r| r.distance.map(u64::from)),
    ("distance_upper", |r| Some(u64::from(r.distance_upper))),
    ("queries", |r| Some(r.queries)),
    ("random_bits", |r| Some(r.random_bits)),
    ("completed", |r| Some(u64::from(r.completed))),
];

/// The most chunks a checkpoint may declare. A header is not backed by
/// its file's length, so the chunk table is bounded before it is
/// allocated; at [`MAX_CHUNK_STARTS`] starts a chunk, this covers sweeps
/// of 2^28 starts.
const MAX_CHUNKS: usize = 1 << 16;

/// Failures of the checkpointed sweep path. Always loud: the engine never
/// silently discards or mixes checkpoint state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The configured start selection is invalid (same as the serial
    /// runner's error).
    Start(StartError),
    /// The configured chunk range does not fit the sweep's chunk plan.
    Partition(RangeError),
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The checkpoint file is malformed or belongs to a different sweep.
    BadCheckpoint(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Start(e) => write!(f, "invalid start selection: {e}"),
            EngineError::Partition(e) => write!(f, "invalid chunk range: {e}"),
            EngineError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
            EngineError::BadCheckpoint(msg) => write!(f, "unusable checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StartError> for EngineError {
    fn from(e: StartError) -> Self {
        EngineError::Start(e)
    }
}

impl From<RangeError> for EngineError {
    fn from(e: RangeError) -> Self {
        EngineError::Partition(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e.to_string())
    }
}

/// The content-addressed identity of one sweep, as computed by
/// [`sweep_identity`] and persisted in every checkpoint file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepIdentity {
    /// Identity of the labeled instance (graph content + all labels).
    pub instance_id: InstanceId,
    /// Identity of the whole sweep: instance, algorithm (with any fault
    /// plan), run configuration, start set and chunk size.
    pub sweep_id: SweepId,
}

/// Computes the [`SweepIdentity`] a checkpoint belongs to: the
/// [`InstanceId`] over the full instance content, and a [`SweepId`]
/// folding that id plus the algorithm identity
/// ([`QueryAlgorithm::fold_identity`] — the fault plan included, for
/// wrapped algorithms), the run configuration (budgets, exact-distance,
/// randomness tape, start selection), the resolved start set and the
/// *full* chunk plan — both the planned chunk size and the total chunk
/// count of [`plan_chunks`]. The plan is folded whole so that every
/// partition of a fleet run agrees on one identity: a
/// [`ChunkSet`] restriction deliberately does *not*
/// enter the id, which is what lets disjoint partial checkpoints splice
/// into a file byte-identical to an unpartitioned run (DESIGN.md §15).
/// Anything that can change a chunk's records is folded in here, and
/// nowhere else — this is the single audited identity computation
/// (DESIGN.md §12).
pub fn sweep_identity<A: QueryAlgorithm>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    starts: &[usize],
) -> SweepIdentity {
    let instance_id = inst.instance_id();
    let mut h = IdHasher::new("vc-sweep/v2");
    h.word(instance_id.raw());
    algo.fold_identity(&mut h);
    config.fold_content(&mut h);
    h.word(starts.len() as u64);
    for &s in starts {
        h.word(s as u64);
    }
    let plan = plan_chunks(starts.len());
    h.words(&[plan.chunk_size as u64, plan.num_chunks as u64]);
    SweepIdentity {
        instance_id,
        sweep_id: SweepId::from_raw(h.finish()),
    }
}

/// The persistent state of a checkpointed sweep: one slot per chunk,
/// `Some` once that chunk's records are complete.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// Identity of the sweep this checkpoint belongs to (see
    /// [`sweep_identity`]).
    pub identity: SweepIdentity,
    /// Total chunks in the sweep's fixed partition.
    pub num_chunks: usize,
    /// The chunk set the writing engine was restricted to, if any —
    /// fleet workers record their slice (or reassigned chunk set) here so
    /// partial files are self-describing. `None` for unrestricted runs
    /// *and* for spliced merges, so the `partition` key is absent from
    /// their headers and a merged file is byte-identical to a
    /// single-process run's. A single-run set is stamped as
    /// `lo..hi/total`.
    pub partition: Option<ChunkSet>,
    /// Per-chunk completed records, in chunk order.
    pub chunks: Vec<Option<Vec<ExecutionRecord>>>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a sweep with the given shape.
    pub fn fresh(identity: SweepIdentity, num_chunks: usize) -> Self {
        Self {
            identity,
            num_chunks,
            partition: None,
            chunks: vec![None; num_chunks],
        }
    }

    /// Number of chunks whose records are present.
    pub fn completed_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Whether every chunk is present.
    pub fn is_complete(&self) -> bool {
        self.completed_chunks() == self.num_chunks
    }

    /// Serializes the checkpoint as a `vc-engine-checkpoint/v4` file: the
    /// header, the present chunks' lines in chunk order and, when the
    /// checkpoint is complete, the seal. The encoding is a pure function
    /// of the checkpoint state — the byte-identity of final and spliced
    /// files rests on this.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\": \"{CHECKPOINT_SCHEMA}\", \"instance_id\": \"{}\", \"sweep_id\": \"{}\", \
             \"num_chunks\": {}",
            self.identity.instance_id, self.identity.sweep_id, self.num_chunks
        );
        if let Some(set) = &self.partition {
            out.push_str(&format!(", \"partition\": \"{set}\""));
        }
        out.push_str("}\n");
        for (c, recs) in self.chunks.iter().enumerate() {
            if let Some(recs) = recs {
                push_chunk_line(&mut out, c, recs.iter());
            }
        }
        if self.is_complete() {
            out += &seal_line(&out);
            out.push('\n');
        }
        out
    }

    /// Parses a `vc-engine-checkpoint/v4` file. A last line without its
    /// newline is a chunk that was never committed, and is dropped.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation: a torn
    /// or malformed header, a wrong schema, a newline-terminated line
    /// that does not parse, a duplicate or out-of-range chunk, a column
    /// that is ragged, null where it may not be or out of range, a seal
    /// that does not match the bytes before it, or a line after the seal.
    /// Files of the retired `v1`, `v2` and `v3` schemas get a migration
    /// message.
    pub fn from_json(src: &str) -> Result<Self, String> {
        decode(src).map(|(ckpt, _)| ckpt)
    }
}

/// The seal line, without its newline, of a file whose every earlier
/// byte is `body`: an [`IdHasher`] digest of those bytes.
fn seal_line(body: &str) -> String {
    let mut h = IdHasher::new(CHECKPOINT_SCHEMA);
    h.text(body);
    format!("{{\"seal\": \"{:016x}\"}}", h.finish())
}

/// Checks that `line`, without its newline, is the seal of `body`, byte
/// for byte.
fn check_seal(body: &str, line: &str) -> Result<(), String> {
    let want = seal_line(body);
    if line != want {
        return Err(format!(
            "seal digest mismatch: the line at byte {} is not {want}, the seal of the bytes \
             before it",
            body.len()
        ));
    }
    Ok(())
}

/// The [`SweepIdentity`] a sealed `vc-engine-checkpoint/v4` file names,
/// checked by its header and its seal alone: the seal digests every byte
/// before it, so a change anywhere in the file is refused without
/// decoding a chunk line. The result store serves entries on this check.
///
/// # Errors
///
/// The header's refusals, as [`SweepCheckpoint::from_json`] words them
/// (retired schemas get the migration message), and a last line that is
/// not the seal of every byte before it: the file is partial, torn, or
/// altered anywhere.
pub fn sealed_identity(text: &str) -> Result<SweepIdentity, String> {
    let header_end = text.find('\n');
    let header = decode_header(&text[..header_end.unwrap_or(text.len())], text)?;
    let header_end = header_end.ok_or("the header line is torn (no newline)")?;
    let rest = text
        .strip_suffix('\n')
        .ok_or("the last line is torn (no newline)")?;
    let seal_at = rest
        .rfind('\n')
        .map(|i| i + 1)
        .filter(|&at| at > header_end)
        .ok_or("the file holds no seal line")?;
    check_seal(&text[..seal_at], &rest[seal_at..])?;
    Ok(header.identity)
}

/// Appends chunk `chunk`'s line; the full encode and the live sink's
/// append share it.
fn push_chunk_line<'a, I>(out: &mut String, chunk: usize, recs: I)
where
    I: ExactSizeIterator<Item = &'a ExecutionRecord> + Clone,
{
    out.push_str("{\"chunk\": ");
    json::push_uint(out, chunk as u64);
    out.push_str(", \"starts\": ");
    json::push_uint(out, recs.len() as u64);
    let first = recs.clone().next().map(|r| r.root);
    let mut offsets = recs.clone().enumerate();
    match first {
        Some(f) if offsets.all(|(i, r)| f.checked_add(i) == Some(r.root)) => {
            out.push_str(", \"first_root\": ");
            json::push_uint(out, f as u64);
        }
        _ => push_column(out, "root", recs.clone().map(|r| Some(r.root as u64))),
    }
    for (key, field) in COLUMNS {
        push_column(out, key, recs.clone().map(field));
    }
    out.push_str("}\n");
}

/// Appends `, "key": ` and the column: its one value when every row has
/// it, else the array of rows.
fn push_column(out: &mut String, key: &str, vals: impl Iterator<Item = Option<u64>> + Clone) {
    let push = |out: &mut String, v: Option<u64>| match v {
        Some(n) => json::push_uint(out, n),
        None => out.push_str("null"),
    };
    out.push_str(", \"");
    out.push_str(key);
    out.push_str("\": ");
    match vals.clone().next() {
        Some(v) if vals.clone().all(|w| w == v) => push(out, v),
        _ => {
            out.push('[');
            for (i, v) in vals.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push(out, v);
            }
            out.push(']');
        }
    }
}

/// A file's checkpoint, less a torn last line, and whether it is sealed.
fn decode(text: &str) -> Result<(SweepCheckpoint, bool), String> {
    let header_end = text.find('\n');
    let mut ckpt = decode_header(&text[..header_end.unwrap_or(text.len())], text)?;
    let mut pos = header_end.ok_or("the header line is torn (no newline)")? + 1;
    let (mut done, mut in_order, mut sealed) = (0, true, false);
    while let Some(len) = text[pos..].find('\n') {
        let (at, line) = (pos, &text[pos..pos + len]);
        pos += len + 1;
        if sealed {
            return Err(format!("a line follows the seal (byte {at})"));
        }
        let members = json::parse_columns(line).map_err(|e| format!("line at byte {at}: {e}"))?;
        if field(&members, "seal").is_some() {
            if done != ckpt.num_chunks || !in_order {
                return Err(format!(
                    "seal after {done} of {} chunks, in chunk order: {in_order}",
                    ckpt.num_chunks
                ));
            }
            check_seal(&text[..at], line)?;
            sealed = true;
            continue;
        }
        let (c, recs) = decode_chunk(members).map_err(|e| format!("line at byte {at}: {e}"))?;
        let num_chunks = ckpt.num_chunks;
        let slot = ckpt
            .chunks
            .get_mut(c)
            .ok_or_else(|| format!("chunk {c} is out of range ({num_chunks} chunks)"))?;
        if slot.is_some() {
            return Err(format!("chunk {c} appears twice"));
        }
        // A sealed file is canonical: its chunk lines are in chunk order.
        in_order &= c == done;
        *slot = Some(recs);
        done += 1;
    }
    if sealed && pos < text.len() {
        return Err(format!("data follows the seal (byte {pos})"));
    }
    Ok((ckpt, sealed))
}

/// The header line `line` of `text`. A line that does not parse may be
/// the first line of a retired schema's multi-line document, so `text`
/// is parsed whole to name it.
fn decode_header(line: &str, text: &str) -> Result<SweepCheckpoint, String> {
    let members = json::parse_columns(line).map_err(|e| {
        let doc = json::parse(text).ok();
        doc.as_ref()
            .and_then(|d| d.get("schema")?.as_str())
            .and_then(retired)
            .unwrap_or_else(|| format!("malformed header line: {e}"))
    })?;
    let text_field = |key: &str| match field(&members, key) {
        Some(Column::Scalar(Value::Str(s))) => Some(s.as_str()),
        _ => None,
    };
    let schema = text_field("schema").ok_or("missing schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(retired(schema)
            .unwrap_or_else(|| format!("schema is {schema:?}, expected {CHECKPOINT_SCHEMA:?}")));
    }
    let instance_id = text_field("instance_id")
        .and_then(InstanceId::parse_hex)
        .ok_or("missing or malformed instance_id")?;
    let sweep_id = text_field("sweep_id")
        .and_then(SweepId::parse_hex)
        .ok_or("missing or malformed sweep_id")?;
    let num_chunks = match field(&members, "num_chunks") {
        Some(Column::Scalar(Value::Int(n))) => *n,
        _ => return Err("missing num_chunks".to_string()),
    };
    let num_chunks = usize::try_from(num_chunks)
        .ok()
        .filter(|&n| n <= MAX_CHUNKS)
        .ok_or_else(|| format!("num_chunks {num_chunks} is past the bound of {MAX_CHUNKS}"))?;
    let partition = match field(&members, "partition") {
        None => None,
        Some(_) => {
            let spec = text_field("partition").ok_or("partition is not a string")?;
            let set = ChunkSet::parse(spec).map_err(|e| format!("malformed partition: {e}"))?;
            set.check_plan(num_chunks)
                .map_err(|e| format!("partition does not fit this checkpoint: {e}"))?;
            Some(set)
        }
    };
    let mut ckpt = SweepCheckpoint::fresh(
        SweepIdentity {
            instance_id,
            sweep_id,
        },
        num_chunks,
    );
    ckpt.partition = partition;
    Ok(ckpt)
}

/// The first member named `key`.
fn field<'a>(members: &'a [(String, Column)], key: &str) -> Option<&'a Column> {
    members.iter().find(|(k, _)| k == key).map(|(_, c)| c)
}

/// The chunk index a `vc-engine-checkpoint/v4` chunk line holds, if
/// `line` (without its newline) parses and has one. Fleet heartbeats
/// count appended lines with it.
pub fn line_chunk(line: &str) -> Option<usize> {
    match field(&json::parse_columns(line).ok()?, "chunk")? {
        Column::Scalar(Value::Int(c)) => usize::try_from(*c).ok(),
        _ => None,
    }
}

/// `v` as a `T`, or why it does not fit.
fn narrow<T: TryFrom<u64>>(v: u64, key: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{key:?} value {v} is out of range"))
}

/// A chunk line's index and records.
fn decode_chunk(
    mut members: Vec<(String, Column)>,
) -> Result<(usize, Vec<ExecutionRecord>), String> {
    let mut take = |key: &str| {
        let at = members.iter().position(|(k, _)| k == key)?;
        Some(members.swap_remove(at).1)
    };
    let int = |col: Option<Column>, key: &str| match col {
        Some(Column::Scalar(Value::Int(n))) => narrow::<usize>(n, key),
        _ => Err(format!("missing or non-integer {key:?}")),
    };
    let chunk = int(take("chunk"), "chunk")?;
    let starts = int(take("starts"), "starts")?;
    if starts > MAX_CHUNK_STARTS {
        return Err(format!(
            "{starts} starts is past the chunk bound of {MAX_CHUNK_STARTS}"
        ));
    }
    let first_root = take("first_root").map(|c| int(Some(c), "first_root"));
    let first_root = first_root.transpose()?;
    // A constant column stands for `starts` equal rows.
    let mut col = |key: &str| match take(key) {
        Some(Column::Scalar(Value::Int(n))) => Ok(vec![Some(n); starts]),
        Some(Column::Scalar(Value::Null)) => Ok(vec![None; starts]),
        Some(Column::Ints(vs)) if vs.len() == starts => Ok(vs),
        Some(Column::Ints(vs)) => Err(format!(
            "column {key:?} has {} values for {starts} starts",
            vs.len()
        )),
        Some(Column::Scalar(_)) => Err(format!("column {key:?} is not integers")),
        None => Err(format!("missing column {key:?}")),
    };
    let root = match first_root {
        Some(first) => {
            let end = first
                .checked_add(starts)
                .ok_or_else(|| format!("first_root {first} overflows"))?;
            (first..end).map(|r| Some(r as u64)).collect()
        }
        None => col("root")?,
    };
    let [volume, distance, upper, queries, bits, completed] = COLUMNS.map(|(key, _)| col(key));
    let (volume, distance, upper) = (volume?, distance?, upper?);
    let (queries, bits, completed) = (queries?, bits?, completed?);
    let recs = (0..starts).map(|i| {
        let cell = |col: &[Option<u64>], key: &str| {
            col[i].ok_or_else(|| format!("column {key:?} is null at start {i}"))
        };
        Ok(ExecutionRecord {
            root: narrow(cell(&root, "root")?, "root")?,
            volume: narrow(cell(&volume, "volume")?, "volume")?,
            distance: distance[i].map(|d| narrow(d, "distance")).transpose()?,
            distance_upper: narrow(cell(&upper, "distance_upper")?, "distance_upper")?,
            queries: cell(&queries, "queries")?,
            random_bits: cell(&bits, "random_bits")?,
            completed: match cell(&completed, "completed")? {
                0 => false,
                1 => true,
                v => return Err(format!("\"completed\" value {v} is not 0 or 1")),
            },
        })
    });
    Ok((chunk, recs.collect::<Result<_, String>>()?))
}

/// The incremental checkpoint writer of a run restricted to a chunk set:
/// every completed chunk appends its line to the file with one
/// `write_all`. This is the progress heartbeat a fleet supervisor
/// observes — the lines appended since its last poll, through the
/// sanctioned clock — without any channel back into the sweep itself:
/// the sink only *writes* state the sweep already produced, so liveness
/// observation cannot perturb determinism (DESIGN.md §16).
pub(crate) struct LiveCheckpointSink {
    /// `None` once an append failed.
    file: Mutex<Option<std::fs::File>>,
}

impl LiveCheckpointSink {
    /// A sink appending to the existing file at `path`.
    pub(crate) fn open(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            file: Mutex::new(Some(file)),
        })
    }

    /// Appends `chunk`'s line. A failed append may leave its line torn,
    /// so it ends the appends: no complete line follows a torn one, and
    /// the run rewrites the file whole at its end (see [`Self::failed`]).
    pub(crate) fn commit<'a, I>(&self, chunk: usize, recs: I)
    where
        I: ExactSizeIterator<Item = &'a ExecutionRecord> + Clone,
    {
        let mut line = String::new();
        push_chunk_line(&mut line, chunk, recs);
        // One write under the lock, so lines never interleave.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if file
            .as_mut()
            .is_some_and(|f| f.write_all(line.as_bytes()).is_err())
        {
            *file = None;
        }
    }

    /// Whether an append failed, so the file lacks lines of this run.
    fn failed(&self) -> bool {
        self.file
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_none()
    }
}

/// A checkpointed run's file while the run executes: the checkpoint it
/// loaded, or a fresh one, and the sink a restricted run appends through.
pub(crate) struct OpenCheckpoint<'a> {
    path: &'a Path,
    ckpt: SweepCheckpoint,
    /// The file existed, so the run resumes it.
    pub(crate) resumed: bool,
    /// The file was sealed: the run runs nothing and keeps its bytes.
    sealed: bool,
    pub(crate) sink: Option<LiveCheckpointSink>,
}

impl<'a> OpenCheckpoint<'a> {
    /// The checkpoint at `path` of the sweep `identity`, planned as
    /// `num_chunks` chunks — a fresh one when there is no file — stamped
    /// with the writer's chunk set. A restricted writer's file is
    /// rewritten here, so its appends start on a line boundary under its
    /// stamp.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the file cannot be read or written, and
    /// [`EngineError::BadCheckpoint`] when it is malformed or belongs to
    /// another sweep.
    pub(crate) fn open(
        path: &'a Path,
        identity: SweepIdentity,
        num_chunks: usize,
        set: Option<&ChunkSet>,
    ) -> Result<Self, EngineError> {
        let loaded = match std::fs::read_to_string(path) {
            Ok(text) => Some(decode(&text).map_err(EngineError::BadCheckpoint)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let resumed = loaded.is_some();
        let (mut ckpt, sealed) =
            loaded.unwrap_or_else(|| (SweepCheckpoint::fresh(identity, num_chunks), false));
        if ckpt.identity.sweep_id != identity.sweep_id {
            let mut msg = format!(
                "fingerprint {} belongs to a different sweep (expected {})",
                ckpt.identity.sweep_id, identity.sweep_id
            );
            if ckpt.identity.instance_id != identity.instance_id {
                msg.push_str(&format!(
                    "; the instance content differs (checkpoint instance {}, this sweep runs \
                     instance {})",
                    ckpt.identity.instance_id, identity.instance_id
                ));
            }
            return Err(EngineError::BadCheckpoint(msg));
        }
        if ckpt.num_chunks != num_chunks {
            return Err(EngineError::BadCheckpoint(format!(
                "checkpoint has {} chunks, sweep has {num_chunks}",
                ckpt.num_chunks
            )));
        }
        let mut sink = None;
        if !sealed {
            // The file records the *writer's* restriction: a fleet
            // worker's partial is stamped with its chunk set, unrestricted
            // runs carry no stamp.
            ckpt.partition = set.cloned();
            if set.is_some() {
                write_atomically(path, ckpt.to_json())?;
                sink = Some(LiveCheckpointSink::open(path)?);
            }
        }
        Ok(Self {
            path,
            ckpt,
            resumed,
            sealed,
            sink,
        })
    }

    /// Whether the file holds chunk `c`.
    pub(crate) fn is_done(&self, c: usize) -> bool {
        self.ckpt.chunks[c].is_some()
    }

    /// Moves the records of the chunks this run `executed` (back to back,
    /// in that order) into the checkpoint and writes the file, unless it
    /// was sealed or this run's appends already hold it. Returns every
    /// chunk's records in chunk order, their costs and the count of
    /// completed chunks.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the file cannot be written.
    pub(crate) fn commit(
        mut self,
        plan: ChunkPlan,
        num_starts: usize,
        executed: &[usize],
        records: Vec<ExecutionRecord>,
    ) -> Result<(Vec<ExecutionRecord>, CostAccumulator, usize), EngineError> {
        let mut fresh = records.into_iter();
        for &c in executed {
            let (lo, hi) = plan.bounds(c, num_starts);
            self.ckpt.chunks[c] = Some(fresh.by_ref().take(hi - lo).collect());
        }
        // Appends hold a partial file's lines unless one failed; a file
        // that is now complete is rewritten whole, sealed.
        let appended = self.sink.as_ref().is_some_and(|s| !s.failed());
        if !self.sealed && (!appended || self.ckpt.is_complete()) {
            write_atomically(self.path, self.ckpt.to_json())?;
        }
        let completed = self.ckpt.completed_chunks();
        let mut acc = CostAccumulator::default();
        let mut records = Vec::with_capacity(num_starts);
        for rec in self.ckpt.chunks.into_iter().flatten().flatten() {
            acc.add(&rec);
            records.push(rec);
        }
        Ok((records, acc, completed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sharded, Engine};
    use std::path::PathBuf;
    use vc_model::oracle::{follow, Oracle, QueryError};
    use vc_model::SolverScratch;
    use vc_trace::NoopTracer;

    struct WalkLeft;

    impl QueryAlgorithm for WalkLeft {
        type Output = u32;

        fn name(&self) -> &'static str {
            "walk-left"
        }

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<u32, QueryError> {
            let mut cur = oracle.root();
            let mut steps = 0;
            while let Some(next) = follow(oracle, &cur, cur.label.left_child)? {
                cur = next;
                steps += 1;
            }
            Ok(steps)
        }
    }

    /// [`WalkLeft`] that trips `flag` when it runs the start at `root`.
    /// The flag is not part of its identity, which is [`WalkLeft`]'s, so
    /// its checkpoints resume under plain [`WalkLeft`].
    struct CancelAt {
        root: usize,
        flag: crate::CancelFlag,
    }

    impl QueryAlgorithm for CancelAt {
        type Output = u32;

        fn name(&self) -> &'static str {
            WalkLeft.name()
        }

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(
            &self,
            oracle: &mut dyn Oracle,
            scratch: &mut SolverScratch,
        ) -> Result<u32, QueryError> {
            if oracle.root().node == self.root {
                self.flag.cancel();
            }
            WalkLeft.run(oracle, scratch)
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vc-engine-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The final checkpoint bytes of an unbroken one-thread run.
    fn unbroken_bytes(inst: &Instance, config: &RunConfig, name: &str) -> Vec<u8> {
        let path = temp_path(name);
        let _ = std::fs::remove_file(&path);
        Engine::with_threads(1)
            .with_checkpoint(&path)
            .run_all(inst, &WalkLeft, config)
            .unwrap();
        std::fs::read(&path).unwrap()
    }

    fn test_identity(instance: u64, sweep: u64) -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(instance),
            sweep_id: SweepId::from_raw(sweep),
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let rec = ExecutionRecord {
            root: 7,
            volume: 12,
            distance: Some(3),
            distance_upper: 4,
            queries: 19,
            random_bits: 2,
            completed: true,
        };
        let rec2 = ExecutionRecord {
            distance: None,
            completed: false,
            ..rec.clone()
        };
        let mut ckpt = SweepCheckpoint::fresh(test_identity(0xdead_beef_0123_4567, 0x0123), 3);
        ckpt.chunks[0] = Some(vec![rec, rec2]);
        ckpt.chunks[2] = Some(vec![]);
        let parsed = SweepCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(parsed, ckpt);
        assert_eq!(parsed.completed_chunks(), 2);
        assert!(!parsed.is_complete());
    }

    #[test]
    fn malformed_checkpoints_are_rejected_loudly() {
        assert!(SweepCheckpoint::from_json("{}").is_err());
        assert!(SweepCheckpoint::from_json("{\"schema\": \"nope/v1\"}").is_err());
        let mut ok = SweepCheckpoint::fresh(test_identity(1, 2), 1).to_json();
        assert!(SweepCheckpoint::from_json(&ok).is_ok());
        ok.truncate(ok.len() - 3);
        assert!(SweepCheckpoint::from_json(&ok).is_err());
    }

    #[test]
    fn v1_checkpoints_get_a_migration_error() {
        let v1 = "{\"schema\": \"vc-engine-checkpoint/v1\", \"fingerprint\": \"00ff\", \
                  \"num_chunks\": 0, \"chunks\": []}";
        let err = SweepCheckpoint::from_json(v1).unwrap_err();
        assert!(err.contains("pre-identity"), "{err}");
        assert!(err.contains("delete the file"), "{err}");
    }

    #[test]
    fn identity_separates_sweep_configurations() {
        let inst = vc_graph::gen::random_full_binary_tree(150, 3);
        let starts: Vec<usize> = (0..inst.n()).collect();
        let base = RunConfig::default();
        let f = |cfg: &RunConfig| sweep_identity(&inst, &WalkLeft, cfg, &starts).sweep_id;
        let baseline = f(&base);
        assert_eq!(baseline, f(&base.clone()));
        let budgeted = RunConfig {
            budget: vc_model::Budget::volume(5),
            ..base
        };
        assert_ne!(baseline, f(&budgeted));
        let taped = RunConfig {
            tape: Some(vc_model::randomness::RandomTape::private(9)),
            ..base
        };
        assert_ne!(baseline, f(&taped));
        let fewer: Vec<usize> = (0..inst.n() / 2).collect();
        assert_ne!(
            baseline,
            sweep_identity(&inst, &WalkLeft, &base, &fewer).sweep_id
        );
        // The instance id ignores the sweep configuration entirely…
        assert_eq!(
            sweep_identity(&inst, &WalkLeft, &base, &starts).instance_id,
            sweep_identity(&inst, &WalkLeft, &budgeted, &fewer).instance_id
        );
        // …but a same-size instance with different content separates both.
        let other = vc_graph::gen::random_full_binary_tree(150, 4);
        assert_eq!(other.n(), inst.n());
        let foreign = sweep_identity(&other, &WalkLeft, &base, &starts);
        assert_ne!(foreign.instance_id, inst.instance_id());
        assert_ne!(foreign.sweep_id, baseline);
    }

    #[test]
    fn kill_and_resume_equals_unbroken_run() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();

        // The unbroken reference: one run straight through.
        let unbroken_path = temp_path("unbroken.json");
        let _ = std::fs::remove_file(&unbroken_path);
        let unbroken = Engine::with_threads(2)
            .with_checkpoint(&unbroken_path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert!(unbroken.is_complete());
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        assert_eq!(unbroken.report.records, serial.records);
        assert_eq!(unbroken.summary, serial.summary());

        // "Kill" after 2 chunks (quota = deterministic kill proxy), then
        // resume with different thread counts.
        let resumed_path = temp_path("resumed.json");
        let _ = std::fs::remove_file(&resumed_path);
        let partial = Engine::with_threads(8)
            .with_chunk_quota(2)
            .with_checkpoint(&resumed_path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert!(!partial.is_complete());
        assert_eq!(partial.completed_chunks, 2);
        assert_eq!(
            partial.report.records,
            serial.records[..2 * plan_chunks(inst.n()).chunk_size]
        );
        // An unrestricted run writes its file whole, in chunk order, at
        // any thread count: the partial file is canonical.
        let text = std::fs::read_to_string(&resumed_path).unwrap();
        assert_eq!(SweepCheckpoint::from_json(&text).unwrap().to_json(), text);
        let resumed = Engine::with_threads(3)
            .with_checkpoint(&resumed_path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.report.records, unbroken.report.records);
        assert_eq!(resumed.summary, unbroken.summary);
        assert_eq!(resumed.total_queries, unbroken.total_queries);

        // The files themselves are byte-identical.
        let a = std::fs::read(&unbroken_path).unwrap();
        let b = std::fs::read(&resumed_path).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_cancel_between_starts_abandons_the_chunk_it_cuts() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let chunk = plan_chunks(inst.n()).chunk_size;
        // Mid-chunk 2, so the cancel lands with starts of it still undrawn.
        let root = 2 * chunk + 10;
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let flag = crate::CancelFlag::new();
        let algo = CancelAt {
            root,
            flag: flag.clone(),
        };
        let report = Engine::with_threads(1)
            .with_cancel_flag(flag.clone())
            .run_all(&inst, &algo, &config)
            .unwrap();
        assert!(flag.is_cancelled(), "start {root} of chunk 2 never ran");
        assert!(report.degraded);
        assert_eq!(report.skipped_chunks, vec![2, 3, 4, 5]);
        // Chunks 0 and 1 are whole; chunk 2's first eleven starts ran but
        // left neither a record nor an output.
        assert_eq!(report.report.records, serial.records[..2 * chunk]);
        assert_eq!(
            report.report.outputs[..2 * chunk],
            serial.outputs[..2 * chunk]
        );
        assert!(report.report.outputs[2 * chunk..]
            .iter()
            .all(Option::is_none));

        let unbroken = unbroken_bytes(&inst, &config, "cancel_unbroken.json");
        for threads in [1, 2, 8] {
            let path = temp_path(&format!("cancel_{threads}.json"));
            let _ = std::fs::remove_file(&path);
            let flag = crate::CancelFlag::new();
            let algo = CancelAt {
                root,
                flag: flag.clone(),
            };
            let parked = Engine::with_threads(threads)
                .with_cancel_flag(flag)
                .with_checkpoint(&path)
                .run_all(&inst, &algo, &config)
                .unwrap();
            assert!(!parked.is_complete(), "{threads} threads");
            if threads == 1 {
                assert_eq!(parked.completed_chunks, 2);
                assert_eq!(parked.report.records, serial.records[..2 * chunk]);
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let ckpt = SweepCheckpoint::from_json(&text).unwrap();
            assert_eq!(ckpt.chunks[2], None, "{threads} threads");
            // The resume, without the flag, re-runs the cut chunk whole.
            let resumed = Engine::with_threads(threads)
                .with_checkpoint(&path)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert!(resumed.is_complete());
            assert_eq!(std::fs::read(&path).unwrap(), unbroken, "{threads} threads");
        }
    }

    #[test]
    fn every_resume_finishes_a_chunk_though_its_flag_is_set() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let unbroken = unbroken_bytes(&inst, &config, "floor_unbroken.json");
        for threads in [1, 2, 8] {
            let path = temp_path(&format!("floor_{threads}.json"));
            let _ = std::fs::remove_file(&path);
            let cancelled = || {
                let flag = crate::CancelFlag::new();
                flag.cancel();
                Engine::with_threads(threads).with_cancel_flag(flag)
            };
            // A fresh run claims nothing and parks an empty file …
            let first = cancelled()
                .with_checkpoint(&path)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert_eq!(first.completed_chunks, 0);
            // … and every resume of it completes at least one chunk.
            let mut done = 0;
            let mut resumes = 0;
            while done < first.num_chunks {
                let report = cancelled()
                    .with_checkpoint(&path)
                    .run_all(&inst, &WalkLeft, &config)
                    .unwrap();
                assert!(report.completed_chunks > done, "{threads} threads");
                if threads == 1 {
                    assert_eq!(report.completed_chunks, done + 1);
                }
                done = report.completed_chunks;
                resumes += 1;
            }
            assert!(resumes <= first.num_chunks);
            assert_eq!(std::fs::read(&path).unwrap(), unbroken, "{threads} threads");
        }
    }

    #[test]
    fn live_checkpoint_runs_write_the_same_final_bytes() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        // A restricted run appends each chunk's line as it lands, under
        // its stamp; the stamp is in the header, so restricted runs are
        // compared with restricted runs.
        let run = |threads: usize, spec: &str| {
            let path = temp_path(&format!("live_{threads}_{}.json", &spec[..4]));
            let _ = std::fs::remove_file(&path);
            let report = Engine::with_threads(threads)
                .with_chunk_set(ChunkSet::parse(spec).unwrap())
                .with_checkpoint(&path)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            // No temp file is left behind: every whole write renamed into
            // place.
            let mut tmp = path.into_os_string();
            tmp.push(".tmp");
            assert!(!std::path::Path::new(&tmp).exists());
            (report, text)
        };
        // Appends change how often the file is written, never what the
        // final bytes are: a complete file is rewritten whole.
        let (one, one_text) = run(1, "0..6/6");
        let (eight, eight_text) = run(8, "0..6/6");
        assert!(one.is_complete());
        assert_eq!(eight.report.records, one.report.records);
        assert_eq!(eight_text, one_text);
        // A partial file holds the appends alone: at one thread they land
        // in chunk order, so its file is canonical.
        let (_, one_text) = run(1, "0..4/6");
        let (_, eight_text) = run(8, "0..4/6");
        let one = SweepCheckpoint::from_json(&one_text).unwrap();
        assert_eq!(one.to_json(), one_text);
        let eight = SweepCheckpoint::from_json(&eight_text).unwrap();
        assert_eq!((eight.completed_chunks(), eight.chunks), (4, one.chunks));
    }

    #[test]
    fn a_failed_append_ends_the_appends_and_is_reported() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let starts: Vec<usize> = (0..inst.n()).collect();
        let path = temp_path("failed_append.json");
        let identity = sweep_identity(&inst, &WalkLeft, &config, &starts);
        let fresh = SweepCheckpoint::fresh(identity, 6).to_json();
        let engine = Engine::with_threads(2);
        // Whether the run's appends through `sink` failed.
        let run = |sink| {
            let file = OpenCheckpoint {
                path: &path,
                ckpt: SweepCheckpoint::fresh(identity, 6),
                resumed: false,
                sealed: false,
                sink: Some(sink),
            };
            let plan = plan_chunks(starts.len());
            run_sharded::<_, NoopTracer>(
                &engine,
                &inst,
                &WalkLeft,
                &config,
                &starts,
                plan,
                Some(&file),
            );
            file.sink.is_some_and(|s| s.failed())
        };
        // A read-only handle breaks the first append: the sink reports it
        // and writes nothing after it, so the run rewrites the file whole.
        std::fs::write(&path, &fresh).unwrap();
        let broken = LiveCheckpointSink {
            file: Mutex::new(Some(std::fs::File::open(&path).unwrap())),
        };
        assert!(run(broken));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), fresh);
        assert!(!run(LiveCheckpointSink::open(&path).unwrap()));
        let appended = SweepCheckpoint::from_json(&std::fs::read_to_string(&path).unwrap());
        assert!(
            appended.unwrap().is_complete(),
            "every chunk appended its line"
        );
    }

    #[test]
    fn a_stale_temp_file_from_a_killed_writer_is_harmless() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean_path = temp_path("stale_clean.json");
        let path = temp_path("stale.json");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let _ = std::fs::remove_file(&clean_path);
        let _ = std::fs::remove_file(&path);
        let full = || ChunkSet::parse("0..6/6").unwrap();
        Engine::with_threads(1)
            .with_chunk_set(full())
            .with_checkpoint(&clean_path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // A killed first run, then a resume that appends: before each, a
        // writer killed mid-write left a torn `.tmp` next to the file.
        let runs = [
            Engine::with_threads(2).with_chunk_quota(3),
            Engine::with_threads(2).with_chunk_set(full()),
        ];
        for engine in runs {
            std::fs::write(&tmp, "{\"schema\": \"vc-engine-check").unwrap();
            engine
                .with_checkpoint(&path)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert!(!tmp.exists(), "a run left {} behind", tmp.display());
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&clean_path).unwrap()
        );
    }

    #[test]
    fn restricted_writers_stamp_their_chunk_set() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let path = temp_path("stamped_set.json");
        let _ = std::fs::remove_file(&path);
        let set = ChunkSet::parse("1..3,5/6").unwrap();
        Engine::with_threads(2)
            .with_chunk_set(set.clone())
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let ckpt = SweepCheckpoint::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(ckpt.partition, Some(set));
        // Exactly the claimed chunks carry records.
        let done: Vec<usize> = (0..ckpt.num_chunks)
            .filter(|&c| ckpt.chunks[c].is_some())
            .collect();
        assert_eq!(done, vec![1, 2, 5]);
    }

    #[test]
    fn foreign_checkpoints_are_refused() {
        let inst = vc_graph::gen::random_full_binary_tree(150, 3);
        let config = RunConfig::default();
        let path = temp_path("foreign.json");
        let _ = std::fs::remove_file(&path);
        Engine::with_threads(1)
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // Same file, different budget: the fingerprint must refuse it.
        let other = RunConfig {
            budget: vc_model::Budget::volume(2),
            ..config
        };
        let err = Engine::with_threads(1)
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &other)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadCheckpoint(_)), "{err}");
        // And a corrupt file is an error, not a fresh start.
        std::fs::write(&path, "{ not json").unwrap();
        let err = Engine::with_threads(1)
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadCheckpoint(_)), "{err}");
    }

    #[test]
    fn sealed_files_hold_integer_columns_in_chunk_order() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let text = unbroken_bytes(&inst, &RunConfig::default(), "columns.json");
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "header, six chunks, seal");
        assert!(lines[0].starts_with("{\"schema\": \"vc-engine-checkpoint/v4\", "));
        for (c, line) in lines[1..7].iter().enumerate() {
            let head = format!("{{\"chunk\": {c}, \"starts\": ");
            assert!(line.starts_with(&head), "{line}");
            // Consecutive roots are written as the first one; a constant
            // column as its one value.
            assert!(
                line.contains(&format!("\"first_root\": {}, ", 64 * c)),
                "{line}"
            );
            assert!(line.contains("\"random_bits\": 0, "), "{line}");
        }
        assert!(lines[7].starts_with("{\"seal\": \""), "{}", lines[7]);
        let ckpt = SweepCheckpoint::from_json(&text).unwrap();
        assert!(ckpt.is_complete());
        assert_eq!(ckpt.to_json(), text);
    }

    #[test]
    fn a_sealed_file_runs_nothing_and_keeps_its_bytes() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let path = temp_path("sealed_resume.json");
        let _ = std::fs::remove_file(&path);
        Engine::with_threads(2)
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let before = std::fs::read(&path).unwrap();
        let inode = |p: &Path| std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(p).unwrap());
        let ino = inode(&path);
        // Another stamp would rewrite a partial file; a sealed one stays.
        let report = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("0..6/6").unwrap())
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert!(report.is_complete() && report.threads == 1);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(inode(&path), ino, "the sealed file was replaced");
    }

    #[test]
    fn only_a_torn_last_line_is_dropped() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let path = temp_path("torn.json");
        let _ = std::fs::remove_file(&path);
        Engine::with_threads(1)
            .with_chunk_quota(3)
            .with_checkpoint(&path)
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let whole = SweepCheckpoint::from_json(&text).unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_eq!(lines.len(), 4, "header and chunks 0..3");
        let last = text.len() - lines[3].len();
        for cut in last..text.len() {
            let torn = SweepCheckpoint::from_json(&text[..cut]).unwrap();
            assert_eq!(torn.chunks[..2], whole.chunks[..2], "cut at {cut}");
            assert_eq!(torn.chunks[2], None, "cut at {cut}");
        }
        // A newline-terminated line that does not parse is corruption,
        // wherever it stands; so is a chunk index seen twice.
        let [header, c0, c1, c2] = [lines[0], lines[1], lines[2], lines[3]];
        let bad = [
            (
                format!("{header}{c0}{{\"chunk\": 1\n{c1}{c2}"),
                "line at byte",
            ),
            (format!("{header}{c0}{c1}{c2}garbage\n"), "line at byte"),
            (format!("{header}{c0}{c1}{c0}"), "appears twice"),
            (
                header[..header.len() - 1].to_string(),
                "header line is torn",
            ),
            (String::new(), "malformed header"),
        ];
        for (src, why) in bad {
            let err = SweepCheckpoint::from_json(&src).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    /// A seeded xorshift64 draw below `n`.
    fn below(state: &mut u64, n: usize) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % n as u64) as usize
    }

    #[test]
    fn mutated_files_are_refused_or_lose_only_their_torn_tail() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let sealed = String::from_utf8(unbroken_bytes(&inst, &config, "mutated.json")).unwrap();
        let clean = SweepCheckpoint::from_json(&sealed).unwrap();
        let partial = temp_path("mutated_partial.json");
        let _ = std::fs::remove_file(&partial);
        Engine::with_threads(2)
            .with_chunk_quota(4)
            .with_checkpoint(&partial)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let partial = std::fs::read_to_string(&partial).unwrap();
        let mut state = 0x5eed_0003;
        let (mut kept, mut refused) = (0, 0);
        for (file, is_sealed) in [(&sealed, true), (&partial, false)] {
            for _ in 0..1_500 {
                let mut m = file.as_bytes().to_vec();
                match below(&mut state, 3) {
                    0 => m.truncate(below(&mut state, m.len())),
                    1 => {
                        // The file is ASCII; a flip of a low seven bit
                        // keeps it so.
                        let at = below(&mut state, m.len());
                        m[at] ^= 1 << below(&mut state, 7);
                    }
                    _ => {
                        let from = below(&mut state, m.len());
                        let to = (from + 1 + below(&mut state, 40)).min(m.len());
                        let slice = m[from..to].to_vec();
                        let at = below(&mut state, m.len() + 1);
                        m.splice(at..at, slice);
                    }
                }
                let m = String::from_utf8(m).unwrap();
                // The seal check alone refuses every change to a sealed file.
                assert!(sealed_identity(&m).is_err(), "{m}");
                let Ok(ckpt) = SweepCheckpoint::from_json(&m) else {
                    refused += 1;
                    continue;
                };
                kept += 1;
                assert!(ckpt.chunks.len() <= MAX_CHUNKS);
                let records: usize = ckpt.chunks.iter().flatten().map(Vec::len).sum();
                assert!(records <= m.lines().count() * MAX_CHUNK_STARTS);
                if is_sealed {
                    // The seal guards every record: what is left is the
                    // clean file's, less a torn tail.
                    assert_eq!(ckpt.identity, clean.identity, "{m}");
                    for (c, chunk) in ckpt.chunks.iter().enumerate() {
                        if chunk.is_some() {
                            assert_eq!(chunk, &clean.chunks[c], "chunk {c} of {m}");
                        }
                    }
                }
            }
        }
        assert!(kept > 0 && refused > kept, "{kept} kept, {refused} refused");
    }

    #[test]
    fn hostile_headers_and_lines_are_refused() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let text = String::from_utf8(unbroken_bytes(&inst, &RunConfig::default(), "hostile.json"));
        let text = text.unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let header = lines[0];
        let c0 = lines[1];
        let partial = format!("{header}{c0}");
        let seal_at = text.rfind("{\"seal\"").unwrap();
        let unsealed = &text[..seal_at];
        let edit = |src: &str, from: &str, to: &str| {
            assert!(src.contains(from), "{from}");
            src.replacen(from, to, 1)
        };
        let stamped = |spec: &str| {
            let stamp = format!("\"num_chunks\": 6, \"partition\": \"{spec}\"");
            (
                edit(&partial, "\"num_chunks\": 6", &stamp),
                "malformed partition",
            )
        };
        let cases = [
            (
                edit(
                    &text,
                    "\"num_chunks\": 6",
                    "\"num_chunks\": 18446744073709551615",
                ),
                "past the bound",
            ),
            (
                edit(
                    &partial,
                    "\"num_chunks\": 6",
                    &format!("\"num_chunks\": {}", MAX_CHUNKS + 1),
                ),
                "past the bound",
            ),
            (
                edit(&partial, "\"volume\": [", "\"volume\": [7,"),
                "values for",
            ),
            (
                format!(
                    "{header}{{\"chunk\": 1, \"starts\": 4097, \"first_root\": 0, \"volume\": 1, \
                 \"distance\": 0, \"distance_upper\": 0, \"queries\": 1, \"random_bits\": 0, \
                 \"completed\": 1}}\n"
                ),
                "past the chunk bound",
            ),
            (format!("{partial}{c0}"), "appears twice"),
            (
                edit(&partial, "\"chunk\": 0", "\"chunk\": 6"),
                "out of range",
            ),
            (
                edit(
                    &partial,
                    "\"first_root\": 0",
                    "\"first_root\": 18446744073709551615",
                ),
                "overflows",
            ),
            (
                edit(&partial, "\"random_bits\": 0", "\"random_bits\": null"),
                "is null",
            ),
            (
                edit(&partial, "\"completed\": 1", "\"completed\": 2"),
                "not 0 or 1",
            ),
            (
                edit(&partial, "\"volume\": [", "\"volume\": [-"),
                "signed number",
            ),
            (
                format!("{unsealed}{{\"seal\": \"0123456789abcdef\"}}\n"),
                "seal digest",
            ),
            (
                format!("{partial}{{\"seal\": \"0123456789abcdef\"}}\n"),
                "seal after 1 of 6",
            ),
            // A stamp naming the chunk `usize::MAX`, which has no successor.
            stamped("18446744073709551615/4"),
            stamped("18446744073709551615/18446744073709551615"),
            (format!("{text}{c0}"), "follows the seal"),
            (format!("{text}{{"), "follows the seal"),
            // A header that does not parse makes the whole file parse, to
            // name a retired schema; that parse must stop at the depth bound.
            ("[".repeat(100_000), "malformed header line: expected '{'"),
        ];
        for (src, why) in &cases {
            let err = SweepCheckpoint::from_json(src).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
        // Chunk lines out of chunk order are fine in a partial file and
        // refused under a seal.
        let (c1, rest) = (lines[2], lines[3..].concat());
        let swapped = format!("{header}{c1}{c0}{rest}");
        let err = SweepCheckpoint::from_json(&swapped).unwrap_err();
        assert!(err.contains("in chunk order: false"), "{err}");
        let swapped_partial = format!("{header}{c1}{c0}");
        assert_eq!(
            SweepCheckpoint::from_json(&swapped_partial)
                .unwrap()
                .completed_chunks(),
            2
        );
        // The retired schemas get the migration message.
        let v2 = "{\n  \"schema\": \"vc-engine-checkpoint/v2\",\n  \"instance_id\": \"00000000000000aa\",\n  \
                  \"sweep_id\": \"00000000000000bb\",\n  \"num_chunks\": 1,\n  \"chunks\": [\n    \
                  [{\"root\": 0, \"volume\": 1, \"distance\": 0, \"distance_upper\": 0, \"queries\": 1, \
                  \"random_bits\": 0, \"completed\": true}]\n  ]\n}\n";
        let v3 = text.replacen(CHECKPOINT_SCHEMA, "vc-engine-checkpoint/v3", 1);
        for retired in [v2, &v2.replace("/v2", "/v1"), &v3] {
            let err = SweepCheckpoint::from_json(retired).unwrap_err();
            assert!(err.contains("delete the file"), "{err}");
            assert_eq!(sealed_identity(retired), Err(err));
        }
    }

    #[test]
    fn the_seal_check_reads_only_the_header_and_the_seal() {
        let inst = vc_graph::gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let text = String::from_utf8(unbroken_bytes(&inst, &config, "seal_check.json")).unwrap();
        let clean = SweepCheckpoint::from_json(&text).unwrap();
        assert_eq!(sealed_identity(&text), Ok(clean.identity));
        // The seal digests the bytes before it: it is the same line
        // however the file was written, and every byte of it is checked.
        let seal_at = text.rfind("{\"seal\"").unwrap();
        let line = &text[seal_at..text.len() - 1];
        assert_eq!(line, seal_line(&text[..seal_at]));
        let hex = &line["{\"seal\": \"".len()..line.len() - 2];
        let upper = text.replacen(hex, &hex.to_uppercase(), 1);
        assert_ne!(upper, text, "the seal has a hex letter");
        let spaced = format!("{}{}\n", &text[..seal_at], line.replace(": ", ":  "));
        let partial = temp_path("seal_check_partial.json");
        let _ = std::fs::remove_file(&partial);
        Engine::with_threads(1)
            .with_chunk_quota(5)
            .with_checkpoint(&partial)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let partial = std::fs::read_to_string(&partial).unwrap();
        let cases = [
            (upper.as_str(), "seal digest mismatch"),
            (&spaced, "seal digest mismatch"),
            (&text[..text.len() - 1], "torn"),
            (&text[..seal_at], "seal digest mismatch"),
            (&partial, "seal digest mismatch"),
            (&text[..text.find('\n').unwrap() + 1], "no seal line"),
            ("", "malformed header"),
        ];
        for (src, why) in cases {
            let err = sealed_identity(src).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
        // Only the header and the seal are read: a chunk line the decoder
        // refuses passes under the seal of its bytes.
        let body = text[..seal_at].replacen("\"completed\": 1", "\"completed\": 2", 1);
        let forged = format!("{body}{}\n", seal_line(&body));
        assert_eq!(sealed_identity(&forged), Ok(clean.identity));
        let err = SweepCheckpoint::from_json(&forged).unwrap_err();
        assert!(err.contains("not 0 or 1"), "{err}");
        for src in [upper, spaced] {
            let err = SweepCheckpoint::from_json(&src).unwrap_err();
            assert!(err.contains("seal digest mismatch"), "{err}");
        }
    }
}
