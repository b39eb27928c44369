//! On-disk, content-addressed artifact store — the disk tier under
//! [`crate::cache::ScenarioCache`].
//!
//! Every cache in the pipeline is per-process: a `scenicd` restart or a
//! fresh CLI run recompiles and re-prunes everything. The
//! [`ArtifactStore`] persists compiled [`Scenario`]s together with
//! their §5.2 [`PrunePlan`]s under a content-addressed directory, so a
//! warm process serves its first request without parsing or pruning at
//! all.
//!
//! # Key schema
//!
//! An entry is addressed by `(source FNV-1a hash, world name,
//! store-format version)`:
//!
//! ```text
//! <base>/v<VERSION>/<world>/<source-hash as 016x>.scn
//! <base>/v<VERSION>/ledger.json
//! ```
//!
//! The content hash is [`crate::cache::source_hash`] — the same key the
//! memory tier uses, so the two tiers always agree on identity. The
//! format version lives in the *path* (and in each entry header):
//! entries written by a different format are simply invisible, never
//! misread. Bump [`STORE_FORMAT_VERSION`] whenever the AST codec, the
//! plan codec, the entry framing, or compile semantics change.
//!
//! # Atomicity and distrust
//!
//! Writes go to a unique temp file in the destination directory and
//! are published with an atomic `rename`. Reads verify a magic number,
//! the format version, the addressed world/hash, the payload length,
//! and a whole-entry FNV-1a checksum before decoding a single byte of
//! payload — and the decoders themselves are bounds-checked. Any
//! failure classifies the entry as corrupt: it is counted, deleted
//! (best effort), and rebuilt from source. A store entry is an
//! optimization, never an authority.
//!
//! # The digest ledger
//!
//! Alongside entries, `ledger.json` maps `(scenario key, seed, jobs,
//! engine, batch size)` to the pinned scene-batch digest
//! ([`crate::scene::batch_digest`]). Sampling appends to it; `scenic
//! store verify` replays every entry and any divergence between a
//! fresh run and the recorded digest is a loud, typed error
//! ([`crate::diag::Code::StoreDigestDivergence`]). This turns the
//! determinism contract `tests/determinism.rs` asserts in CI into an
//! artifact users can audit across machines and versions.

use crate::cache::source_hash;
use crate::error::Pruner;
use crate::interp::{assemble_with_world, Scenario};
use crate::json_escape;
use crate::prune::{PruneParams, PrunePlan, PrunerEffect, RegionGuard};
use crate::world::{NativeValue, World};
use scenic_geom::field::FieldCell;
use scenic_geom::region::PolygonRegion;
use scenic_geom::{Heading, Polygon, Region, Sector, Vec2, VectorField};
use scenic_lang::codec::{decode_program, encode_program, ByteReader, ByteWriter, CodecError};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the on-disk entry and ledger formats. Entries of other
/// versions live in sibling `v<N>/` directories and are never read or
/// migrated. See the module docs for the bump policy.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every entry file.
const MAGIC: &[u8; 8] = b"SCNART1\n";

/// Entry file extension.
const ENTRY_EXT: &str = "scn";

/// Ledger schema tag.
const LEDGER_SCHEMA: &str = "scenic-store-ledger/v1";

/// FNV-1a (64-bit) over raw bytes — same family as
/// [`crate::cache::source_hash`], used for the entry checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A typed store failure. Entry-level corruption is *not* an error —
/// corrupt entries are silently rebuilt — so this only covers I/O on
/// the store directory, an unreadable ledger, and ledger digest
/// divergence.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble on the store directory or ledger.
    Io(io::Error),
    /// The ledger exists but cannot be parsed. The ledger is an audit
    /// record, so it is never silently rebuilt the way entries are.
    Ledger {
        /// Ledger path.
        path: PathBuf,
        /// Why parsing failed.
        reason: String,
    },
    /// A fresh sampling run disagrees with the digest the ledger
    /// recorded for the same key — the reproducibility contract broke.
    Divergence {
        /// The key that diverged.
        key: LedgerKey,
        /// Digest the ledger has pinned.
        recorded: u64,
        /// Digest the fresh run produced.
        fresh: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store I/O error: {e}"),
            StoreError::Ledger { path, reason } => {
                write!(f, "unreadable ledger {}: {reason}", path.display())
            }
            StoreError::Divergence {
                key,
                recorded,
                fresh,
            } => write!(
                f,
                "digest divergence for scenario {:016x} (world {}, seed {}, jobs {}, n {}, \
                 engine {}): ledger pinned {recorded}, fresh run produced {fresh}",
                key.scenario, key.world, key.seed, key.jobs, key.n, key.engine
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Everything that identifies one recorded sampling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerKey {
    /// [`source_hash`] of the scenario source.
    pub scenario: u64,
    /// World the scenario compiled against.
    pub world: String,
    /// Root seed of the batch.
    pub seed: u64,
    /// Worker count the batch ran with (digests are jobs-invariant;
    /// recorded so `verify` replays the run exactly as it happened).
    pub jobs: usize,
    /// Number of scenes in the batch.
    pub n: usize,
    /// Evaluation engine (`ast` or `compiled`).
    pub engine: String,
}

/// What [`ArtifactStore::record`] did with a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerOutcome {
    /// First sighting of the key: the digest is now pinned.
    Recorded,
    /// The key was already pinned with the same digest.
    Confirmed,
}

/// The on-disk tier: a content-addressed directory of compiled
/// scenarios plus the digest ledger. Thread-safe; share one instance
/// per store directory via [`Arc`]. See the [module docs](self).
#[derive(Debug)]
pub struct ArtifactStore {
    base: PathBuf,
    root: PathBuf,
    disk_hits: AtomicUsize,
    disk_misses: AtomicUsize,
    corrupt: AtomicUsize,
    writes: AtomicUsize,
    recorded: AtomicUsize,
    confirmed: AtomicUsize,
    ledger_lock: Mutex<()>,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `base`. Entries
    /// live under `base/v<VERSION>/`.
    ///
    /// # Errors
    ///
    /// Fails when the version directory cannot be created (e.g. `base`
    /// is a file or unwritable).
    pub fn open(base: impl Into<PathBuf>) -> io::Result<Self> {
        let base = base.into();
        let root = base.join(format!("v{STORE_FORMAT_VERSION}"));
        std::fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            base,
            root,
            disk_hits: AtomicUsize::new(0),
            disk_misses: AtomicUsize::new(0),
            corrupt: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            recorded: AtomicUsize::new(0),
            confirmed: AtomicUsize::new(0),
            ledger_lock: Mutex::new(()),
        })
    }

    /// The conventional default store location, `~/.cache/scenic`
    /// (`None` when `$HOME` is unset).
    #[must_use]
    pub fn default_dir() -> Option<PathBuf> {
        std::env::var_os("HOME").map(|home| PathBuf::from(home).join(".cache").join("scenic"))
    }

    /// The base directory this store was opened at.
    #[must_use]
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Path of the entry addressed by `(world, hash)` under the current
    /// format version.
    #[must_use]
    pub fn entry_path(&self, world: &str, hash: u64) -> PathBuf {
        self.root
            .join(world)
            .join(format!("{hash:016x}.{ENTRY_EXT}"))
    }

    /// Path of the digest ledger.
    #[must_use]
    pub fn ledger_path(&self) -> PathBuf {
        self.root.join("ledger.json")
    }

    /// Number of valid-looking entry files currently on disk (by name
    /// only; contents are verified at load time).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        let Ok(worlds) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        worlds
            .flatten()
            .filter(|d| d.path().is_dir())
            .filter_map(|d| std::fs::read_dir(d.path()).ok())
            .flat_map(|entries| entries.flatten())
            .filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT))
            .count()
    }

    /// Loads the entry for `(world_name, source)`, verifying integrity
    /// and reassembling a ready-to-sample [`Scenario`] (prune plan
    /// pre-seeded when the entry carries one). `None` on absence or on
    /// any corruption — corrupt entries are counted, deleted, and left
    /// for the caller to rebuild.
    pub fn load(&self, world_name: &str, source: &str, world: &World) -> Option<Arc<Scenario>> {
        self.load_by_hash(world_name, source_hash(source), world)
    }

    /// [`ArtifactStore::load`] addressed by content hash directly (the
    /// ledger records hashes, not sources).
    pub fn load_by_hash(
        &self,
        world_name: &str,
        hash: u64,
        world: &World,
    ) -> Option<Arc<Scenario>> {
        let path = self.entry_path(world_name, hash);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, world_name, hash, world) {
            Ok(scenario) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(scenario))
            }
            Err(_) => {
                // Torn write, stale format, tampering — whatever it
                // was, the entry is untrustworthy: drop it and let the
                // caller rebuild from source.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `scenario` under `(world_name, source)`, forcing its
    /// derived prune plan first so the entry is complete. Atomic:
    /// readers see either the previous entry or the whole new one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the store is left without a
    /// partially-written visible entry either way.
    pub fn save(&self, world_name: &str, source: &str, scenario: &Scenario) -> io::Result<()> {
        let hash = source_hash(source);
        let plan = scenario.prune_plan();
        let bytes = encode_entry(world_name, hash, scenario, &plan);
        let path = self.entry_path(world_name, hash);
        let dir = path.parent().expect("entry path has a parent");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            "{hash:016x}.tmp.{}.{}",
            std::process::id(),
            self.writes.load(Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {}
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Entries loaded intact from disk.
    #[must_use]
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Load attempts that found no usable entry (absent or corrupt).
    #[must_use]
    pub fn disk_misses(&self) -> usize {
        self.disk_misses.load(Ordering::Relaxed)
    }

    /// Entries rejected by integrity checks (and deleted) so far.
    #[must_use]
    pub fn corrupt_entries(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Entries written (published via rename) so far.
    #[must_use]
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// Ledger keys newly pinned by this process.
    #[must_use]
    pub fn ledger_recorded(&self) -> usize {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Ledger keys re-checked and confirmed by this process.
    #[must_use]
    pub fn ledger_confirmed(&self) -> usize {
        self.confirmed.load(Ordering::Relaxed)
    }

    /// Appends (or confirms) `digest` for `key` in the ledger.
    ///
    /// The ledger is re-read, merged, and atomically rewritten under a
    /// process-local lock, so concurrent recorders in one process never
    /// lose entries.
    ///
    /// # Errors
    ///
    /// [`StoreError::Divergence`] when the key is already pinned with a
    /// *different* digest — the recorded digest is kept, never
    /// overwritten. Also I/O and unreadable-ledger errors.
    pub fn record(&self, key: &LedgerKey, digest: u64) -> Result<LedgerOutcome, StoreError> {
        let _guard = self.ledger_lock.lock().expect("ledger lock poisoned");
        let mut entries = self.read_ledger()?;
        if let Some((_, recorded)) = entries.iter().find(|(k, _)| k == key) {
            if *recorded == digest {
                self.confirmed.fetch_add(1, Ordering::Relaxed);
                return Ok(LedgerOutcome::Confirmed);
            }
            return Err(StoreError::Divergence {
                key: key.clone(),
                recorded: *recorded,
                fresh: digest,
            });
        }
        entries.push((key.clone(), digest));
        let rendered = render_ledger(&entries);
        let path = self.ledger_path();
        let tmp = self
            .root
            .join(format!("ledger.json.tmp.{}", std::process::id()));
        std::fs::write(&tmp, rendered)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        Ok(LedgerOutcome::Recorded)
    }

    /// All ledger entries, in the ledger's canonical order.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`StoreError::Ledger`] when the file exists but
    /// does not parse (the ledger is never silently rebuilt).
    pub fn ledger_entries(&self) -> Result<Vec<(LedgerKey, u64)>, StoreError> {
        self.read_ledger()
    }

    fn read_ledger(&self) -> Result<Vec<(LedgerKey, u64)>, StoreError> {
        let path = self.ledger_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        parse_ledger(&text).map_err(|reason| StoreError::Ledger { path, reason })
    }
}

// ---------------------------------------------------------------------
// Entry framing
// ---------------------------------------------------------------------

/// Serializes one complete entry: header, payload (program + optional
/// plan), trailing checksum.
fn encode_entry(world_name: &str, hash: u64, scenario: &Scenario, plan: &PrunePlan) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    let program_bytes = encode_program(&scenario.program);
    payload.u64(program_bytes.len() as u64);
    let mut payload = payload.into_bytes();
    payload.extend_from_slice(&program_bytes);
    match encode_plan(plan) {
        Some(plan_bytes) => {
            payload.push(1);
            payload.extend_from_slice(&plan_bytes);
        }
        // A plan stage used a region shape the codec does not cover:
        // persist the program alone and let warm loads re-prune.
        None => payload.push(0),
    }

    let mut w = ByteWriter::new();
    let mut bytes = MAGIC.to_vec();
    w.u32(STORE_FORMAT_VERSION);
    w.str(world_name);
    w.u64(hash);
    w.u64(payload.len() as u64);
    bytes.extend_from_slice(&w.into_bytes());
    bytes.extend_from_slice(&payload);
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Verifies and decodes one entry into a ready [`Scenario`].
fn decode_entry(
    bytes: &[u8],
    world_name: &str,
    hash: u64,
    world: &World,
) -> Result<Scenario, CodecError> {
    let fail = |msg: &str| CodecError(msg.to_owned());
    if bytes.len() < MAGIC.len() + 8 {
        return Err(fail("entry shorter than header"));
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
    if fnv1a(body) != checksum {
        return Err(fail("checksum mismatch"));
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err(fail("bad magic"));
    }
    let mut r = ByteReader::new(&body[MAGIC.len()..]);
    if r.u32()? != STORE_FORMAT_VERSION {
        return Err(fail("format version mismatch"));
    }
    if r.str()? != world_name {
        return Err(fail("entry world does not match its address"));
    }
    if r.u64()? != hash {
        return Err(fail("entry hash does not match its address"));
    }
    let payload_len = r.u64()? as usize;
    if payload_len != r.remaining() {
        return Err(fail("payload length mismatch"));
    }
    let program_len = r.u64()? as usize;
    if program_len > r.remaining() {
        return Err(fail("program length exceeds payload"));
    }
    let program_end = 8 + program_len;
    let payload = &body[body.len() - payload_len..];
    let program = decode_program(&payload[8..program_end])?;
    let mut rest = ByteReader::new(&payload[program_end..]);
    let plan = match rest.u8()? {
        0 => None,
        1 => Some(decode_plan(&mut rest, world)?),
        b => return Err(CodecError(format!("invalid plan flag {b}"))),
    };
    if rest.remaining() != 0 {
        return Err(fail("trailing bytes after plan"));
    }
    let scenario = assemble_with_world(Arc::new(program), world)
        .map_err(|e| CodecError(format!("assembly failed: {e:?}")))?;
    if let Some(plan) = plan {
        // Pre-seed the lazily-built plan so warm loads never re-prune.
        let _ = scenario.prune.set(Arc::new(plan));
    }
    Ok(scenario)
}

// ---------------------------------------------------------------------
// Prune-plan codec
// ---------------------------------------------------------------------

fn pruner_tag(p: Pruner) -> u8 {
    match p {
        Pruner::Containment => 0,
        Pruner::Orientation => 1,
        Pruner::Size => 2,
    }
}

fn pruner_dec(tag: u8) -> Result<Pruner, CodecError> {
    Ok(match tag {
        0 => Pruner::Containment,
        1 => Pruner::Orientation,
        2 => Pruner::Size,
        t => return Err(CodecError(format!("unknown pruner tag {t}"))),
    })
}

fn opt_f64_enc(w: &mut ByteWriter, v: Option<f64>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.f64(v);
        }
    }
}

fn opt_f64_dec(r: &mut ByteReader) -> Result<Option<f64>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        b => Err(CodecError(format!("invalid option tag {b}"))),
    }
}

fn vec2_enc(w: &mut ByteWriter, v: Vec2) {
    w.f64(v.x);
    w.f64(v.y);
}

fn vec2_dec(r: &mut ByteReader) -> Result<Vec2, CodecError> {
    Ok(Vec2 {
        x: r.f64()?,
        y: r.f64()?,
    })
}

fn polygon_enc(w: &mut ByteWriter, p: &Polygon) {
    w.len(p.vertices().len());
    for &v in p.vertices() {
        vec2_enc(w, v);
    }
}

fn polygon_dec(r: &mut ByteReader) -> Result<Polygon, CodecError> {
    let n = r.len()?;
    if n < 3 {
        return Err(CodecError(format!("polygon with {n} vertex(es)")));
    }
    let mut vertices = Vec::with_capacity(n);
    for _ in 0..n {
        vertices.push(vec2_dec(r)?);
    }
    Ok(Polygon::new(vertices))
}

fn field_enc(w: &mut ByteWriter, f: &VectorField) -> Option<()> {
    match f {
        VectorField::Constant(h) => {
            w.u8(0);
            w.f64(h.0);
        }
        VectorField::Polygonal { cells, default, .. } => {
            w.u8(1);
            w.len(cells.len());
            for cell in cells.iter() {
                polygon_enc(w, &cell.polygon);
                w.f64(cell.heading.0);
            }
            w.f64(default.0);
        }
        VectorField::Radial { target } => {
            w.u8(2);
            vec2_enc(w, *target);
        }
    }
    Some(())
}

fn field_dec(r: &mut ByteReader) -> Result<VectorField, CodecError> {
    Ok(match r.u8()? {
        0 => VectorField::Constant(Heading(r.f64()?)),
        1 => {
            let n = r.len()?;
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                let polygon = polygon_dec(r)?;
                let heading = Heading(r.f64()?);
                cells.push(FieldCell { polygon, heading });
            }
            let default = Heading(r.f64()?);
            VectorField::polygonal(cells, default)
        }
        2 => VectorField::Radial {
            target: vec2_dec(r)?,
        },
        t => return Err(CodecError(format!("unknown field tag {t}"))),
    })
}

/// Encodes a region, or `None` for shapes the codec does not cover
/// (set-operation regions never appear in plan stages today; bail
/// rather than guess).
fn region_enc(w: &mut ByteWriter, region: &Region) -> Option<()> {
    match region {
        Region::Empty => w.u8(0),
        Region::Everywhere => w.u8(1),
        Region::Sector(s) => {
            w.u8(2);
            vec2_enc(w, s.center);
            w.f64(s.radius);
            w.f64(s.heading.0);
            w.f64(s.angle);
        }
        Region::Polygons(pr) => {
            w.u8(3);
            w.len(pr.polygons().len());
            for p in pr.polygons() {
                polygon_enc(w, p);
            }
            w.f64(pr.margin());
            match pr.orientation() {
                None => w.u8(0),
                Some(f) => {
                    w.u8(1);
                    field_enc(w, f)?;
                }
            }
        }
        Region::Intersection(..) | Region::Difference(..) => return None,
    }
    Some(())
}

fn region_dec(r: &mut ByteReader) -> Result<Region, CodecError> {
    Ok(match r.u8()? {
        0 => Region::Empty,
        1 => Region::Everywhere,
        2 => {
            let center = vec2_dec(r)?;
            let radius = r.f64()?;
            let heading = Heading(r.f64()?);
            let angle = r.f64()?;
            Region::Sector(Sector {
                center,
                radius,
                heading,
                angle,
            })
        }
        3 => {
            let n = r.len()?;
            let mut polygons = Vec::with_capacity(n);
            for _ in 0..n {
                polygons.push(polygon_dec(r)?);
            }
            let margin = r.f64()?;
            let orientation = match r.u8()? {
                0 => None,
                1 => Some(field_dec(r)?),
                b => return Err(CodecError(format!("invalid option tag {b}"))),
            };
            let pr = PolygonRegion::new(polygons, orientation);
            Region::Polygons(if margin > 0.0 { pr.eroded(margin) } else { pr })
        }
        t => return Err(CodecError(format!("unknown region tag {t}"))),
    })
}

/// Encodes a plan, or `None` when any stage region is un-encodable.
///
/// A guard's `original` region is matched by `Arc` *identity* against
/// the live world's native, so only its `(module, name)` address is
/// stored; the decoder relinks it from the [`World`] it loads against.
fn encode_plan(plan: &PrunePlan) -> Option<Vec<u8>> {
    let mut w = ByteWriter::new();
    let p = &plan.params;
    w.f64(p.min_radius);
    match p.relative_heading {
        None => w.u8(0),
        Some((lo, hi)) => {
            w.u8(1);
            w.f64(lo);
            w.f64(hi);
        }
    }
    w.f64(p.max_distance);
    w.f64(p.heading_tolerance);
    opt_f64_enc(&mut w, p.min_width);
    w.len(plan.guards.len());
    for guard in &plan.guards {
        w.str(&guard.module);
        w.str(&guard.name);
        w.len(guard.stages().len());
        for (pruner, region) in guard.stages() {
            w.u8(pruner_tag(*pruner));
            region_enc(&mut w, region)?;
        }
        w.len(guard.effects.len());
        for effect in &guard.effects {
            w.u8(pruner_tag(effect.pruner));
            w.f64(effect.area_before);
            w.f64(effect.area_after);
        }
    }
    Some(w.into_bytes())
}

fn decode_plan(r: &mut ByteReader, world: &World) -> Result<PrunePlan, CodecError> {
    let min_radius = r.f64()?;
    let relative_heading = match r.u8()? {
        0 => None,
        1 => Some((r.f64()?, r.f64()?)),
        b => return Err(CodecError(format!("invalid option tag {b}"))),
    };
    let max_distance = r.f64()?;
    let heading_tolerance = r.f64()?;
    let min_width = opt_f64_dec(r)?;
    let params = PruneParams {
        min_radius,
        relative_heading,
        max_distance,
        heading_tolerance,
        min_width,
    };
    let n = r.len()?;
    let mut guards = Vec::with_capacity(n);
    for _ in 0..n {
        let module = r.str()?;
        let name = r.str()?;
        let stage_count = r.len()?;
        let mut stages = Vec::with_capacity(stage_count);
        for _ in 0..stage_count {
            let pruner = pruner_dec(r.u8()?)?;
            stages.push((pruner, region_dec(r)?));
        }
        let effect_count = r.len()?;
        let mut effects = Vec::with_capacity(effect_count);
        for _ in 0..effect_count {
            let pruner = pruner_dec(r.u8()?)?;
            effects.push(PrunerEffect {
                pruner,
                area_before: r.f64()?,
                area_after: r.f64()?,
            });
        }
        let original = relink_native_region(world, &module, &name)
            .ok_or_else(|| CodecError(format!("no native region `{name}` in module `{module}`")))?;
        guards.push(RegionGuard::from_parts(
            module, name, original, stages, effects,
        ));
    }
    Ok(PrunePlan { params, guards })
}

/// Finds the live `Arc` of the world's native region `module.name` —
/// the identity the guard must match against.
fn relink_native_region(world: &World, module: &str, name: &str) -> Option<Arc<Region>> {
    world.module(module)?.natives.iter().find_map(|(n, value)| {
        if n != name {
            return None;
        }
        match value {
            NativeValue::Region(region) => Some(Arc::clone(region)),
            _ => None,
        }
    })
}

// ---------------------------------------------------------------------
// Ledger rendering and parsing
// ---------------------------------------------------------------------

/// Deterministic ledger rendering: entries sorted by key, one object
/// per line, fixed field order, `u64`s as decimal strings (the vendored
/// JSON tree stores numbers as `f64`, which cannot hold them exactly).
/// `tests/store.rs` pins this rendering as a golden output.
fn render_ledger(entries: &[(LedgerKey, u64)]) -> String {
    let mut sorted: Vec<&(LedgerKey, u64)> = entries.iter().collect();
    sorted.sort_by(|(a, _), (b, _)| {
        (a.scenario, &a.world, &a.engine, a.seed, a.jobs, a.n)
            .cmp(&(b.scenario, &b.world, &b.engine, b.seed, b.jobs, b.n))
    });
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{LEDGER_SCHEMA}\",\n"));
    out.push_str("  \"entries\": [");
    for (i, (key, digest)) in sorted.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"scenario\": \"{:016x}\", \"world\": \"{}\", \"seed\": \"{}\", \
             \"jobs\": {}, \"n\": {}, \"engine\": \"{}\", \"digest\": \"{}\"}}",
            key.scenario,
            json_escape(&key.world),
            key.seed,
            key.jobs,
            key.n,
            json_escape(&key.engine),
            digest
        ));
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn parse_ledger(text: &str) -> Result<Vec<(LedgerKey, u64)>, String> {
    let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("ledger root is not an object")?;
    let schema = obj
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing schema")?;
    if schema != LEDGER_SCHEMA {
        return Err(format!("unknown ledger schema `{schema}`"));
    }
    let raw_entries = obj
        .get("entries")
        .and_then(|v| v.as_array())
        .ok_or("missing entries array")?;
    let mut entries = Vec::with_capacity(raw_entries.len());
    for (i, raw) in raw_entries.iter().enumerate() {
        let at = |field: &str| format!("entry {i}: bad `{field}`");
        let e = raw
            .as_object()
            .ok_or(format!("entry {i} is not an object"))?;
        let scenario = e
            .get("scenario")
            .and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| at("scenario"))?;
        let world = e
            .get("world")
            .and_then(|v| v.as_str())
            .ok_or_else(|| at("world"))?
            .to_owned();
        let seed = e
            .get("seed")
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| at("seed"))?;
        let jobs = e
            .get("jobs")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| at("jobs"))? as usize;
        let n = e.get("n").and_then(|v| v.as_u64()).ok_or_else(|| at("n"))? as usize;
        let engine = e
            .get("engine")
            .and_then(|v| v.as_str())
            .ok_or_else(|| at("engine"))?
            .to_owned();
        let digest = e
            .get("digest")
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| at("digest"))?;
        entries.push((
            LedgerKey {
                scenario,
                world,
                seed,
                jobs,
                n,
                engine,
            },
            digest,
        ));
    }
    Ok(entries)
}

/// Convenience re-exports of the digest helpers the ledger pins.
pub use crate::scene::{batch_digest, scene_digest};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_with_world;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scenic-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SRC: &str = "ego = Object at 0 @ 0\nObject at 0 @ (5, 10)\n";

    #[test]
    fn save_load_roundtrip_bare_world() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        let world = World::bare();
        let scenario = compile_with_world(SRC, &world).unwrap();
        assert!(store.load("bare", SRC, &world).is_none());
        store.save("bare", SRC, &scenario).unwrap();
        let loaded = store.load("bare", SRC, &world).expect("loads");
        assert_eq!(*loaded.program, *scenario.program);
        // Identical sampling behavior.
        let a = scenario.generate_seeded(7).unwrap();
        let b = loaded.generate_seeded(7).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(store.disk_hits(), 1);
        assert_eq!(store.disk_misses(), 1);
        assert_eq!(store.writes(), 1);
        assert_eq!(store.entry_count(), 1);
    }

    #[test]
    fn corrupt_entry_is_deleted_and_rebuilt() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let world = World::bare();
        let scenario = compile_with_world(SRC, &world).unwrap();
        store.save("bare", SRC, &scenario).unwrap();
        let path = store.entry_path("bare", source_hash(SRC));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load("bare", SRC, &world).is_none());
        assert_eq!(store.corrupt_entries(), 1);
        assert!(!path.exists(), "corrupt entry must be deleted");
    }

    #[test]
    fn ledger_record_confirm_and_diverge() {
        let dir = tmpdir("ledger");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = LedgerKey {
            scenario: 0xabcd,
            world: "bare".into(),
            seed: 7,
            jobs: 1,
            n: 3,
            engine: "compiled".into(),
        };
        assert_eq!(store.record(&key, 11).unwrap(), LedgerOutcome::Recorded);
        assert_eq!(store.record(&key, 11).unwrap(), LedgerOutcome::Confirmed);
        match store.record(&key, 12) {
            Err(StoreError::Divergence {
                recorded, fresh, ..
            }) => {
                assert_eq!((recorded, fresh), (11, 12));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // The pinned digest survives the divergence attempt.
        let entries = store.ledger_entries().unwrap();
        assert_eq!(entries, vec![(key, 11)]);
    }

    #[test]
    fn ledger_render_parse_roundtrip_and_determinism() {
        let a = LedgerKey {
            scenario: 2,
            world: "gta".into(),
            seed: 9,
            jobs: 4,
            n: 2,
            engine: "ast".into(),
        };
        let b = LedgerKey {
            scenario: 1,
            world: "mars".into(),
            seed: 7,
            jobs: 1,
            n: 3,
            engine: "compiled".into(),
        };
        let entries = vec![(a.clone(), u64::MAX), (b.clone(), 42)];
        let rendered = render_ledger(&entries);
        let parsed = parse_ledger(&rendered).unwrap();
        // Canonical order sorts by scenario hash first.
        assert_eq!(parsed, vec![(b, 42), (a, u64::MAX)]);
        // Input order never changes the bytes.
        let mut reversed = entries.clone();
        reversed.reverse();
        assert_eq!(rendered, render_ledger(&reversed));
    }

    #[test]
    fn malformed_ledger_is_a_typed_error() {
        let dir = tmpdir("badledger");
        let store = ArtifactStore::open(&dir).unwrap();
        std::fs::write(store.ledger_path(), "{ not json").unwrap();
        assert!(matches!(
            store.ledger_entries(),
            Err(StoreError::Ledger { .. })
        ));
    }
}
