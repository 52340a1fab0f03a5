//! Checkpointed JSONL result store.
//!
//! One file per campaign run: a header line identifying the matrix (run id,
//! seed, trials, shard size, cell-list digest), then one line per completed
//! shard carrying its raw tallies. Records are appended and flushed as
//! shards finish, so a killed run loses at most the line being written;
//! on reopen the store truncates any half-written trailing line and hands
//! back the set of persisted shards, which the pool skips.
//!
//! Record shapes (all numbers are `u64`):
//!
//! ```text
//! {"cfed_campaign":2,"run_id":"…","seed":S,"trials":T,"shard_trials":64,
//!  "digest":D,"total_shards":N}
//! {"shard":"<cell key>#<shard index>",
//!  "cats":[[chk,hw,fault,benign,sdc,timeout] × 7 in Category::ALL order],
//!  "skipped":K,
//!  "lat":[[hist|null × 6 in Outcome::ALL order] × 7 in Category::ALL order]}
//! {"shard":"<cell key>#<shard index>","error":"…"}
//! {"meta":"run", …}
//! {"meta":"profile","cell":"<cell key>","profile":{…}}
//! ```
//!
//! Histograms use the sparse `cfed_telemetry::Histogram` form
//! (`{"n":…,"sum":…,"min":…,"max":…,"b":[[bucket,count],…]}`, `null` when
//! empty). Error records mark shards whose worker panicked; they are *not*
//! treated as done, so a resume retries them. Meta records carry run-level
//! telemetry (wall-clock, thread count); they are ignored when loading, so
//! reports derive exclusively from shard tallies and stay byte-identical
//! across kill/resume. The one exception is the `profile` meta kind: a
//! cell's execution profile is a deterministic function of `(workload,
//! configuration)`, so it is persisted at most once per cell
//! ([`CampaignStore::append_profile`] is idempotent across kill/resume)
//! and its record bytes are identical for any thread count.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use cfed_fault::{CampaignReport, CategoryStats};
use cfed_telemetry::{Histogram, Profile};

use crate::json::{obj, parse, Json};

/// Identity of a campaign run, written as the first line of the store file.
/// A resume validates every field; a mismatch means the file belongs to a
/// different campaign and is refused rather than silently merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHeader {
    /// Human-chosen run identifier.
    pub run_id: String,
    /// Campaign seed shared by every cell.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u64,
    /// Shard size in trials ([`cfed_fault::SHARD_TRIALS`]).
    pub shard_trials: u64,
    /// FNV digest of the full cell-key list.
    pub digest: u64,
    /// Total shards across all cells.
    pub total_shards: u64,
}

impl StoreHeader {
    /// Serializes the header line (public: the `cfed-serve` protocol ships
    /// headers over the wire in the same shape the store persists).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("cfed_campaign", Json::UInt(2)),
            ("run_id", Json::Str(self.run_id.clone())),
            ("seed", Json::UInt(self.seed)),
            ("trials", Json::UInt(self.trials)),
            ("shard_trials", Json::UInt(self.shard_trials)),
            ("digest", Json::UInt(self.digest)),
            ("total_shards", Json::UInt(self.total_shards)),
        ])
    }

    /// Parses a header produced by [`StoreHeader::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<StoreHeader, String> {
        let field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("header missing {k}"));
        if field("cfed_campaign")? != 2 {
            return Err("unsupported store version".into());
        }
        Ok(StoreHeader {
            run_id: v
                .get("run_id")
                .and_then(Json::as_str)
                .ok_or("header missing run_id")?
                .to_string(),
            seed: field("seed")?,
            trials: field("trials")?,
            shard_trials: field("shard_trials")?,
            digest: field("digest")?,
            total_shards: field("total_shards")?,
        })
    }
}

/// The store's former shard-tally type, now [`CampaignReport`] itself.
/// Kept only because `perfbench/` names it; retire it with the next change
/// to the benchmark.
pub type ShardTallies = CampaignReport;

/// Serializes one shard's tallies as the store's shard record (public: the
/// `cfed-serve` result frames carry exactly this shape, so a coordinator
/// appends worker results without re-encoding).
pub fn shard_to_json(shard_key: &str, tallies: &CampaignReport) -> Json {
    let cats = tallies
        .stats
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::UInt(s.detected_check),
                Json::UInt(s.detected_hw),
                Json::UInt(s.other_fault),
                Json::UInt(s.benign),
                Json::UInt(s.sdc),
                Json::UInt(s.timeout),
            ])
        })
        .collect();
    let lat = tallies
        .lat
        .iter()
        .map(|row| Json::Arr(row.iter().map(Histogram::to_json).collect()))
        .collect();
    obj(vec![
        ("shard", Json::Str(shard_key.to_string())),
        ("cats", Json::Arr(cats)),
        ("skipped", Json::UInt(tallies.skipped)),
        ("lat", Json::Arr(lat)),
    ])
}

/// Parses a shard record produced by [`shard_to_json`].
///
/// # Errors
///
/// Returns a message describing the malformed field.
pub fn shard_from_json(v: &Json) -> Result<CampaignReport, String> {
    let cats = v.get("cats").and_then(Json::as_arr).ok_or("record missing cats")?;
    if cats.len() != 7 {
        return Err(format!("expected 7 categories, got {}", cats.len()));
    }
    let mut tallies = CampaignReport::default();
    for (slot, cat) in tallies.stats.iter_mut().zip(cats) {
        let nums = cat.as_arr().ok_or("category tallies must be an array")?;
        if nums.len() != 6 {
            return Err(format!("expected 6 tallies, got {}", nums.len()));
        }
        let n = |i: usize| nums[i].as_u64().ok_or("tally must be a number".to_string());
        *slot = CategoryStats {
            detected_check: n(0)?,
            detected_hw: n(1)?,
            other_fault: n(2)?,
            benign: n(3)?,
            sdc: n(4)?,
            timeout: n(5)?,
        };
    }
    tallies.skipped = v.get("skipped").and_then(Json::as_u64).ok_or("record missing skipped")?;
    let rows = v.get("lat").and_then(Json::as_arr).ok_or("record missing lat")?;
    if rows.len() != 7 {
        return Err(format!("expected 7 latency rows, got {}", rows.len()));
    }
    for (slot_row, row) in tallies.lat.iter_mut().zip(rows) {
        let cells = row.as_arr().ok_or("latency row must be an array")?;
        if cells.len() != 6 {
            return Err(format!("expected 6 latency cells, got {}", cells.len()));
        }
        for (slot, cell) in slot_row.iter_mut().zip(cells) {
            *slot = Histogram::from_json(cell)?;
        }
    }
    Ok(tallies)
}

/// The open store: an append-only JSONL file plus the in-memory map of
/// shards it already holds. A store can also be purely in-memory (no
/// persistence, no resume) for callers that only want the pool.
#[derive(Debug)]
pub struct CampaignStore {
    path: Option<PathBuf>,
    writer: Option<BufWriter<File>>,
    /// Shards with persisted results, by shard key.
    pub done: BTreeMap<String, CampaignReport>,
    /// Shards whose last persisted record is a failure (retried on resume).
    pub failed: BTreeMap<String, String>,
    /// Per-cell execution profiles, by cell key (at most one per cell).
    pub profiles: BTreeMap<String, Profile>,
    /// Whether the store resumed an existing file.
    pub resumed: bool,
}

/// Everything [`CampaignStore::load`] recovers from an existing store body.
struct Loaded {
    header: StoreHeader,
    done: BTreeMap<String, CampaignReport>,
    failed: BTreeMap<String, String>,
    profiles: BTreeMap<String, Profile>,
    /// Byte length of the valid prefix (everything before a possible
    /// truncated final line).
    valid_bytes: usize,
}

impl CampaignStore {
    /// An ephemeral store: records are tallied in memory and dropped with
    /// the value. Used when a caller wants the worker pool but not the
    /// checkpoint file.
    pub fn in_memory() -> CampaignStore {
        CampaignStore {
            path: None,
            writer: None,
            done: BTreeMap::new(),
            failed: BTreeMap::new(),
            profiles: BTreeMap::new(),
            resumed: false,
        }
    }

    /// Opens the store at `path`. A missing file is created with a fresh
    /// header; an existing file is validated against `header` and its
    /// records loaded. A half-written trailing line (killed run) is
    /// truncated away; corruption anywhere else is an error.
    pub fn open(path: &Path, header: &StoreHeader) -> Result<CampaignStore, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let existing = path.exists();
        if !existing {
            let file =
                File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
            let mut writer = BufWriter::new(file);
            writeln!(writer, "{}", header.to_json().render())
                .and_then(|()| writer.flush())
                .map_err(|e| format!("writing header: {e}"))?;
            return Ok(CampaignStore {
                path: Some(path.to_path_buf()),
                writer: Some(writer),
                done: BTreeMap::new(),
                failed: BTreeMap::new(),
                profiles: BTreeMap::new(),
                resumed: false,
            });
        }

        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let Loaded { header: found, done, failed, profiles, valid_bytes } =
            Self::load(&text, path)?;
        if found != *header {
            return Err(format!(
                "store {} belongs to a different campaign \
                 (found run_id={:?} seed={} trials={} digest={:#x}, \
                 expected run_id={:?} seed={} trials={} digest={:#x})",
                path.display(),
                found.run_id,
                found.seed,
                found.trials,
                found.digest,
                header.run_id,
                header.seed,
                header.trials,
                header.digest,
            ));
        }

        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        // Drop the half-written tail, if any, before appending new records.
        file.set_len(valid_bytes as u64).map_err(|e| format!("truncating store: {e}"))?;
        file.seek(SeekFrom::Start(valid_bytes as u64))
            .map_err(|e| format!("seeking store: {e}"))?;
        let writer = BufWriter::new(file);
        Ok(CampaignStore {
            path: Some(path.to_path_buf()),
            writer: Some(writer),
            done,
            failed,
            profiles,
            resumed: true,
        })
    }

    /// Parses an existing store body: the header, the shard records, the
    /// per-cell profiles, and the byte length of the valid prefix
    /// (everything up to a possible truncated final line). Other meta
    /// records are skipped.
    fn load(text: &str, path: &Path) -> Result<Loaded, String> {
        let mut header = None;
        let mut done = BTreeMap::new();
        let mut failed: BTreeMap<String, String> = BTreeMap::new();
        let mut profiles: BTreeMap<String, Profile> = BTreeMap::new();
        let mut valid_bytes = 0usize;
        let mut offset = 0usize;
        while offset < text.len() {
            let rest = &text[offset..];
            let (line, consumed, complete) = match rest.find('\n') {
                Some(nl) => (&rest[..nl], nl + 1, true),
                None => (rest, rest.len(), false),
            };
            if line.trim().is_empty() {
                offset += consumed;
                if complete {
                    valid_bytes = offset;
                }
                continue;
            }
            let parsed = parse(line);
            let (value, line_ok) = match parsed {
                Ok(v) => (v, complete),
                // A parse failure is only tolerable as the file's final
                // line — the signature of a write cut short by a kill.
                Err(e) if offset + consumed == text.len() => {
                    eprintln!(
                        "cfed-runner: dropping half-written record at end of {}: {e}",
                        path.display()
                    );
                    (Json::Null, false)
                }
                Err(e) => return Err(format!("corrupt store {}: {e}", path.display())),
            };
            if line_ok {
                if header.is_none() {
                    header = Some(StoreHeader::from_json(&value)?);
                } else if value.get("meta").is_some() {
                    // Run-level telemetry: never part of the tallies. The
                    // profile kind is loaded so resumes stay idempotent.
                    if value.get("meta").and_then(Json::as_str) == Some("profile") {
                        let cell = value.get("cell").and_then(Json::as_str).ok_or_else(|| {
                            format!("profile record missing cell in {}", path.display())
                        })?;
                        let profile = value
                            .get("profile")
                            .ok_or_else(|| {
                                format!("profile record missing profile in {}", path.display())
                            })
                            .and_then(Profile::from_json)?;
                        profiles.insert(cell.to_string(), profile);
                    }
                } else {
                    let key = value
                        .get("shard")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("record missing shard key in {}", path.display()))?
                        .to_string();
                    if let Some(err) = value.get("error").and_then(Json::as_str) {
                        failed.insert(key, err.to_string());
                    } else {
                        failed.remove(&key);
                        done.insert(key, shard_from_json(&value)?);
                    }
                }
                valid_bytes = offset + consumed;
            }
            offset += consumed;
        }
        let Some(header) = header else {
            return Err(format!("store {} has no header line", path.display()));
        };
        Ok(Loaded { header, done, failed, profiles, valid_bytes })
    }

    fn append_line(&mut self, line: &str) -> Result<(), String> {
        if let Some(writer) = &mut self.writer {
            writeln!(writer, "{line}").and_then(|()| writer.flush()).map_err(|e| {
                let path = self.path.as_deref().map(Path::display);
                format!("appending to {}: {e}", path.map_or("store".to_string(), |p| p.to_string()))
            })?;
        }
        Ok(())
    }

    /// Persists one completed shard (appended and flushed immediately).
    pub fn append_ok(&mut self, shard_key: &str, tallies: CampaignReport) -> Result<(), String> {
        self.append_line(&shard_to_json(shard_key, &tallies).render())?;
        self.done.insert(shard_key.to_string(), tallies);
        self.failed.remove(shard_key);
        Ok(())
    }

    /// Persists one failed shard (panic in a worker). Failed shards are
    /// retried on resume.
    pub fn append_failed(&mut self, shard_key: &str, error: &str) -> Result<(), String> {
        let line = obj(vec![
            ("shard", Json::Str(shard_key.to_string())),
            ("error", Json::Str(error.to_string())),
        ])
        .render();
        self.append_line(&line)?;
        self.failed.insert(shard_key.to_string(), error.to_string());
        Ok(())
    }

    /// Persists a cell's execution profile as a `{"meta":"profile",…}`
    /// record, at most once per cell: a repeat append for a cell the store
    /// already holds (including from a resumed file) is a no-op, so the
    /// persisted record set — and its bytes, profiles being deterministic —
    /// is identical across thread counts and kill/resume. Returns whether
    /// the record was written.
    pub fn append_profile(&mut self, cell_key: &str, profile: &Profile) -> Result<bool, String> {
        if self.profiles.contains_key(cell_key) {
            return Ok(false);
        }
        let line = obj(vec![
            ("meta", Json::Str("profile".to_string())),
            ("cell", Json::Str(cell_key.to_string())),
            ("profile", profile.to_json()),
        ])
        .render();
        self.append_line(&line)?;
        self.profiles.insert(cell_key.to_string(), profile.clone());
        Ok(true)
    }

    /// Persists a run-level meta record (`{"meta":kind, …}`). Meta records
    /// are ignored when loading, so wall-clock timings and other
    /// environment-dependent measurements never leak into resumed tallies.
    pub fn append_meta(
        &mut self,
        kind: &str,
        fields: Vec<(&'static str, Json)>,
    ) -> Result<(), String> {
        let mut all = vec![("meta", Json::Str(kind.to_string()))];
        all.extend(fields);
        self.append_line(&obj(all).render())
    }

    /// The store file path (`None` for an in-memory store).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// Reads a store file without an expected header: the report path. Returns
/// the header, the completed shards, and the failed shards. A truncated
/// final line is tolerated (and ignored), matching resume semantics.
#[allow(clippy::type_complexity)]
pub fn read_store(
    path: &Path,
) -> Result<(StoreHeader, BTreeMap<String, CampaignReport>, BTreeMap<String, String>), String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let Loaded { header, done, failed, .. } = CampaignStore::load(&text, path)?;
    Ok((header, done, failed))
}

/// Reads the per-cell execution profiles (`{"meta":"profile",…}` records)
/// from a store file — the `cfed-campaign profile` report path. A truncated
/// final line is tolerated, matching resume semantics.
///
/// # Errors
///
/// Returns a message when the file cannot be read or a record is malformed.
pub fn read_profiles(path: &Path) -> Result<BTreeMap<String, Profile>, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let Loaded { profiles, .. } = CampaignStore::load(&text, path)?;
    Ok(profiles)
}

/// Reads the `{"meta":kind, …}` records of one kind from a store file, in
/// append order. Meta records never influence tallies (they are skipped by
/// [`CampaignStore::open`] / [`read_store`]); this is the side channel the
/// report path uses to surface run-level telemetry such as the campaign
/// service's `serve_stats` records.
///
/// # Errors
///
/// Returns a message when the file cannot be read or a complete line fails
/// to parse (a truncated final line is tolerated, matching resume
/// semantics).
pub fn read_meta(path: &Path, kind: &str) -> Result<Vec<Json>, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') {
            // Half-written trailing line of a killed run: never counted,
            // same as the resume path.
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = parse(line).map_err(|e| format!("corrupt store {}: {e}", path.display()))?;
        if parsed.get("meta").and_then(Json::as_str) == Some(kind) {
            out.push(parsed);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> StoreHeader {
        StoreHeader {
            run_id: "test-run".into(),
            seed: 7,
            trials: 128,
            shard_trials: 64,
            digest: 0xDEAD_BEEF,
            total_shards: 2,
        }
    }

    fn tallies(n: u64) -> CampaignReport {
        let mut t = CampaignReport { skipped: n, ..Default::default() };
        t.stats[0].detected_check = n + 1;
        t.stats[3].sdc = 2 * n;
        for i in 0..n {
            t.lat[0][0].record(10 + i);
            t.lat[3][4].record(0);
        }
        t
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfed-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("run.jsonl")
    }

    #[test]
    fn create_append_resume() {
        let path = tmp("basic");
        let mut store = CampaignStore::open(&path, &header()).unwrap();
        assert!(!store.resumed);
        store.append_ok("cell#0", tallies(1)).unwrap();
        store.append_failed("cell#1", "worker panicked").unwrap();
        drop(store);

        let store = CampaignStore::open(&path, &header()).unwrap();
        assert!(store.resumed);
        assert_eq!(store.done.len(), 1);
        assert_eq!(store.done["cell#0"], tallies(1));
        assert_eq!(store.failed["cell#1"], "worker panicked");
    }

    #[test]
    fn failure_then_success_counts_as_done() {
        let path = tmp("retry");
        let mut store = CampaignStore::open(&path, &header()).unwrap();
        store.append_failed("cell#0", "boom").unwrap();
        store.append_ok("cell#0", tallies(3)).unwrap();
        drop(store);
        let store = CampaignStore::open(&path, &header()).unwrap();
        assert!(store.failed.is_empty());
        assert_eq!(store.done["cell#0"], tallies(3));
    }

    #[test]
    fn truncated_tail_is_dropped_and_overwritten() {
        let path = tmp("trunc");
        let mut store = CampaignStore::open(&path, &header()).unwrap();
        store.append_ok("cell#0", tallies(1)).unwrap();
        drop(store);
        // Simulate a kill mid-write: append half a record, no newline.
        let mut raw = OpenOptions::new().append(true).open(&path).unwrap();
        write!(raw, "{{\"shard\":\"cell#1\",\"cats\":[[1,2").unwrap();
        drop(raw);

        let mut store = CampaignStore::open(&path, &header()).unwrap();
        assert_eq!(store.done.len(), 1, "half-written shard must not count");
        store.append_ok("cell#1", tallies(2)).unwrap();
        drop(store);

        let store = CampaignStore::open(&path, &header()).unwrap();
        assert_eq!(store.done.len(), 2);
        assert_eq!(store.done["cell#1"], tallies(2));
    }

    #[test]
    fn header_mismatch_is_refused() {
        let path = tmp("mismatch");
        drop(CampaignStore::open(&path, &header()).unwrap());
        let other = StoreHeader { seed: 8, ..header() };
        let err = CampaignStore::open(&path, &other).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let path = tmp("midcorrupt");
        drop(CampaignStore::open(&path, &header()).unwrap());
        let mut raw = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(raw, "not json").unwrap();
        writeln!(raw, "{}", shard_to_json("cell#0", &tallies(1)).render()).unwrap();
        drop(raw);
        assert!(CampaignStore::open(&path, &header()).is_err());
    }

    #[test]
    fn meta_records_are_ignored_on_load() {
        let path = tmp("meta");
        let mut store = CampaignStore::open(&path, &header()).unwrap();
        store.append_ok("cell#0", tallies(2)).unwrap();
        store
            .append_meta("run", vec![("wall_ms", Json::UInt(1234)), ("threads", Json::UInt(8))])
            .unwrap();
        drop(store);

        let store = CampaignStore::open(&path, &header()).unwrap();
        assert_eq!(store.done.len(), 1);
        assert_eq!(store.done["cell#0"], tallies(2));

        let (found, done, failed) = read_store(&path).unwrap();
        assert_eq!(found, header());
        assert_eq!(done["cell#0"], tallies(2));
        assert!(failed.is_empty());
    }

    #[test]
    fn profile_records_are_idempotent_and_survive_resume() {
        use cfed_telemetry::BlockProfile;
        let path = tmp("profile");
        let mut profile = Profile::new();
        profile.record_block(
            0x100,
            BlockProfile { hits: 3, payload_cycles: 30, head_cycles: 6, tail_cycles: 3 },
        );
        profile.record_other(7);

        let mut store = CampaignStore::open(&path, &header()).unwrap();
        assert!(store.append_profile("cell", &profile).unwrap());
        assert!(!store.append_profile("cell", &profile).unwrap(), "second append is a no-op");
        drop(store);

        let mut store = CampaignStore::open(&path, &header()).unwrap();
        assert_eq!(store.profiles["cell"], profile);
        assert!(!store.append_profile("cell", &profile).unwrap(), "resume keeps idempotency");
        drop(store);

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"meta\":\"profile\"").count(), 1);
        assert_eq!(read_profiles(&path).unwrap()["cell"], profile);
        // Profile records are meta: they never influence tallies.
        let (_, done, _) = read_store(&path).unwrap();
        assert!(done.is_empty());
    }

    #[test]
    fn shard_records_roundtrip() {
        let t = tallies(3);
        let json = shard_to_json("cell#2", &t);
        assert_eq!(json.get("shard").and_then(Json::as_str), Some("cell#2"));
        assert_eq!(shard_from_json(&json).unwrap(), t);
    }
}
